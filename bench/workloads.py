"""The benchmark's workloads and the seeded inputs they run.

An operation is one truth-table file compiled under one (topology,
scheme) pair and then verified.  A workload is a fixed mix of operation
classes; the seed only decides which random bijections fill it.  Every
workload also carries the paper set: the 4-qubit adder and the adder
followed by swap:2,4, under all six (topology, scheme) pairs, so every
layer is entered at least a few times in every workload.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import CHAIN, HYPERCUBE

CHAIN_SCHEMES = ("ols", "cl", "gray")
HYPERCUBE_SCHEMES = ("pairswap", "parallel", "cl")
PLACEMENT_SCHEMES = ("ols", "pairswap", "parallel")

# the reference adder: x1 incoming carry, x2 A, x3 B, x4 ancilla
FULL_ADDER4 = (0, 1, 2, 3, 6, 7, 5, 4, 10, 11, 9, 8, 13, 12, 15, 14)


@dataclass(frozen=True)
class OpClass:
    """``count`` seeded random bijections on ``n`` qubits, each run under every scheme."""

    topology: str
    n: int
    schemes: tuple[str, ...]
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float
    classes: tuple[OpClass, ...]
    why: str


@dataclass(frozen=True)
class Op:
    index: int
    topology: str
    scheme: str
    n: int
    mapping: tuple[int, ...]
    table: str
    kind: str  # "random", "paper" or "warmup"


# Budgets are per CLI call.  The search workloads use a small one so a run
# samples many inputs and the share that times out is steady from seed to
# seed; nothing on chain-fixed comes near its budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-fixed",
            2.0,
            (
                OpClass(CHAIN, 5, ("cl", "gray"), 72),
                OpClass(CHAIN, 6, ("cl", "gray"), 18),
            ),
            "fixed labelings on the chain: routing emits ~2^N(2^N-1)/4 pulses, "
            "so O(P^2) scheduling and the per-pulse dense matmul carry the job",
        ),
        Workload(
            "placement",
            0.1,
            (
                OpClass(HYPERCUBE, 6, ("pairswap", "parallel"), 90),
                OpClass(CHAIN, 6, ("ols",), 90),
                OpClass(HYPERCUBE, 7, ("pairswap", "parallel"), 66),
                OpClass(CHAIN, 7, ("ols",), 110),
            ),
            "placement schemes emit only sum(|S|-1) pulses, so the labeler's "
            "chain-embedding search carries the job and scheduling stays light",
        ),
        Workload(
            "hypercube-route",
            0.1,
            (
                OpClass(HYPERCUBE, 3, ("cl",), 780),
                OpClass(HYPERCUBE, 4, ("cl",), 260),
            ),
            "conventional labeling on the hypercube: exact per-cycle search, "
            "Cayley BFS and capped deepening search carry the job",
        ),
    )
}


def table_text(mapping: tuple[int, ...], n: int) -> str:
    rows = ["qubits: {}".format(n)]
    rows += ["{:0{n}b} -> {:0{n}b}".format(i, j, n=n) for i, j in enumerate(mapping)]
    return "\n".join(rows) + "\n"


def swap_bits(mapping: tuple[int, ...], n: int, i: int, j: int) -> tuple[int, ...]:
    """``mapping`` followed by swapping qubits i and j (1-based, x1 most significant)."""

    def swap(x: int) -> int:
        bi, bj = (x >> (n - i)) & 1, (x >> (n - j)) & 1
        return x ^ ((1 << (n - i)) | (1 << (n - j))) if bi != bj else x

    return tuple(swap(y) for y in mapping)


def paper_mappings() -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("fulladder4", FULL_ADDER4),
        ("fulladder4-swap24", swap_bits(FULL_ADDER4, 4, 2, 4)),
    ]


def random_bijection(rng: random.Random, n: int) -> tuple[int, ...]:
    out = list(range(1 << n))
    rng.shuffle(out)
    return tuple(out)


def _write(directory: Path, name: str, mapping: tuple[int, ...], n: int) -> str:
    path = directory / name
    data = table_text(mapping, n).encode("utf-8")
    # overwrite in place, without truncating first: ext4 starts writing a
    # file back when it is closed after a truncate to zero, and set-ups that
    # rewrote every input that way waited on the shared disk
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return str(path)


def make_batch(workload: Workload, seed: int, directory: Path) -> list[Op]:
    """Write the seed's truth tables and return one pass of operations, shuffled."""
    rng = random.Random("{}:{}".format(workload.name, seed))
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for cls in workload.classes:
        for k in range(cls.count):
            mapping = random_bijection(rng, cls.n)
            path = _write(directory, "n{}-{}-{}.tt".format(cls.n, cls.topology, k), mapping, cls.n)
            specs += [(cls.topology, s, cls.n, mapping, path, "random") for s in cls.schemes]
    for name, mapping in paper_mappings():
        path = _write(directory, name + ".tt", mapping, 4)
        for topology, schemes in ((CHAIN, CHAIN_SCHEMES), (HYPERCUBE, HYPERCUBE_SCHEMES)):
            specs += [(topology, s, 4, mapping, path, "paper") for s in schemes]
    rng.shuffle(specs)
    return [Op(i, *spec) for i, spec in enumerate(specs)]


def warmup_ops(workload: Workload, directory: Path) -> list[Op]:
    """One untimed operation per (topology, N, scheme) class, the same for every seed.

    The input swaps the all-zeros and all-ones states.  No single pulse
    routes that pair for N >= 2, so on the hypercube with N <= 3 it forces
    the group-wide search and builds its cached distance table.
    """
    classes = {(c.topology, c.n, s) for c in workload.classes for s in c.schemes}
    classes |= {(CHAIN, 4, s) for s in CHAIN_SCHEMES}
    classes |= {(HYPERCUBE, 4, s) for s in HYPERCUBE_SCHEMES}
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for topology, n, scheme in sorted(classes):
        if n == 4:
            mapping, name = FULL_ADDER4, "warmup-fulladder4.tt"
        else:
            size = 1 << n
            mapping = (size - 1,) + tuple(range(1, size - 1)) + (0,)
            name = "warmup-n{}.tt".format(n)
        path = _write(directory, name, mapping, n)
        ops.append(Op(-1 - len(ops), topology, scheme, n, mapping, path, "warmup"))
    return ops
