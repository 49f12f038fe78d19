"""Reversible truth tables as permutations of computational basis states.

A reversible logical operation on N qubits is a bijection on the 2^N
basis states.  States are indexed by integers whose N-bit binary
expansion x1 x2 ... xN (x1 the most significant bit) matches the ket
notation |x1 x2 ... xN>.  The orbit structure of the permutation (its
"maximal sets") drives everything downstream: pulse counts, labeling
schemes and their enumeration.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .topology import MAX_QUBITS

__all__ = [
    "TruthTableError",
    "Permutation",
    "MaximalSetDecomposition",
    "bit_string",
    "parse_truth_table",
    "compose",
    "cycles",
    "maximal_sets",
    "min_pulse_count",
    "count_optimal_labelings",
    "builtin_operation",
]


class TruthTableError(ValueError):
    """Raised for malformed or non-reversible truth-table documents."""


def bit_string(index: int, n_qubits: int) -> str:
    """N-bit string of a basis-state index, most significant bit first."""
    return format(index, "0{}b".format(n_qubits))


@dataclass(frozen=True)
class Permutation:
    """A bijection on the 2^N basis states.

    ``mapping[i]`` is the output state index for input state ``i``.
    Instances are immutable values; all operations on them are pure.
    """

    n_qubits: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        size = 1 << self.n_qubits
        if len(self.mapping) != size:
            raise ValueError(
                "mapping has {} entries, expected {}".format(len(self.mapping), size)
            )
        if sorted(self.mapping) != list(range(size)):
            raise ValueError("mapping is not a bijection on the basis states")

    @property
    def size(self) -> int:
        return 1 << self.n_qubits

    def __call__(self, state: int) -> int:
        return self.mapping[state]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(self.n_qubits, tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.mapping))

    @classmethod
    def identity(cls, n_qubits: int) -> "Permutation":
        return cls(n_qubits, tuple(range(1 << n_qubits)))


@dataclass(frozen=True)
class MaximalSetDecomposition:
    """All orbits of a permutation in canonical order.

    Each set is its chain of states s1 -> s2 -> ... -> sL, closed: the
    permutation maps each element to the next and the last back to the
    first.  The first set starts at the smallest state index, each
    following set at the smallest index not yet covered.  The sets
    partition the full state space.
    """

    n_qubits: int
    sets: tuple[tuple[int, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    def multi_set_count(self) -> int:
        """Number of sets with more than one state."""
        return sum(1 for s in self.sets if len(s) > 1)

    def serialize(self) -> str:
        """Render the decomposition, one set per line, in ket notation."""
        lines = []
        for i, s in enumerate(self.sets, start=1):
            kets = ",".join("|{}>".format(bit_string(x, self.n_qubits)) for x in s)
            lines.append("S{}={{{}}}".format(i, kets))
        return "\n".join(lines)


_HEADER_RE = re.compile(r"^qubits\s*:\s*0*([0-9]+)$")


def _content_lines(text: str) -> Iterator[str]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_truth_table(text: str) -> Permutation:
    """Parse a truth-table document into a validated Permutation.

    The document holds a ``qubits: N`` header followed by exactly 2^N
    lines ``BITSTRING -> BITSTRING``.  Mapping rows may appear in any
    order; ``#`` starts a comment.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise TruthTableError("empty document")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise TruthTableError("first line must be 'qubits: N', got {!r}".format(lines[0]))
    count = header.group(1)  # no leading zeros, so its length bounds its value
    if count == "0":
        raise TruthTableError("qubit count must be at least 1")
    if len(count) > len(str(MAX_QUBITS)) or int(count) > MAX_QUBITS:
        raise TruthTableError("qubit count must be at most {}".format(MAX_QUBITS))
    n = int(count)
    size = 1 << n

    mapping: dict[int, int] = {}
    seen_outputs: dict[int, str] = {}
    for line in lines[1:]:
        if "->" not in line:
            raise TruthTableError("malformed line (no '->'): {!r}".format(line))
        left, _, right = line.partition("->")
        src, dst = left.strip(), right.strip()
        for bits in (src, dst):
            if len(bits) != n or bits.strip("01"):
                raise TruthTableError(
                    "bad {}-bit string {!r} in line {!r}".format(n, bits, line)
                )
        i, j = int(src, 2), int(dst, 2)
        if i in mapping:
            raise TruthTableError("duplicate input row for |{}>".format(src))
        if j in seen_outputs:
            raise TruthTableError(
                "output |{}> repeated (already produced by {})".format(dst, seen_outputs[j])
            )
        mapping[i] = j
        seen_outputs[j] = "|{}>".format(src)

    if len(mapping) != size:
        missing = next(i for i in range(size) if i not in mapping)
        raise TruthTableError("missing input row for |{}>".format(bit_string(missing, n)))
    return Permutation(n, tuple(mapping[i] for i in range(size)))


def compose(first: Permutation, second: Permutation) -> Permutation:
    """Combined operation applying ``first`` and then ``second``.

    Composition of logical operations is generally non-commutative, so
    the argument order matters.
    """
    if first.n_qubits != second.n_qubits:
        raise ValueError(
            "qubit counts differ: {} vs {}".format(first.n_qubits, second.n_qubits)
        )
    return Permutation(
        first.n_qubits, tuple(second.mapping[first.mapping[i]] for i in range(first.size))
    )


def cycles(mapping: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of a mapping, fixed points included.

    Each cycle begins at its smallest index and follows the mapping from
    there; cycles appear in the order of those first elements.
    """
    seen: set[int] = set()
    out = []
    for start in range(len(mapping)):
        if start in seen:
            continue
        chain = [start]
        nxt = mapping[start]
        while nxt != start:
            chain.append(nxt)
            nxt = mapping[nxt]
        seen.update(chain)
        out.append(tuple(chain))
    return out


def maximal_sets(p: Permutation) -> MaximalSetDecomposition:
    """Decompose a permutation into its maximal sets (orbit chains).

    Each chain starts at the smallest state index not yet covered and
    follows the permutation until it closes.  The resulting sets are
    mutually exclusive and cover every state exactly once.
    """
    return MaximalSetDecomposition(p.n_qubits, tuple(cycles(p.mapping)))


def min_pulse_count(d: MaximalSetDecomposition) -> int:
    """Minimum number of transition-selective pulses: sum of (|S_i| - 1)."""
    return sum(len(s) - 1 for s in d.sets)


def count_optimal_labelings(d: MaximalSetDecomposition) -> int:
    """Size of the paper's family of optimal chain labelings: M! * 2^k.

    The family puts each maximal set on a contiguous segment in chain
    order or reversed; M is the number of sets and k the number with more
    than one state.  Other labelings are optimal too once a set has three
    or more states: M! * prod |S| * 2^(|S| - 2) over the sets with |S| >= 2
    reach sum(|S| - 1) pulses.  Exact big-integer arithmetic throughout.
    """
    m = len(d.sets)
    k = d.multi_set_count()
    return math.factorial(m) * (1 << k)


def _full_adder4_mapping() -> tuple[int, ...]:
    # bit roles: x1 = incoming carry, x2 = A, x3 = B, x4 = ancilla
    out = []
    for x in range(16):
        c0 = (x >> 3) & 1
        a = (x >> 2) & 1
        b = (x >> 1) & 1
        anc = x & 1
        s = c0 ^ a ^ b
        carry = anc ^ ((a & b) ^ (a & c0) ^ (b & c0))
        out.append((c0 << 3) | (a << 2) | (s << 1) | carry)
    return tuple(out)


_FULL_ADDER4 = _full_adder4_mapping()


def _swap_bits(x: int, i: int, j: int, n: int) -> int:
    bi = (x >> (n - i)) & 1
    bj = (x >> (n - j)) & 1
    if bi != bj:
        x ^= (1 << (n - i)) | (1 << (n - j))
    return x


def builtin_operation(name: str, n_qubits: int | None = None) -> Permutation:
    """Build one of the named operations.

    Accepted names: ``fulladder4``, ``identity`` / ``identity:N`` and
    ``swap:i,j`` (two different 1-based qubit indices, x1 the most
    significant bit).
    ``swap`` needs ``n_qubits``; ``identity:N`` carries its own size.
    """
    name = name.strip()
    if name == "fulladder4":
        if n_qubits not in (None, 4):
            raise ValueError("fulladder4 is a 4-qubit operation")
        return Permutation(4, _FULL_ADDER4)
    if name == "identity" or name.startswith("identity:"):
        if ":" in name:
            n_qubits = int(name.split(":", 1)[1])
        if n_qubits is None:
            raise ValueError("identity needs a qubit count")
        return Permutation.identity(n_qubits)
    if name.startswith("swap:"):
        arg = name.split(":", 1)[1]
        try:
            i_s, j_s = arg.split(",")
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise ValueError("swap takes two comma-separated qubit indices") from None
        if n_qubits is None:
            raise ValueError("swap needs a qubit count")
        if not (1 <= i <= n_qubits and 1 <= j <= n_qubits):
            raise ValueError(
                "qubit index out of range for {} qubits: swap:{},{}".format(n_qubits, i, j)
            )
        if i == j:
            raise ValueError("swap needs two different qubit indices: swap:{},{}".format(i, j))
        size = 1 << n_qubits
        return Permutation(
            n_qubits, tuple(_swap_bits(x, i, j, n_qubits) for x in range(size))
        )
    raise ValueError("unknown operation name {!r}".format(name))
