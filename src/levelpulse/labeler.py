"""Construct labeling schemes by mapping maximal-set chains onto the topology.

An optimal scheme places every multi-element chain on levels that are
pulse-connected, so each set of L states needs exactly L - 1 pulses.  On
the chain this means contiguous segments; on the hypercube the chains are
embedded as paths by interchanging labels, starting from conventional
labeling.  A further variant places 4-cycles on squares in a zig-zag
order whose pulse factorization packs into fewer simultaneous rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .permutation import MaximalSetDecomposition, bit_string
from .topology import (
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    Labeling,
    Topology,
)

__all__ = [
    "SetPlacement",
    "LabelingScheme",
    "RelabelError",
    "ols_quadrupolar",
    "enumerate_ols_quadrupolar",
    "relabel_pairswap_spin_half",
    "relabel_parallel_spin_half",
    "fixed_scheme",
    "serialize_labeling",
    "parse_labeling",
]

PATH = "path"
ZIGZAG = "zigzag"


@dataclass(frozen=True)
class SetPlacement:
    """Levels assigned to one maximal set, in chain-element order.

    ``style`` records how the synthesizer realizes the cycle: ``path``
    placements keep consecutive chain elements on adjacent levels,
    ``zigzag`` placements put a 4-cycle on a square so that two of its
    three pulses are level-disjoint.
    """

    levels: tuple[int, ...]
    style: str = PATH


@dataclass(frozen=True)
class LabelingScheme:
    """A labeling plus the per-set placements that produced it.

    ``placements`` aligns with the decomposition's set order.  Fixed
    labelings (conventional, gray) carry no placements; their pulse
    sequences come from routing instead.
    """

    labeling: Labeling
    provenance: str
    placements: tuple[SetPlacement, ...] | None = None


class RelabelError(RuntimeError):
    """No label rearrangement embeds a chain into the topology."""

    def __init__(self, chain: tuple[int, ...], n_qubits: int):
        self.chain = chain
        kets = " -> ".join("|{}>".format(bit_string(s, n_qubits)) for s in chain)
        super().__init__("chain not embeddable as a transition path: {}".format(kets))


def fixed_scheme(labeling: Labeling, provenance: str) -> LabelingScheme:
    """Wrap a fixed labeling (no per-set placements) as a scheme."""
    return LabelingScheme(labeling, provenance, None)


def _placement_order(d: MaximalSetDecomposition) -> list[int]:
    # strictly decreasing cardinality, ties by canonical decomposition order
    return sorted(range(len(d.sets)), key=lambda i: (-len(d.sets[i]), i))


def _scheme_from_segments(
    d: MaximalSetDecomposition,
    t: Topology,
    provenance: str,
    segment_levels: dict[int, tuple[int, ...]],
    styles: dict[int, str] | None = None,
) -> LabelingScheme:
    level_to_label = [-1] * t.level_count
    placements = []
    for i, mset in enumerate(d.sets):
        levels = segment_levels[i]
        for state, level in zip(mset.chain, levels):
            level_to_label[level] = state
        placements.append(SetPlacement(levels, (styles or {}).get(i, PATH)))
    labeling = Labeling(t.n_qubits, tuple(level_to_label))
    return LabelingScheme(labeling, provenance, tuple(placements))


def ols_quadrupolar(d: MaximalSetDecomposition, t: Topology) -> LabelingScheme:
    """Canonical optimal labeling for the chain.

    Sets are laid out on consecutive levels from the top, largest first
    (ties in canonical order), each chain in transformation order with
    ascending orientation.
    """
    if t.kind != QUADRUPOLAR_CHAIN:
        raise ValueError("optimal chain labeling needs a quadrupolar chain topology")
    if (1 << d.n_qubits) != t.level_count:
        raise ValueError("decomposition size does not match topology size")
    segments: dict[int, tuple[int, ...]] = {}
    cursor = 0
    for i in _placement_order(d):
        length = len(d.sets[i])
        segments[i] = tuple(range(cursor, cursor + length))
        cursor += length
    return _scheme_from_segments(d, t, "ols", segments)


def enumerate_ols_quadrupolar(
    d: MaximalSetDecomposition, t: Topology, limit: int | None = None
) -> Iterator[LabelingScheme]:
    """Stream distinct optimal chain labelings.

    Every ordering of the maximal sets along the chain is optimal, and
    every multi-element set may run ascending or descending, so the
    total count is M! * 2^k.  Schemes are generated lazily up to
    ``limit`` (all of them when ``limit`` is None).
    """
    if t.kind != QUADRUPOLAR_CHAIN:
        raise ValueError("optimal chain labeling needs a quadrupolar chain topology")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    multi = [i for i in range(len(d.sets)) if len(d.sets[i]) > 1]
    produced = 0
    for order in itertools.permutations(range(len(d.sets))):
        for flips in itertools.product((False, True), repeat=len(multi)):
            descending = {i for i, flip in zip(multi, flips) if flip}
            segments: dict[int, tuple[int, ...]] = {}
            cursor = 0
            for i in order:
                length = len(d.sets[i])
                seg = tuple(range(cursor, cursor + length))
                segments[i] = seg[::-1] if i in descending else seg
                cursor += length
            yield _scheme_from_segments(d, t, "ols", segments)
            produced += 1
            if limit is not None and produced >= limit:
                return


def _preference(
    level: int,
    label: int,
    remaining: set[int],
    assigned_labels: set[int],
) -> tuple[int, int]:
    # rank 0: label returns to its conventional home level
    # rank 1: displaces a label that belongs to the rest of this chain
    # rank 2: occupies a level whose own label was already placed elsewhere
    if level == label:
        rank = 0
    elif level in remaining:
        rank = 1
    elif level in assigned_labels:
        rank = 2
    else:
        rank = 3
    return (rank, level)


def _embed_chains(
    d: MaximalSetDecomposition,
    t: Topology,
    blocked: set[int] | None = None,
) -> dict[int, tuple[int, ...]] | tuple[int, ...]:
    """Embed every multi-element chain on vertex-disjoint topology paths.

    Returns the per-set level paths, or the chain at which the search
    got stuck.  The search backtracks fully, so failure means no
    assignment of labels to (unblocked) levels makes every chain
    pulse-connected.
    """
    order = [i for i in _placement_order(d) if len(d.sets[i]) > 1]
    used: set[int] = set(blocked or ())
    paths: dict[int, tuple[int, ...]] = {}
    deepest = 0

    def extend(chain: tuple[int, ...], pos: int, prefix: list[int], placed: set[int]) -> bool:
        if pos == len(chain):
            return True
        cur = prefix[-1]
        remaining = set(chain[pos:])
        cands = [u for u in t.neighbors[cur] if u not in used and u not in prefix]
        cands.sort(key=lambda u: _preference(u, chain[pos], remaining, placed))
        for u in cands:
            prefix.append(u)
            if extend(chain, pos + 1, prefix, placed):
                return True
            prefix.pop()
        return False

    def place(idx: int, placed: set[int]) -> bool:
        nonlocal deepest
        if idx == len(order):
            return True
        deepest = max(deepest, idx)
        chain = d.sets[order[idx]].chain
        starts = [lv for lv in range(t.level_count) if lv not in used]
        starts.sort(key=lambda lv: _preference(lv, chain[0], set(chain), placed))
        for start in starts:
            prefix = [start]
            if extend(chain, 1, prefix, placed):
                paths[order[idx]] = tuple(prefix)
                used.update(prefix)
                if place(idx + 1, placed | set(chain)):
                    return True
                used.difference_update(prefix)
                del paths[order[idx]]
        return False

    if place(0, set()):
        return paths
    return d.sets[order[deepest]].chain


def relabel_pairswap_spin_half(
    d: MaximalSetDecomposition, t: Topology
) -> LabelingScheme:
    """Repair conventional labeling so every chain is pulse-connected.

    Starting from conventional labeling, labels are interchanged until
    consecutive chain elements of every maximal set sit on hypercube
    edges.  The search prefers swaps that keep labels at or near their
    conventional levels and backtracks when a greedy choice dead-ends.
    """
    if t.kind != SPIN_HALF_HYPERCUBE:
        raise ValueError("pair-swap relabeling applies to the spin-1/2 hypercube")
    if (1 << d.n_qubits) != t.level_count:
        raise ValueError("decomposition size does not match topology size")
    result = _embed_chains(d, t)
    if isinstance(result, tuple):
        raise RelabelError(result, d.n_qubits)
    segments = dict(result)
    _fill_singletons(d, t, segments)
    return _scheme_from_segments(d, t, "relabeled_pairswap", segments)


def _fill_singletons(
    d: MaximalSetDecomposition, t: Topology, segments: dict[int, tuple[int, ...]]
) -> None:
    used = {lv for seg in segments.values() for lv in seg}
    free = [lv for lv in range(t.level_count) if lv not in used]
    singles = [i for i in range(len(d.sets)) if len(d.sets[i]) == 1]
    deferred = []
    for i in singles:
        label = d.sets[i].chain[0]
        if label in free:
            segments[i] = (label,)
            free.remove(label)
        else:
            deferred.append(i)
    for i in deferred:
        segments[i] = (free.pop(0),)


def _zigzag_square(anchor: int, bit_a: int, bit_b: int) -> tuple[int, int, int, int]:
    # path v1 - v2 - v3 - v4 alternating the two flip directions
    v1 = anchor
    v2 = v1 ^ bit_a
    v3 = v2 ^ bit_b
    v4 = v3 ^ bit_a
    return v1, v2, v3, v4


def relabel_parallel_spin_half(
    d: MaximalSetDecomposition, t: Topology
) -> LabelingScheme:
    """Relabel for maximal simultaneous pulsing on the hypercube.

    Each 4-cycle is placed on a square in zig-zag order: the chain runs
    v1 -> v3 -> v4 -> v2 along a path v1-v2-v3-v4, so the cycle factors
    into the two outer (level-disjoint) pulses followed by the middle
    one.  Pairs go on free edges and singletons keep their conventional
    levels, letting the scheduler pack all outer pulses into one round.
    """
    if t.kind != SPIN_HALF_HYPERCUBE:
        raise ValueError("parallel relabeling applies to the spin-1/2 hypercube")
    if (1 << d.n_qubits) != t.level_count:
        raise ValueError("decomposition size does not match topology size")

    used: set[int] = set()
    segments: dict[int, tuple[int, ...]] = {}
    styles: dict[int, str] = {}
    leftovers: list[int] = []
    bits = [1 << b for b in range(t.n_qubits)]

    for i in _placement_order(d):
        mset = d.sets[i]
        if len(mset) == 1:
            continue
        placed = False
        if len(mset) == 4:
            anchors = [mset.chain[0]] + [
                lv for lv in range(t.level_count) if lv != mset.chain[0]
            ]
            for v1 in anchors:
                if placed:
                    break
                for bit_a, bit_b in itertools.permutations(bits, 2):
                    square = _zigzag_square(v1, bit_a, bit_b)
                    if len(set(square)) == 4 and not used.intersection(square):
                        v1_, v2, v3, v4 = square
                        segments[i] = (v1_, v3, v4, v2)
                        styles[i] = ZIGZAG
                        used.update(square)
                        placed = True
                        break
        elif len(mset) == 2:
            a, b = mset.chain
            pairs = [(a, b)] + [e for e in t.edges if e != (min(a, b), max(a, b))]
            for u, v in pairs:
                if t.is_edge(u, v) and u not in used and v not in used:
                    segments[i] = (u, v)
                    used.update((u, v))
                    placed = True
                    break
        if not placed:
            leftovers.append(i)

    if leftovers:
        # fall back to path embedding for chains the zig-zag rule cannot place
        sub = MaximalSetDecomposition(
            d.n_qubits, tuple(d.sets[i] for i in leftovers)
        )
        partial = _embed_chains(sub, t, blocked=used)
        if isinstance(partial, tuple):
            raise RelabelError(partial, d.n_qubits)
        for j, i in enumerate(leftovers):
            segments[i] = partial[j]
            used.update(partial[j])

    _fill_singletons(d, t, segments)
    return _scheme_from_segments(d, t, "parallel", segments, styles=styles)


def serialize_labeling(labeling: Labeling, t: Topology) -> str:
    """Render a labeling table, one level per line.

    Chain lines carry the magnetic quantum number in the middle column;
    hypercube lines have just the level index and label.
    """
    lines = []
    for level in range(t.level_count):
        if t.kind == QUADRUPOLAR_CHAIN:
            m = t.magnetic_quantum_number(level)
            lines.append("{}  {}  {}".format(level, _fmt_m(m), labeling.label_bits(level)))
        else:
            lines.append("{}  {}".format(level, labeling.label_bits(level)))
    return "\n".join(lines)


def _fmt_m(m: Fraction) -> str:
    sign = "+" if m >= 0 else ""
    return "{}{}".format(sign, m)


def parse_labeling(text: str, t: Topology) -> Labeling:
    """Parse a labeling table produced by :func:`serialize_labeling`."""
    rows: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError("bad labeling line {!r}".format(raw))
        level = int(parts[0])
        label_bits = parts[-1]
        if len(label_bits) != t.n_qubits or any(c not in "01" for c in label_bits):
            raise ValueError("bad label {!r} in line {!r}".format(label_bits, raw))
        if level in rows:
            raise ValueError("duplicate level {} in labeling table".format(level))
        rows[level] = int(label_bits, 2)
    if sorted(rows) != list(range(t.level_count)):
        raise ValueError("labeling table must list every level exactly once")
    return Labeling(t.n_qubits, tuple(rows[lv] for lv in range(t.level_count)))
