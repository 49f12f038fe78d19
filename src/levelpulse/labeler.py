"""Construct labeling schemes by mapping maximal-set chains onto the topology.

An optimal scheme places every multi-element chain on levels that are
pulse-connected, so each set of L states needs exactly L - 1 pulses.  On
the chain this means contiguous segments.  On the hypercube a greedy
descent embeds the chains as paths near conventional labeling, and where
it dead-ends they are laid on consecutive positions of the reflected
Gray code, a Hamiltonian path, in bipartite Coxeter order, so placement
never fails and the fallback runs in at most two simultaneous rounds.
The parallel variant puts every chain on its path in Coxeter order, so
the whole operation runs in at most two rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .permutation import MaximalSetDecomposition
from .topology import (
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    Labeling,
    Topology,
    gray_labeling,
)

__all__ = [
    "LabelingScheme",
    "ols_quadrupolar",
    "enumerate_ols_quadrupolar",
    "relabel_pairswap_spin_half",
    "relabel_parallel_spin_half",
    "serialize_labeling",
    "parse_labeling",
]

PATH = "path"
COXETER = "coxeter"


@dataclass(frozen=True)
class LabelingScheme:
    """A labeling plus the style in which its chains are pulsed.

    A placement scheme lays every maximal set on a transition path, so
    the labeling is the placement: the levels of a set are
    ``labeling.level_of(s)`` over its chain.  ``PATH`` chains (``ols``
    and embedded ``pairswap``) lie on the path in chain order; on the
    quadrupolar chain they are pulsed along it, and on the hypercube as
    the shallowest tree of transitions among their levels
    (``synthesize_scheme``).  ``COXETER`` chains (``parallel``, and the
    reflected Gray layout either hypercube scheme takes on a dead end)
    sit on a path v_0 ... v_(L-1) with element j on v_(2j) while 2j < L
    and on v_(2(L-1-j)+1) after that, so the path's even-position edges
    are the pairs (s_i, s_(L-1-i)) and its odd-position edges the pairs
    (s_i, s_(L-i)): two reflections of the chain order.  Fixed labelings
    (conventional, gray) have no style; their pulse sequences come from
    routing instead.
    """

    labeling: Labeling
    style: str | None = None


def _placement_order(d: MaximalSetDecomposition) -> list[int]:
    # strictly decreasing cardinality, ties by canonical decomposition order
    return sorted(range(len(d.sets)), key=lambda i: (-len(d.sets[i]), i))


def _multi_sets(d: MaximalSetDecomposition) -> list[int]:
    return [i for i in _placement_order(d) if len(d.sets[i]) > 1]


def _scheme_from_segments(
    d: MaximalSetDecomposition,
    t: Topology,
    segment_levels: dict[int, tuple[int, ...]],
    style: str = PATH,
) -> LabelingScheme:
    # segments are transition paths; coxeter order walks the even
    # positions out and the odd positions back
    level_to_label = [-1] * t.level_count
    for i, mset in enumerate(d.sets):
        levels = segment_levels[i]
        if style == COXETER:
            levels = levels[0::2] + levels[1::2][::-1]
        for state, level in zip(mset.chain, levels):
            level_to_label[level] = state
    return LabelingScheme(Labeling(t.n_qubits, tuple(level_to_label)), style)


def _contiguous_scheme(
    d: MaximalSetDecomposition, t: Topology, order: Iterable[int], descending: set[int]
) -> LabelingScheme:
    # the sets in ``order`` on consecutive levels from the top, each chain
    # ascending unless its set is in ``descending``
    segments: dict[int, tuple[int, ...]] = {}
    cursor = 0
    for i in order:
        length = len(d.sets[i])
        seg = tuple(range(cursor, cursor + length))
        segments[i] = seg[::-1] if i in descending else seg
        cursor += length
    return _scheme_from_segments(d, t, segments)


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
    return _contiguous_scheme(d, t, _placement_order(d), set())


def enumerate_ols_quadrupolar(
    d: MaximalSetDecomposition, t: Topology, limit: int | None = None
) -> Iterator[LabelingScheme]:
    """Stream the paper's family of optimal chain labelings.

    Every ordering of the maximal sets on contiguous segments is optimal,
    and every multi-element set may run ascending or descending, giving
    M! * 2^k schemes (``count_optimal_labelings``; the family, not every
    optimal labeling).  Schemes are generated lazily up to ``limit``.
    """
    if t.kind != QUADRUPOLAR_CHAIN:
        raise ValueError("optimal chain labeling needs a quadrupolar chain topology")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    multi = [i for i in range(len(d.sets)) if len(d.sets[i]) > 1]
    layouts = (
        (order, flips)
        for order in itertools.permutations(range(len(d.sets)))
        for flips in itertools.product((False, True), repeat=len(multi))
    )
    for order, flips in itertools.islice(layouts, limit):
        descending = {i for i, flip in zip(multi, flips) if flip}
        yield _contiguous_scheme(d, t, order, descending)


def _preference(
    level: int,
    label: int,
    remaining: set[int],
    assigned_labels: set[int],
) -> tuple[int, int]:
    # rank 0: label returns to its conventional home level
    # rank 1: displaces a label that belongs to the rest of this chain
    # rank 2: occupies a level whose own label was already placed elsewhere
    # rank 3: displaces a label not yet placed that belongs to no rest of
    #         this chain: a later chain's, or a fixed point's
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
    order: list[int],
    blocked: set[int] | None = None,
) -> dict[int, tuple[int, ...]] | None:
    """Embed the multi-element chains ``order`` on vertex-disjoint paths.

    One greedy descent without backtracking: each chain in turn starts
    on the best-ranked free (unblocked) level and grows through the
    best-ranked free neighbour.  Returns the per-set level paths, or
    None at the first dead end.
    """
    used: set[int] = set(blocked or ())
    placed: set[int] = set()
    paths: dict[int, tuple[int, ...]] = {}
    for i in order:
        chain = d.sets[i].chain
        remaining = set(chain)
        free = (lv for lv in range(t.level_count) if lv not in used)
        path = [min(free, key=lambda lv: _preference(lv, chain[0], remaining, placed))]
        used.add(path[0])
        for prev, label in zip(chain, chain[1:]):
            remaining.discard(prev)
            cands = [u for u in t.neighbors[path[-1]] if u not in used]
            if not cands:
                return None
            path.append(min(cands, key=lambda u: _preference(u, label, remaining, placed)))
            used.add(path[-1])
        paths[i] = tuple(path)
        placed.update(chain)
    return paths


def _gray_scheme(d: MaximalSetDecomposition, t: Topology) -> LabelingScheme:
    """Lay the chains, largest first, on consecutive reflected Gray positions.

    Position k is level k ^ (k >> 1) and neighbouring positions differ in
    one bit, so every chain lands on a transition path, taken in Coxeter
    order: the scheme runs in at most two rounds.
    """
    gray = gray_labeling(t).level_to_label
    segments: dict[int, tuple[int, ...]] = {}
    k = 0
    for i in _multi_sets(d):
        segments[i] = gray[k : k + len(d.sets[i])]
        k += len(d.sets[i])
    _fill_singletons(d, t, segments)
    return _scheme_from_segments(d, t, segments, COXETER)


def relabel_pairswap_spin_half(
    d: MaximalSetDecomposition, t: Topology
) -> LabelingScheme:
    """Repair conventional labeling so every chain is pulse-connected.

    Starting from conventional labeling, labels are interchanged until
    consecutive chain elements of every maximal set sit on hypercube
    edges.  One greedy descent prefers swaps that keep labels at or near
    their conventional levels; if it dead-ends, the whole scheme is the
    reflected Gray code layout of ``relabel_parallel_spin_half`` instead,
    which always succeeds in at most two rounds but relabels most levels.
    """
    if t.kind != SPIN_HALF_HYPERCUBE:
        raise ValueError("pair-swap relabeling applies to the spin-1/2 hypercube")
    if (1 << d.n_qubits) != t.level_count:
        raise ValueError("decomposition size does not match topology size")
    segments = _embed_chains(d, t, _multi_sets(d))
    if segments is None:
        return _gray_scheme(d, t)
    _fill_singletons(d, t, segments)
    return _scheme_from_segments(d, t, segments)


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


def relabel_parallel_spin_half(
    d: MaximalSetDecomposition, t: Topology
) -> LabelingScheme:
    """Relabel so the whole operation runs in at most two rounds.

    Every chain goes on a transition path v_0 ... v_(L-1) in bipartite
    Coxeter order: chain element j on v_(2j) while 2j < L and on
    v_(2(L-1-j)+1) after that.  The even-position edges then join s_i to
    s_(L-1-i) and the odd-position edges join s_i to s_(L-i), so one
    round pulses each of these two reflections of the chain order; their
    product is the L-cycle (the bipartite Coxeter element of S_L), and
    sets on disjoint paths share both rounds.  Two rounds are the
    minimum for any set of three or more states, because one round of
    disjoint swaps is an involution.  4-cycles go on squares v1-v2-v3-v4
    (chain v1, v3, v4, v2), pairs on free edges and singletons keep
    their conventional levels.  Chains the square and edge rules cannot
    place are embedded as paths by the greedy descent; if that
    dead-ends, the whole scheme is built on the reflected Gray code.
    """
    if t.kind != SPIN_HALF_HYPERCUBE:
        raise ValueError("parallel relabeling applies to the spin-1/2 hypercube")
    if (1 << d.n_qubits) != t.level_count:
        raise ValueError("decomposition size does not match topology size")

    used: set[int] = set()
    segments: dict[int, tuple[int, ...]] = {}
    leftovers: list[int] = []
    bits = [1 << b for b in range(t.n_qubits)]

    for i in _multi_sets(d):
        chain = d.sets[i].chain
        cands: Iterable[tuple[int, ...]] = ()
        if len(chain) == 4:
            # squares alternating two flip directions, anchored at the first label first
            anchors = [chain[0]] + [lv for lv in range(t.level_count) if lv != chain[0]]
            cands = (
                (v, v ^ bit_a, v ^ bit_a ^ bit_b, v ^ bit_b)
                for v in anchors
                for bit_a, bit_b in itertools.permutations(bits, 2)
            )
        elif len(chain) == 2:
            cands = itertools.chain([chain] if t.is_edge(*chain) else [], t.edges)
        path = next((c for c in cands if used.isdisjoint(c)), None)
        if path is None:
            leftovers.append(i)
        else:
            segments[i] = path
            used.update(path)

    paths = _embed_chains(d, t, leftovers, blocked=used)
    if paths is None:
        return _gray_scheme(d, t)
    segments.update(paths)
    _fill_singletons(d, t, segments)
    return _scheme_from_segments(d, t, segments, COXETER)


def serialize_labeling(labeling: Labeling, t: Topology) -> str:
    """Render a labeling table, one level per line.

    Chain lines carry the magnetic quantum number in the middle column;
    hypercube lines have just the level index and label.
    """
    if t.kind == QUADRUPOLAR_CHAIN:
        return "\n".join(
            "{}  {}  {}".format(level, t.m_text(level), labeling.label_bits(level))
            for level in range(t.level_count)
        )
    return "\n".join(
        "{}  {}".format(level, labeling.label_bits(level)) for level in range(t.level_count)
    )


def parse_labeling(text: str, t: Topology) -> Labeling:
    """Parse a labeling table produced by :func:`serialize_labeling`."""
    rows: dict[int, int] = {}
    for raw in text.splitlines():
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise ValueError("bad labeling line {!r}".format(raw))
        level = int(parts[0])
        label_bits = parts[-1]
        if len(label_bits) != t.n_qubits or label_bits.strip("01"):
            raise ValueError("bad label {!r} in line {!r}".format(label_bits, raw))
        if level in rows:
            raise ValueError("duplicate level {} in labeling table".format(level))
        rows[level] = int(label_bits, 2)
    if sorted(rows) != list(range(t.level_count)):
        raise ValueError("labeling table must list every level exactly once")
    return Labeling(t.n_qubits, tuple(rows[lv] for lv in range(t.level_count)))
