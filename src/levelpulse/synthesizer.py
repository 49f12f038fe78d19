"""Emit transition-selective pi-pulse sequences realizing a permutation.

Placement-backed schemes (optimal chain labeling, hypercube relabelings)
synthesize per maximal set: a chain of L states on a transition path
needs L - 1 pulses applied in reverse chain order.  Fixed labelings
(conventional, gray) instead route each state to its destination with a
minimal product of edge transpositions.  On the chain that minimum is
the inversion count of the induced level permutation, achieved by a
bubble factorization; on the hypercube small systems use an exact
breadth-first search over the whole permutation group and larger ones a
per-set search with a configurable depth cap.

Pulses are always pi rotations about y on a single transition.  A pulse
sequence also carries its partition into simultaneous rounds: pulses in
one round touch pairwise disjoint levels, so reordering them never
changes the product operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .labeler import (
    ZIGZAG,
    LabelingScheme,
    fixed_scheme,
    ols_quadrupolar,
    relabel_pairswap_spin_half,
    relabel_parallel_spin_half,
)
from .permutation import (
    MaximalSet,
    MaximalSetDecomposition,
    Permutation,
    bit_string,
    builtin_operation,
    compose,
    maximal_sets,
)
from .topology import (
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    Labeling,
    Topology,
    conventional_labeling,
    gray_labeling,
)

__all__ = [
    "Pulse",
    "PulseSequence",
    "SynthesisError",
    "synthesize_on_path",
    "synthesize_scheme",
    "synthesize_fixed_labeling",
    "synthesize_named",
    "schedule_rounds",
    "PulseCountReport",
    "pulse_count_report",
    "scheme_for",
    "serialize_pulse_program",
    "parse_pulse_program",
]


@dataclass(frozen=True)
class Pulse:
    """A pi_y pulse on one single-quantum transition.

    ``level_a < level_b`` always; the labels are the scheme labels of the
    two levels and only annotate the pulse.
    """

    level_a: int
    level_b: int
    label_a: int
    label_b: int

    @property
    def levels(self) -> tuple[int, int]:
        return (self.level_a, self.level_b)


@dataclass(frozen=True)
class PulseSequence:
    """An ordered pulse list partitioned into simultaneous rounds.

    ``rounds`` holds the round sizes; flattening the rounds in order
    reproduces the pulse list.  Unscheduled sequences have one pulse per
    round.
    """

    n_qubits: int
    pulses: tuple[Pulse, ...]
    rounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.rounds) != len(self.pulses):
            raise ValueError("round sizes must partition the pulse list")
        for a, b in self.round_slices():
            flat = [lv for pulse in self.pulses[a:b] for lv in pulse.levels]
            if len(flat) != len(set(flat)):
                raise ValueError("pulses within a round must not share a level")

    def __len__(self) -> int:
        return len(self.pulses)

    def round_slices(self) -> list[tuple[int, int]]:
        out, start = [], 0
        for size in self.rounds:
            out.append((start, start + size))
            start += size
        return out


def _unscheduled(n_qubits: int, pulses: list[Pulse]) -> PulseSequence:
    return PulseSequence(n_qubits, tuple(pulses), tuple(1 for _ in pulses))


class SynthesisError(RuntimeError):
    """Routing search exceeded its depth cap."""

    def __init__(self, chain: tuple[int, ...], n_qubits: int, cap: int, best: int | None):
        self.chain = chain
        self.depth_cap = cap
        self.best_depth = best
        kets = ",".join("|{}>".format(bit_string(s, n_qubits)) for s in chain)
        detail = "no factorization within depth {}".format(cap)
        if best is not None:
            detail += " (best known {})".format(best)
        super().__init__("routing failed for set {{{}}}: {}".format(kets, detail))


def _pulse(t: Topology, labeling: Labeling, a: int, b: int) -> Pulse:
    a, b = min(a, b), max(a, b)
    if not t.is_edge(a, b):
        raise ValueError("levels ({}, {}) are not a single-quantum transition".format(a, b))
    return Pulse(a, b, labeling.label_of(a), labeling.label_of(b))


def synthesize_on_path(
    mset: MaximalSet, levels: tuple[int, ...], t: Topology, labeling: Labeling
) -> list[Pulse]:
    """Pulses realizing one chain placed on a transition path.

    The L - 1 pulses are emitted in reverse chain order: the pulse on
    the last level pair comes first.  Their product realizes the cyclic
    transformation of the set up to diagonal phases.
    """
    if len(mset) < 2:
        return []
    if len(levels) != len(mset):
        raise ValueError("placement length does not match set size")
    for u, v in zip(levels, levels[1:]):
        if not t.is_edge(u, v):
            raise ValueError("placement is not a transition path: ({}, {})".format(u, v))
    return [
        _pulse(t, labeling, levels[i], levels[i + 1])
        for i in range(len(levels) - 2, -1, -1)
    ]


def _zigzag_pulses(
    mset: MaximalSet, levels: tuple[int, ...], t: Topology, labeling: Labeling
) -> list[Pulse]:
    # levels lists the chain v1 -> v3 -> v4 -> v2 over the path v1-v2-v3-v4;
    # the two outer pulses commute and are followed by the middle one
    v1, v3, v4, v2 = levels
    return [
        _pulse(t, labeling, v1, v2),
        _pulse(t, labeling, v3, v4),
        _pulse(t, labeling, v2, v3),
    ]


def synthesize_scheme(
    d: MaximalSetDecomposition, scheme: LabelingScheme, t: Topology
) -> PulseSequence:
    """Pulse sequence for a placement-backed labeling scheme.

    Sets are synthesized independently and merged in canonical set
    order; the sequence length is exactly the sum of (|S_i| - 1).
    """
    if scheme.placements is None:
        raise ValueError("scheme carries no placements; use synthesize_fixed_labeling")
    pulses: list[Pulse] = []
    for mset, placement in zip(d.sets, scheme.placements):
        if len(mset) < 2:
            continue
        if placement.style == ZIGZAG:
            pulses.extend(_zigzag_pulses(mset, placement.levels, t, scheme.labeling))
        else:
            pulses.extend(synthesize_on_path(mset, placement.levels, t, scheme.labeling))
    return _unscheduled(t.n_qubits, pulses)


# ---------------------------------------------------------------------------
# fixed-labeling routing


def _bubble_pulses(sigma: tuple[int, ...]) -> list[tuple[int, int]]:
    """Adjacent transpositions realizing sigma on a path, in pulse order.

    Plain bubble sort of the one-line form; the swap count equals the
    inversion count, which is the minimum for adjacent transpositions.
    """
    arr = list(sigma)
    swaps: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append((i, i + 1))
                changed = True
    return swaps


def _cycles_of(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if seen[start] or sigma[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = sigma[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt]
        cycles.append(tuple(cyc))
    return cycles


def _exact_cycle_pulses(
    cycle: tuple[int, ...], t: Topology
) -> list[tuple[int, int]] | None:
    """Factor one cycle into exactly len - 1 edge transpositions.

    At this depth every transposition must split a cycle of the
    remaining permutation, and no level outside the cycle's support can
    be touched, so the search runs over support-internal edges only.
    Returns None when the cycle needs more pulses on this topology.
    """
    support = sorted(cycle)
    edges = [
        (a, b)
        for a, b in itertools.combinations(support, 2)
        if t.is_edge(a, b)
    ]
    target = {lv: lv for lv in support}
    for i, lv in enumerate(cycle):
        target[lv] = cycle[(i + 1) % len(cycle)]

    def cycles_by_level(rho: dict[int, int]) -> dict[int, int]:
        comp = {}
        cid = 0
        for start in support:
            if start in comp:
                continue
            cur = start
            while cur not in comp:
                comp[cur] = cid
                cur = rho[cur]
            cid += 1
        return comp

    out: list[tuple[int, int]] = []

    def dfs(rho: dict[int, int], budget: int) -> bool:
        if budget == 0:
            return all(rho[lv] == lv for lv in support)
        comp = cycles_by_level(rho)
        for a, b in edges:
            if comp[a] != comp[b] or rho[a] == a or rho[b] == b:
                continue
            rho[a], rho[b] = rho[b], rho[a]
            out.append((a, b))
            if dfs(rho, budget - 1):
                return True
            out.pop()
            rho[a], rho[b] = rho[b], rho[a]
        return False

    if dfs(dict(target), len(cycle) - 1):
        return out
    return None


@lru_cache(maxsize=8)
def _cayley_distances(kind: str, n_qubits: int) -> dict[tuple[int, ...], int]:
    """Breadth-first distances from identity in the edge-transposition graph.

    Feasible up to 3 qubits (8! states); cached per topology.
    """
    from collections import deque

    t = Topology(kind, n_qubits)
    ident = tuple(range(t.level_count))
    dist = {ident: 0}
    queue = deque([ident])
    while queue:
        s = queue.popleft()
        d = dist[s]
        for a, b in t.edges:
            child = list(s)
            for i in range(len(child)):
                if child[i] == a:
                    child[i] = b
                elif child[i] == b:
                    child[i] = a
            key = tuple(child)
            if key not in dist:
                dist[key] = d + 1
                queue.append(key)
    return dist


def _apply_last(sigma: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    # product after appending the pulse (a, b) as the final one
    return tuple(b if x == a else a if x == b else x for x in sigma)


def _cayley_witness(sigma: tuple[int, ...], t: Topology) -> list[tuple[int, int]]:
    dist = _cayley_distances(t.kind, t.n_qubits)
    pulses: list[tuple[int, int]] = []
    cur = sigma
    while dist[cur] > 0:
        for a, b in t.edges:
            nxt = _apply_last(cur, a, b)
            if dist[nxt] == dist[cur] - 1:
                pulses.append((a, b))
                cur = nxt
                break
    return pulses[::-1]


def _displacement_bound(rho: dict[int, int]) -> int:
    displaced = [lv for lv, tgt in rho.items() if lv != tgt]
    if not displaced:
        return 0
    comp: dict[int, int] = {}
    cid = 0
    for start in displaced:
        if start in comp:
            continue
        cur = start
        while cur not in comp:
            comp[cur] = cid
            cur = rho[cur]
        cid += 1
    return len(displaced) - cid


def _capped_cycle_pulses(
    cycle: tuple[int, ...], t: Topology, cap: int
) -> list[tuple[int, int]] | tuple[None, int | None]:
    """Iterative-deepening search allowing transit through outside levels.

    Outside levels may be occupied mid-sequence but must return to
    identity.  Depths run from the cycle lower bound up to ``cap``;
    returns the pulse list, or (None, best bound reached) on failure.
    """
    from .topology import single_quantum_distance

    target: dict[int, int] = {}
    for i, lv in enumerate(cycle):
        target[lv] = cycle[(i + 1) % len(cycle)]

    out: list[tuple[int, int]] = []

    def lower_bound(rho: dict[int, int]) -> tuple[int, int]:
        split = _displacement_bound(rho)
        total = sum(
            single_quantum_distance(t, lv, tgt) for lv, tgt in rho.items() if lv != tgt
        )
        return max(split, (total + 1) // 2), split

    def dfs(rho: dict[int, int], budget: int) -> bool:
        bound, split = lower_bound(rho)
        if bound > budget:
            return False
        # each pulse flips the permutation parity, so the slack must be even
        if (budget - split) % 2:
            return False
        if budget == 0:
            return True
        displaced = {lv for lv, tgt in rho.items() if lv != tgt}
        grown = displaced | set(cycle)
        for a, b in t.edges:
            if a not in grown and b not in grown:
                continue
            ra, rb = rho.get(a, a), rho.get(b, b)
            rho[a], rho[b] = rb, ra
            out.append((a, b))
            if dfs(rho, budget - 1):
                return True
            out.pop()
            rho[a], rho[b] = ra, rb
        return False

    lower = len(cycle) - 1
    for depth in range(lower, cap + 1):
        out.clear()
        if dfs(dict(target), depth):
            return out
    return (None, None)


def synthesize_fixed_labeling(
    p: Permutation,
    scheme: LabelingScheme,
    t: Topology,
    depth_cap: int | None = None,
) -> PulseSequence:
    """Route a permutation under an arbitrary bijective labeling.

    The emitted product of edge transpositions realizes the population
    permutation.  On the chain the sequence is the bubble factorization
    of the induced level permutation (inversion-count minimal).  On the
    hypercube each orbit is first tried at its lower bound of |S| - 1
    pulses; if some orbit needs more, systems of up to 3 qubits fall
    back to an exact search over the whole group, larger ones to a
    per-orbit deepening search bounded by ``depth_cap``.
    """
    labeling = scheme.labeling
    sigma = labeling.induced(p)
    if t.kind == QUADRUPOLAR_CHAIN:
        raw = _bubble_pulses(sigma)
        return _unscheduled(t.n_qubits, [_pulse(t, labeling, a, b) for a, b in raw])

    cycles = _cycles_of(sigma)
    per_set: list[list[tuple[int, int]]] = []
    exact = True
    for cyc in cycles:
        got = _exact_cycle_pulses(cyc, t)
        if got is None:
            exact = False
            break
        per_set.append(got)
    if exact:
        raw = [pq for chunk in per_set for pq in chunk]
        return _unscheduled(t.n_qubits, [_pulse(t, labeling, a, b) for a, b in raw])

    if t.n_qubits <= 3:
        raw = _cayley_witness(sigma, t)
        return _unscheduled(t.n_qubits, [_pulse(t, labeling, a, b) for a, b in raw])

    # large system: per-orbit search with transit, depth-capped
    n_p = sum(len(c) - 1 for c in cycles)
    cap = depth_cap if depth_cap is not None else 2 * n_p
    raw = []
    for cyc in cycles:
        got = _exact_cycle_pulses(cyc, t)
        if got is None:
            found = _capped_cycle_pulses(cyc, t, cap)
            if isinstance(found, tuple):
                labels = tuple(labeling.label_of(lv) for lv in cyc)
                raise SynthesisError(labels, t.n_qubits, cap, found[1])
            got = found
        raw.extend(got)
    return _unscheduled(t.n_qubits, [_pulse(t, labeling, a, b) for a, b in raw])


def schedule_rounds(seq: PulseSequence) -> PulseSequence:
    """Pack pulses into the earliest round that respects level conflicts.

    A pulse lands one round after the latest earlier pulse it shares a
    level with, so only commuting (level-disjoint) pulses are reordered
    and the product operator never changes.  The latest pulse on a level
    holds that level's highest round, so one pass with a per-level
    record suffices.
    """
    last_round = [0] * (1 << seq.n_qubits)  # 1-based; 0 = level not pulsed yet
    rounds: list[list[Pulse]] = []
    for pulse in seq.pulses:
        a, b = pulse.levels
        r = max(last_round[a], last_round[b])
        if r == len(rounds):
            rounds.append([])
        rounds[r].append(pulse)
        last_round[a] = last_round[b] = r + 1
    return PulseSequence(
        seq.n_qubits,
        tuple(pulse for rnd in rounds for pulse in rnd),
        tuple(len(rnd) for rnd in rounds),
    )


# ---------------------------------------------------------------------------
# pulse-count comparison


# published pulse counts for benchmark operations on the chain, used to
# flag any disagreement with computed minimal routing
def _benchmark_counts() -> dict[tuple[int, ...], dict[str, int]]:
    fa = builtin_operation("fulladder4")
    fa_swap = compose(fa, builtin_operation("swap:2,4", 4))
    return {
        fa.mapping: {"cl": 12, "gray": 10},
        fa_swap.mapping: {"cl": 24, "gray": 26},
    }


# labeling schemes valid on each topology, in report order
SCHEMES = {
    QUADRUPOLAR_CHAIN: ("ols", "cl", "gray"),
    SPIN_HALF_HYPERCUBE: ("pairswap", "parallel", "cl"),
}


@dataclass(frozen=True)
class PulseCountReport:
    """Pulse and round counts per labeling scheme for one operation."""

    topology: str
    counts: dict[str, int]
    rounds: dict[str, int]
    notes: tuple[str, ...] = field(default=())


def scheme_for(
    name: str, d: MaximalSetDecomposition, t: Topology
) -> LabelingScheme:
    """Build the named labeling scheme for a decomposition."""
    if name == "cl":
        return fixed_scheme(conventional_labeling(t))
    if name == "gray":
        if t.kind != QUADRUPOLAR_CHAIN:
            raise ValueError("gray labeling applies to the quadrupolar chain only")
        return fixed_scheme(gray_labeling(t))
    if name == "ols":
        return ols_quadrupolar(d, t)
    if name == "pairswap":
        return relabel_pairswap_spin_half(d, t)
    if name == "parallel":
        return relabel_parallel_spin_half(d, t)
    raise ValueError("unknown labeling scheme {!r}".format(name))


def synthesize_named(
    name: str,
    p: Permutation,
    d: MaximalSetDecomposition,
    t: Topology,
    depth_cap: int | None = None,
) -> tuple[LabelingScheme, PulseSequence]:
    """Labeling scheme plus pulse sequence for one scheme name."""
    scheme = scheme_for(name, d, t)
    if scheme.placements is not None:
        return scheme, synthesize_scheme(d, scheme, t)
    return scheme, synthesize_fixed_labeling(p, scheme, t, depth_cap)


def pulse_count_report(
    p: Permutation, t: Topology, depth_cap: int | None = None
) -> PulseCountReport:
    """Compare pulse counts across the labeling schemes of a topology.

    For benchmark operations with published chain counts, any
    disagreement between the computed minimal routing and the published
    number is flagged in ``notes`` instead of passing silently.
    """
    d = maximal_sets(p)
    counts: dict[str, int] = {}
    rounds: dict[str, int] = {}
    for name in SCHEMES[t.kind]:
        _, seq = synthesize_named(name, p, d, t, depth_cap)
        counts[name] = len(seq)
        rounds[name] = len(schedule_rounds(seq).rounds)
    notes = []
    if t.kind == QUADRUPOLAR_CHAIN:
        expected = _benchmark_counts().get(p.mapping)
        if expected:
            for name, want in expected.items():
                got = counts.get(name)
                if got != want:
                    notes.append(
                        "{} count {} differs from the published benchmark {}".format(
                            name, got, want
                        )
                    )
    return PulseCountReport(t.kind, counts, rounds, tuple(notes))


# ---------------------------------------------------------------------------
# pulse-program text format


def serialize_pulse_program(seq: PulseSequence) -> str:
    """One line per pulse: round, pi_y, levels and the label annotation."""
    lines = []
    for (start, end), rno in zip(seq.round_slices(), itertools.count(1)):
        for pulse in seq.pulses[start:end]:
            lines.append(
                "{}  pi_y  {}  {}  # |{}> <-> |{}>".format(
                    rno,
                    pulse.level_a,
                    pulse.level_b,
                    bit_string(pulse.label_a, seq.n_qubits),
                    bit_string(pulse.label_b, seq.n_qubits),
                )
            )
    return "\n".join(lines)


def parse_pulse_program(text: str, t: Topology, labeling: Labeling) -> PulseSequence:
    """Parse a pulse program back into a sequence.

    Levels must form topology edges; label annotations are restored from
    the labeling, not trusted from the comments.
    """
    entries: list[tuple[int, int, int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[1] != "pi_y":
            raise ValueError("bad pulse line {!r}".format(raw))
        rno, a, b = int(parts[0]), int(parts[2]), int(parts[3])
        entries.append((rno, a, b))
    if not entries:
        return PulseSequence(t.n_qubits, (), ())
    rounds_seen = [r for r, _, _ in entries]
    if rounds_seen != sorted(rounds_seen) or rounds_seen[0] != 1:
        raise ValueError("round indices must be non-decreasing from 1")
    if any(b - a > 1 for a, b in zip(rounds_seen, rounds_seen[1:])):
        raise ValueError("round indices must be contiguous")
    pulses = tuple(_pulse(t, labeling, a, b) for _, a, b in entries)
    sizes = [0] * rounds_seen[-1]
    for r in rounds_seen:
        sizes[r - 1] += 1
    return PulseSequence(t.n_qubits, pulses, tuple(sizes))
