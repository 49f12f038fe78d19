"""Emit transition-selective pi-pulse sequences realizing a permutation.

Placement schemes (optimal chain labeling, hypercube relabelings)
synthesize per maximal set: a chain s_0 ... s_(L-1) on a transition
path needs L - 1 pulses.  On the quadrupolar chain they run along the
path in reverse chain order.  On the hypercube the path is one
non-crossing tree of the set's cycle, and the cube may hold shallower
ones among the same levels, so the set is pulsed as the shallowest
read-out of the tree DP below.  A chain in bipartite Coxeter order is
pulsed as two reflections, the pairs (s_i, s_(L-1-i)) and then the
pairs (s_i, s_(L-i)), which pack into two rounds.  Fixed labelings
(conventional, gray) instead route each state to its destination with a
product of edge transpositions.  On the chain that product is minimal:
the inversion count of the induced level permutation, achieved by
odd-even transposition sort.  On the hypercube an orbit factors into
|S| - 1 pulses exactly when it passes a non-crossing-tree test, an
interval DP whose tables also give those pulses, read out four ways and
kept in the fewest rounds.  A table whose orbits all pass is routed so,
minimal in pulses; any other takes a token-swapping router, and the
count is then an upper bound.  The router swaps in level-disjoint
phases.  When a phase finds no swap, it factors the orbit of the first
misplaced level exactly if that orbit is short and passes the test, and
otherwise rotates a ring of closer neighbours (as its shallowest tree
when that saves rounds) or makes one swap that moves a single
population.  It runs from eight starts: sigma and sigma^-1 reversed,
each conjugated by four cube automorphisms (identity, bit complement,
bit reversal, both) and mapped back.  The hypercube program is the best
of these, never worse than sigma's own in pulses or rounds.  Every step
is polynomial.

Pulses are always pi rotations about y on a single transition.  A pulse
sequence also carries its partition into simultaneous rounds: pulses in
one round touch pairwise disjoint levels, so reordering them never
changes the product operator.  A pulse is the level pair (a, b), a < b,
of its transition; which states it exchanges follows from the
sequence's one labeling.  Routed, placed and parsed pulses all come
from ``_pulses``, one shared pair per transition.  A routed program
repeats each of its transitions many times, so each transition is
built, checked and formatted once: a sequence validates each distinct
pulse once, and the program text formats each distinct pulse, and each
round number, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import eq, gt, xor
from typing import Iterator, Sequence

from .labeler import (
    COXETER,
    LabelingScheme,
    ols_quadrupolar,
    relabel_pairswap_spin_half,
    relabel_parallel_spin_half,
)
from .permutation import (
    MaximalSetDecomposition,
    Permutation,
    bit_string,
    builtin_operation,
    compose,
    cycles,
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
    "PulseSequence",
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
class PulseSequence:
    """An ordered pulse list, under one labeling, partitioned into rounds.

    Each pulse is a pi_y pulse on the transition between the levels
    (a, b), a < b; the labeling says which states it exchanges.
    ``rounds`` holds the round sizes; flattening the rounds in order
    reproduces the pulse list, every round holds at least one pulse and
    every pulsed level lies in [0, 2^N).  Unscheduled sequences have one
    pulse per round.  Whatever the round shape, the checks run in this
    order: the partition, then levels shared within a round (a == b, or
    two pulses of one round), then the pair order, then the level range.
    """

    labeling: Labeling
    pulses: tuple[tuple[int, int], ...]
    rounds: tuple[int, ...]

    @property
    def n_qubits(self) -> int:
        return self.labeling.n_qubits

    def __post_init__(self) -> None:
        if min(self.rounds, default=1) < 1:
            raise ValueError("round sizes must be at least 1")
        if sum(self.rounds) != len(self.pulses):
            raise ValueError("round sizes must partition the pulse list")
        # a routed program repeats its transitions, so each distinct pulse
        # is checked once; two pulses share a level only in a round of two
        # or more, and there is one only when rounds are fewer than pulses
        distinct = set(self.pulses)
        lows, highs = zip(*distinct) if distinct else ((), ())
        if any(map(eq, lows, highs)) or (
            len(self.rounds) < len(self.pulses)
            and any(
                len(set(chain.from_iterable(self.pulses[end - size : end]))) < 2 * size
                for end, size in zip(accumulate(self.rounds), self.rounds)
                if size > 1
            )
        ):
            raise ValueError("pulses within a round must not share a level")
        if any(map(gt, lows, highs)):
            raise ValueError("pulses must list the lower level first")
        # with every pair ordered, the lowest level is a low end, the highest a high end
        if min(lows, default=0) < 0 or max(highs, default=0) >= 1 << self.n_qubits:
            raise ValueError("pulse levels must lie in [0, {})".format(1 << self.n_qubits))

    def __len__(self) -> int:
        return len(self.pulses)


def _unscheduled(labeling: Labeling, pulses: list[tuple[int, int]]) -> PulseSequence:
    return PulseSequence(labeling, tuple(pulses), (1,) * len(pulses))


def _pulse(t: Topology, a: int, b: int) -> tuple[int, int]:
    if a > b:
        a, b = b, a
    if not t.is_edge(a, b):
        raise ValueError("levels ({}, {}) are not a single-quantum transition".format(a, b))
    return (a, b)


def _pulses(t: Topology, pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pulses on these level pairs, in order, one shared tuple per pair.

    Each distinct pair is built and checked once, in order of first
    appearance, so the first pair that is not a transition raises.
    """
    made = {pair: _pulse(t, *pair) for pair in dict.fromkeys(pairs)}
    return list(map(made.__getitem__, pairs))


def synthesize_scheme(
    d: MaximalSetDecomposition, scheme: LabelingScheme, t: Topology
) -> PulseSequence:
    """The pulse sequence for a placement scheme.

    Each chain s_0 ... s_(L-1) lies on the levels its labels carry.  On
    the quadrupolar chain a ``PATH`` chain is pulsed along its path in
    reverse chain order, the pulse on the last level pair first; the
    product realizes the set's cycle up to diagonal phases.  On the
    hypercube a ``PATH`` chain is pulsed as the shallowest tree
    ``_exact_cycle_pulses`` reads off its levels: its path is one such
    tree, so the DP always succeeds, and the set takes at most the path's
    L - 1 rounds.  A ``COXETER`` chain is pulsed as two reflections of
    its order: the pairs (s_i, s_(L-1-i)) for i < L // 2, then
    (s_i, s_(L-i)) for 1 <= i < (L + 1) // 2, each reflection one round
    of disjoint pulses.  Sets are synthesized independently and merged in
    canonical set order; the sequence length is exactly the sum of
    (|S_i| - 1).
    """
    if scheme.style is None:
        raise ValueError("scheme has no placement style; use synthesize_fixed_labeling")
    labeling = scheme.labeling
    to_level = labeling.label_to_level
    pulses: list[tuple[int, int]] = []
    for mset in d.sets:
        levels = tuple(to_level[s] for s in mset)
        if scheme.style == COXETER:
            size = len(levels)
            pairs = [(i, size - 1 - i) for i in range(size // 2)]
            pairs += [(i, size - i) for i in range(1, (size + 1) // 2)]
            pulses.extend(_pulses(t, [(levels[i], levels[j]) for i, j in pairs]))
        elif t.kind == QUADRUPOLAR_CHAIN:
            pairs = [(levels[i], levels[i + 1]) for i in range(len(levels) - 2, -1, -1)]
            pulses.extend(_pulses(t, pairs))
        else:
            tree = _exact_cycle_pulses(levels, t)
            if tree is None:
                raise ValueError("chain levels {} carry no tree of transitions".format(levels))
            pulses.extend(_pulses(t, tree))
    return _unscheduled(labeling, pulses)


# ---------------------------------------------------------------------------
# fixed-labeling routing


def _odd_even_pulses(sigma: tuple[int, ...]) -> list[tuple[int, int]]:
    """Adjacent transpositions realizing sigma on a path, in pulse order.

    Odd-even transposition sort of the one-line form (Habermann 1972):
    phases alternately compare the pairs (i, i + 1) with i even and with
    i odd, and the sort stops after two quiet phases in a row.  Each swap
    removes one inversion, so the count is the inversion count, the
    minimum for adjacent transpositions; the swaps of one phase are
    level-disjoint and at most 2^N phases are needed.
    """
    arr = list(sigma)
    swaps: list[tuple[int, int]] = []
    parity, quiet = 0, 0
    while quiet < 2:
        quiet += 1
        for i in range(parity, len(arr) - 1, 2):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append((i, i + 1))
                quiet = 0
        parity ^= 1
    return swaps


def _displacement(cycle: tuple[int, ...]) -> int:
    """Hypercube steps the populations of a cycle must travel in total."""
    return sum((a ^ b).bit_count() for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _tree_tables(cycle: tuple[int, ...], t: Topology) -> tuple[list[int], ...] | None:
    """The tree DP's tables for one hypercube cycle, or None when it has no tree.

    A cycle factors into exactly len - 1 edge transpositions exactly when
    its levels, on a circle in cycle order, carry a non-crossing spanning
    tree of topology edges, and the tree's edges are then its pulses (the
    tree property of minimal cycle factorizations; Goulden and Yong, JCTA
    2002).  Interval DP over positions l..r in O(k^2 N): N[l][r] when l..r
    carry such a tree, T[l][m] when l..m carry one containing the chord
    (l, m), with T[l][m] = edge(l, m) and N[l][x] and N[x+1][m] for some x,
    and N[l][r] = T[l][m] and N[m][r] for some neighbour m <= r of l.
    Returns the bit sets (row, col, chords): row[l] has bit r and col[r]
    has bit l when N[l][r], chords[l] has bit m when T[l][m]; or None when
    the cycle has no such tree.
    """
    k = len(cycle)
    # each pulse moves two populations one step, so k - 1 pulses move 2k - 2
    if _displacement(cycle) > 2 * k - 2:
        return None
    pos = {lv: i for i, lv in enumerate(cycle)}
    row = [0] * k
    col = [1 << r for r in range(k)]
    chords = [0] * k
    for l in range(k - 1, -1, -1):
        near = 0  # bit m for each neighbour on a later position m
        for v in t.neighbors[cycle[l]]:
            m = pos.get(v, l)
            if m > l:
                near |= 1 << m
        n_l, t_l = 1 << l, 0  # row[l] and chords[l] as they grow with r
        # no chord, so no N[l][r], ends before l's first later neighbour
        for r in range((near & -near).bit_length() - 1 if near else k, k):
            c = col[r]
            if near >> r & 1 and n_l & c >> 1:
                t_l |= 1 << r
            if t_l & c:
                n_l |= 1 << r
                col[r] = c | 1 << l
        row[l], chords[l] = n_l, t_l
    if not row[0] >> (k - 1) & 1:
        return None
    return row, col, chords


def _read_tree(
    tables: tuple[list[int], ...], high_m: bool, high_x: bool
) -> list[tuple[int, int]]:
    """One tree of the DP tables as position pairs (l, m), l < m, in pulse order.

    N[l][r] emits N[m][r], N[l][x], the pulse (l, m), then N[x+1][m],
    for the highest or lowest valid m (a set bit of chords[l] & col[r])
    and the highest or lowest valid x (a set bit of row[l] & col[m] >> 1).
    """
    row, col, chords = tables
    k = len(row)
    out: list[tuple[int, int]] = []
    # a stack of non-empty N intervals (l, r) and of chords (~l, m) to
    # pulse, not recursion: k reaches 2^N
    todo = [(0, k - 1)] if k > 1 else []
    while todo:
        l, r = todo.pop()
        if l < 0:
            out.append((~l, r))
            continue
        while l < r:
            # bits & -bits keeps the lowest set bit
            bits = chords[l] & col[r]
            m = (bits if high_m else bits & -bits).bit_length() - 1
            bits = row[l] & col[m] >> 1
            x = (bits if high_x else bits & -bits).bit_length() - 1
            if x + 1 < m:
                todo.append((x + 1, m))
            todo.append((~l, m))
            if l < x:
                todo.append((l, x))
            l = m  # N[m][r] comes first, so it is expanded at once
    return out


def _exact_cycle_pulses(
    cycle: tuple[int, ...], t: Topology
) -> list[tuple[int, int]] | None:
    """Factor one hypercube cycle into exactly len - 1 edge transpositions.

    The pulses are the shallowest tree ``_shallowest_tree`` reads off the
    tables of ``_tree_tables``.  Returns None when the cycle needs more
    pulses on this topology.
    """
    tables = _tree_tables(cycle, t)
    return None if tables is None else _shallowest_tree(cycle, tables)


def _shallowest_tree(
    cycle: tuple[int, ...], tables: tuple[list[int], ...]
) -> list[tuple[int, int]]:
    """The shallowest of four trees read off a cycle's DP tables, as level pairs.

    The tree is read out four ways: highest or lowest m, times highest or
    lowest x, the uniform pairs first.  Each read-out's rounds are counted
    with ``_round_numbers``, and the one with the fewest wins, the earlier
    on a tie, so the (highest, highest) tree stays unless another is
    shallower.  The search stops at a read-out whose rounds equal the
    cycle's largest Hamming step, which no program beats.
    """
    farthest = max(map(int.bit_count, map(xor, cycle, cycle[1:] + cycle[:1])))
    orders = ((True, True), (False, False), (True, False), (False, True))
    best: list[tuple[int, int]] = []
    least = len(cycle)
    for high_m, high_x in orders:
        tree = _read_tree(tables, high_m, high_x)
        # a tree fixes each choice of m and x, so when the lowest choices
        # give the highest choices' tree, every choice had one option and
        # every read-out gives that tree
        if not high_m and not high_x and tree == best:
            break
        rounds = max(_round_numbers(tree, len(cycle)), default=0)
        if rounds < least:
            best, least = tree, rounds
        if least == farthest:
            break
    pulses = []
    for l, m in best:
        # a conditional, not min() and max(): this runs once per tree pulse
        a, b = cycle[l], cycle[m]
        pulses.append((a, b) if a < b else (b, a))
    return pulses


# the router factors a leftover orbit exactly only up to this many levels:
# the tree DP is O(k^2 N), and an orbit of 2^N levels at N = 10 would
# take seconds; no orbit is longer at N <= 6
_ORBIT_CAP = 64


def _route_tokens(sigma: Sequence[int], t: Topology) -> list[tuple[int, int]]:
    """Edge transpositions carrying every population home on the hypercube.

    Token swapping after Miltzow et al. (ESA 2016), in level-disjoint
    phases of happy swaps (both populations move closer), as in parallel
    token swapping (Kawahara, Saitoh and Yoshinaka, WALCOM 2017).  A
    phase scans levels in ascending order and swaps each level a not yet
    used in it with the neighbour across the lowest bit of a ^ goal[a]
    that is unused and needs that bit too.  The first phase scans every
    misplaced level, each later one the misplaced levels the previous
    step touched: a pair turns happy only when one of its populations
    moves, and a happy pair skipped in a phase has a used level, so a
    phase without a swap proves there is no happy swap.  Then the orbit
    of the first misplaced level, when it closes within ``_ORBIT_CAP``
    levels and passes the tree test, is factored exactly
    (``_exact_cycle_pulses``), which settles it in |S| - 1 pulses.
    Otherwise closer-neighbour pointers from that level either close a
    ring or reach a settled population, which takes one unhappy swap.
    A ring r_0 ... r_(L-1) moves the population on r_i to r_(i+1), so it
    is a cycle of cube edges, its path one tree; a ring of more than
    four levels is rotated as its shallowest tree when that takes fewer
    than the path's L - 1 rounds.  (A 4-ring's chords are no cube edges,
    so its trees are paths.)  Happy swaps, finished orbits and rings
    shorten the total distance.  An unhappy swap keeps it, unsettles one
    population and settles none (the level entered is the settled
    population's home), so runs of them are finite and the router always
    ends.
    """
    goal = list(sigma)  # goal[lv]: destination of the population now on lv
    out: list[tuple[int, int]] = []

    def swap(a: int, b: int) -> None:
        goal[a], goal[b] = goal[b], goal[a]
        out.append((a, b) if a < b else (b, a))

    # the bits a population on lv must still flip are lv ^ goal[lv], taken
    # lowest first; ``need & -need`` is the lowest of them
    todo = [lv for lv, g in enumerate(goal) if g != lv]
    while True:
        while todo:
            used: set[int] = set()
            for a in todo:
                if a in used:
                    continue
                need = a ^ goal[a]
                while need:
                    bit = need & -need
                    b = a ^ bit
                    if b not in used and (b ^ goal[b]) & bit:
                        # swap(a, b), inline: this loop carries the router
                        goal[a], goal[b] = goal[b], goal[a]
                        out.append((a, b) if a < b else (b, a))
                        used.add(a)
                        used.add(b)
                        break
                    need ^= bit
            todo = sorted([lv for lv in used if goal[lv] != lv])
        start = next((lv for lv, g in enumerate(goal) if g != lv), None)
        if start is None:
            return out
        orbit, lv = [start], goal[start]
        while lv != start and len(orbit) < _ORBIT_CAP:
            orbit.append(lv)
            lv = goal[lv]
        tree = _exact_cycle_pulses(tuple(orbit), t) if lv == start else None
        if tree is not None:
            # the orbit settles and touches no other level: no phase follows
            for a, b in tree:
                swap(a, b)
            continue
        path, seen = [start], {start: 0}
        while True:
            # a closer neighbour, one holding a misplaced population if any
            u = path[-1]
            need = u ^ goal[u]
            v = u ^ (need & -need)
            while need:
                w = u ^ (need & -need)
                if goal[w] != w:
                    v = w
                    break
                need &= need - 1
            if goal[v] == v:
                swap(u, v)
                touched = [u, v]
                break
            if v in seen:
                ring = touched = path[seen[v] :]
                pairs = list(zip(ring, ring[1:]))[::-1]
                if len(ring) > 4:
                    tree = _exact_cycle_pulses(tuple(ring), t)
                    if max(_round_numbers(tree, len(goal))) < len(pairs):
                        pairs = tree
                for a, b in pairs:
                    swap(a, b)
                break
            seen[v] = len(path)
            path.append(v)
        todo = sorted(lv for lv in touched if goal[lv] != lv)


def _hypercube_bounds(
    sigma: tuple[int, ...], orbits: list[tuple[int, ...]], exact: Sequence[object]
) -> tuple[int, int]:
    """Lower bounds on the pulses and the rounds of any program for sigma.

    Pulses: each pulse moves two populations one step, so a program takes
    at least half the summed Hamming distance, and at least 2^N - #cycles.
    Every transposition factorization of sigma has the parity of
    2^N - #cycles, and one that short only splits cycles, so it exists
    only when every orbit passes the tree test (``exact`` holds None when
    some orbit fails it); otherwise the parity adds 2.  Rounds: a
    population moves one step per round, so as many as the largest
    Hamming distance.  ``_hypercube_program`` stops its search at a
    program that meets both.
    """
    split = len(sigma) - len(orbits)
    pulses = max(split, sum(map(_displacement, orbits)) // 2)
    pulses += (pulses - split) % 2
    if pulses == split and None in exact:
        pulses += 2
    return pulses, max((lv ^ dst).bit_count() for lv, dst in enumerate(sigma))


def _hypercube_candidates(
    sigma: tuple[int, ...], t: Topology
) -> Iterator[list[tuple[int, int]]]:
    """The token router's programs for sigma, one per start.

    The router runs on eight permutations that a program for sigma can be
    read off: g sigma g and g sigma^-1 g for four cube automorphisms g,
    the identity, the bit complement x -> x ^ (2^N - 1), the bit reversal
    and the reversal then the complement.  Each g is an involution, so a
    program for g rho g maps back through g, pulse by pulse, to one for
    rho; and a program for sigma^-1 reversed realizes sigma because each
    transposition is its own inverse.
    """
    size = len(sigma)
    inverse = [0] * size
    for lv, dst in enumerate(sigma):
        inverse[dst] = lv
    flip = size - 1

    def symmetries() -> Iterator[Sequence[int]]:
        # each built only when the search reaches it; it stops at the bounds
        yield range(size)
        yield [lv ^ flip for lv in range(size)]
        rev = [int(bit_string(lv, t.n_qubits)[::-1], 2) for lv in range(size)]
        yield rev
        yield [lv ^ flip for lv in rev]

    for g in symmetries():
        for rho, backward in ((sigma, False), (inverse, True)):
            pulses = _route_tokens([g[rho[g[lv]]] for lv in range(size)], t)
            # g keeps cube edges but may swap the order of their ends
            pulses = [(g[a], g[b]) if g[a] < g[b] else (g[b], g[a]) for a, b in pulses]
            yield pulses[::-1] if backward else pulses


def _hypercube_program(sigma: tuple[int, ...], t: Topology) -> list[tuple[int, int]]:
    """Route sigma orbit by orbit, or by the best start of the token router.

    Each orbit takes the tree test once.  When every orbit passes, the
    orbits' trees form a program minimal in pulses, which is kept; its
    orbits touch disjoint levels, so it takes as many rounds as its
    deepest orbit, whose tree is the shallowest of four read-outs.  Only
    then are trees read out; otherwise ``_hypercube_bounds`` needs only
    the first failing orbit, and the tests stop there.  Then the eight
    starts of ``_hypercube_candidates`` compete: the first is sigma's own
    program, and among programs with at most its pulses and at most its
    rounds, the one with the fewest (pulses, rounds) wins, the earlier on
    a tie.  The search stops at a program that meets both
    ``_hypercube_bounds``.
    """
    size = len(sigma)
    orbits = cycles(sigma)
    tables = []
    for cyc in orbits:
        tables.append(_tree_tables(cyc, t))
        if tables[-1] is None:
            break  # one failing orbit is all the bounds need to know
    else:
        return [
            pulse for cyc, got in zip(orbits, tables) for pulse in _shallowest_tree(cyc, got)
        ]
    bounds = _hypercube_bounds(sigma, orbits, tables)

    def cost(pulses: list[tuple[int, int]]) -> tuple[int, int]:
        return len(pulses), max(_round_numbers(pulses, size), default=0)

    found = _hypercube_candidates(sigma, t)
    best = next(found)
    limit = best_cost = cost(best)
    while best_cost != bounds:
        pulses = next(found, None)
        if pulses is None:
            break
        got = cost(pulses)
        if got < best_cost and got[1] <= limit[1]:
            best, best_cost = pulses, got
    return best


def synthesize_fixed_labeling(
    p: Permutation, scheme: LabelingScheme, t: Topology
) -> PulseSequence:
    """Route a permutation under an arbitrary bijective labeling.

    The emitted product of edge transpositions realizes the population
    permutation.  On the chain the sequence is the odd-even transposition
    sort of the induced level permutation (inversion-count minimal, and
    each phase of level-disjoint swaps can share one round).  On the
    hypercube, when every orbit passes the non-crossing-tree DP, each
    orbit is factored exactly into |S| - 1 pulses, the shallowest of four
    trees read off the DP's tables, which is minimal.  Otherwise the
    phased token-swapping router runs on eight starts (sigma and
    sigma^-1, each conjugated by the identity, the bit complement, the
    bit reversal and both), each mapped back to a program for sigma.  The
    router factors leftover orbits exactly where they pass the DP, and
    rotates long rings as trees where that saves rounds.  Sigma's own
    program is the first start's; another start's program replaces it
    only when no worse in pulses or rounds and better in one.  The count
    is then an upper bound.  Every step is polynomial, so routing always
    succeeds.
    """
    labeling = scheme.labeling
    sigma = labeling.induced(p)
    if t.kind == QUADRUPOLAR_CHAIN:
        raw = _odd_even_pulses(sigma)
    else:
        raw = _hypercube_program(sigma, t)
    return _unscheduled(labeling, _pulses(t, raw))


def _round_numbers(pulses: Sequence[Sequence[int]], level_count: int) -> list[int]:
    """The round, from 1, of each pulse packed as early as level conflicts allow.

    A pulse lands one round after the latest earlier pulse it shares a
    level with.  The latest pulse on a level holds that level's highest
    round, so one pass with a per-level record suffices.
    """
    last_round = [0] * level_count  # 0 = level not pulsed yet
    numbers: list[int] = []
    for pulse in pulses:
        a, b = pulse[0], pulse[1]
        ra, rb = last_round[a], last_round[b]
        # a conditional, not max(): this loop runs once per pulse of every
        # scheduled program and every ranked candidate
        r = last_round[a] = last_round[b] = (ra if ra > rb else rb) + 1
        numbers.append(r)
    return numbers


def schedule_rounds(seq: PulseSequence) -> PulseSequence:
    """Pack pulses into the rounds ``_round_numbers`` gives them.

    Only commuting (level-disjoint) pulses are reordered, so the product
    operator never changes; within a round pulses keep their order.
    """
    numbers = _round_numbers(seq.pulses, 1 << seq.n_qubits)
    rounds: list[list[tuple[int, int]]] = [[] for _ in range(max(numbers, default=0) + 1)]
    for r, pulse in zip(numbers, seq.pulses):
        rounds[r].append(pulse)
    del rounds[0]  # round numbers start at 1
    return PulseSequence(
        seq.labeling,
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


# labeling schemes valid on each topology, in report order; the first is
# the topology's default
SCHEMES = {
    QUADRUPOLAR_CHAIN: ("ols", "cl", "gray"),
    SPIN_HALF_HYPERCUBE: ("pairswap", "parallel", "cl"),
}


@dataclass(frozen=True)
class PulseCountReport:
    """The pulse and round counts per labeling scheme for one operation."""

    counts: dict[str, int]
    rounds: dict[str, int]
    notes: tuple[str, ...] = field(default=())


def scheme_for(
    name: str, d: MaximalSetDecomposition, t: Topology
) -> LabelingScheme:
    """Build the named labeling scheme for a decomposition."""
    if name == "cl":
        return LabelingScheme(conventional_labeling(t))
    if name == "gray":
        if t.kind != QUADRUPOLAR_CHAIN:
            raise ValueError("gray labeling applies to the quadrupolar chain only")
        return LabelingScheme(gray_labeling(t))
    if name == "ols":
        return ols_quadrupolar(d, t)
    if name == "pairswap":
        return relabel_pairswap_spin_half(d, t)
    if name == "parallel":
        return relabel_parallel_spin_half(d, t)
    raise ValueError("unknown labeling scheme {!r}".format(name))


def synthesize_named(
    name: str, p: Permutation, d: MaximalSetDecomposition, t: Topology
) -> tuple[LabelingScheme, PulseSequence]:
    """Labeling scheme plus pulse sequence for one scheme name."""
    scheme = scheme_for(name, d, t)
    if scheme.style is None:
        return scheme, synthesize_fixed_labeling(p, scheme, t)
    return scheme, synthesize_scheme(d, scheme, t)


def pulse_count_report(p: Permutation, t: Topology) -> PulseCountReport:
    """Compare pulse counts across the labeling schemes of a topology.

    For benchmark operations with published chain counts, any
    disagreement between the computed minimal routing and the published
    number is flagged in ``notes`` instead of passing silently.  Rounds
    are those ``schedule_rounds`` would pack, counted by ``_round_numbers``.
    """
    d = maximal_sets(p)
    counts: dict[str, int] = {}
    rounds: dict[str, int] = {}
    for name in SCHEMES[t.kind]:
        _, seq = synthesize_named(name, p, d, t)
        counts[name] = len(seq)
        rounds[name] = max(_round_numbers(seq.pulses, t.level_count), default=0)
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
    return PulseCountReport(counts, rounds, tuple(notes))


# ---------------------------------------------------------------------------
# pulse-program text format


def serialize_pulse_program(seq: PulseSequence) -> str:
    """One line per pulse: round, pi_y, levels and the labels they carry."""
    kets = [bit_string(label, seq.n_qubits) for label in seq.labeling.level_to_label]
    # the text after the round is formatted once per distinct pulse
    tails: dict[tuple[int, int], str] = {}
    for pulse in set(seq.pulses):
        a, b = pulse
        tails[pulse] = "{}  {}  # |{}> <-> |{}>".format(a, b, kets[a], kets[b])
    lines: list[str] = []
    end = 0
    for rno, size in enumerate(seq.rounds, 1):
        start, end = end, end + size
        head = "{}  pi_y  ".format(rno)
        lines += [head + tails[pulse] for pulse in seq.pulses[start:end]]
    return "\n".join(lines)


def parse_pulse_program(text: str, t: Topology, labeling: Labeling) -> PulseSequence:
    """Parse a pulse program back into a sequence.

    Levels must form topology edges.  The sequence carries ``labeling``,
    so which states each pulse exchanges comes from it, never from the
    comments.
    """
    rounds_seen: list[int] = []
    pairs: list[tuple[int, int]] = []
    for raw in text.splitlines():
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) != 4 or parts[1] != "pi_y":
            raise ValueError("bad pulse line {!r}".format(raw))
        rounds_seen.append(int(parts[0]))
        pairs.append((int(parts[2]), int(parts[3])))
    if not pairs:
        return PulseSequence(labeling, (), ())
    if rounds_seen != sorted(rounds_seen) or rounds_seen[0] != 1:
        raise ValueError("round indices must be non-decreasing from 1")
    if any(b - a > 1 for a, b in zip(rounds_seen, rounds_seen[1:])):
        raise ValueError("round indices must be contiguous")
    pulses = tuple(_pulses(t, pairs))
    sizes = [0] * rounds_seen[-1]
    for r in rounds_seen:
        sizes[r - 1] += 1
    return PulseSequence(labeling, pulses, tuple(sizes))
