import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelpulse import (
    Permutation,
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    build_topology,
    builtin_operation,
    compose,
    conventional_labeling,
    count_optimal_labelings,
    enumerate_ols_quadrupolar,
    maximal_sets,
    min_pulse_count,
    ols_quadrupolar,
    parse_labeling,
    relabel_pairswap_spin_half,
    relabel_parallel_spin_half,
    serialize_labeling,
    schedule_rounds,
    synthesize_scheme,
    verify_permutation,
)
from levelpulse.labeler import COXETER, PATH, _embed_chains, _multi_sets


def random_permutation(n_qubits, rng):
    m = list(range(1 << n_qubits))
    rng.shuffle(m)
    return Permutation(n_qubits, tuple(m))


def chain_levels(scheme, mset):
    # a placement scheme's labeling puts each chain on these levels
    return tuple(scheme.labeling.level_of(s) for s in mset)


def chain4():
    return build_topology(QUADRUPOLAR_CHAIN, 4)


def cube4():
    return build_topology(SPIN_HALF_HYPERCUBE, 4)


def test_ols_places_largest_multi_set_first(full_adder):
    d = maximal_sets(full_adder)
    t = chain4()
    scheme = ols_quadrupolar(d, t)
    # the four states of the first 4-cycle occupy the top levels in chain order
    assert scheme.style == PATH
    assert chain_levels(scheme, d.sets[4]) == (0, 1, 2, 3)
    labels = [scheme.labeling.label_bits(lv) for lv in range(4)]
    assert labels == ["0100", "0110", "0101", "0111"]
    seq = synthesize_scheme(d, scheme, t)
    assert len(seq) == 8


def test_ols_identity_returns_conventional():
    d = maximal_sets(Permutation.identity(4))
    t = chain4()
    scheme = ols_quadrupolar(d, t)
    assert scheme.labeling == conventional_labeling(t)


def test_ols_composed_pulse_count(full_adder):
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    d = maximal_sets(q)
    t = chain4()
    seq = synthesize_scheme(d, ols_quadrupolar(d, t), t)
    assert len(seq) == 12


def test_ols_multi_sets_contiguous_random():
    rng = random.Random(7)
    for n in (2, 3):
        t = build_topology(QUADRUPOLAR_CHAIN, n)
        for _ in range(50):
            p = random_permutation(n, rng)
            d = maximal_sets(p)
            scheme = ols_quadrupolar(d, t)
            assert sorted(scheme.labeling.level_to_label) == list(range(t.level_count))
            assert scheme.style == PATH
            for mset in d.sets:
                if len(mset) > 1:
                    levels = chain_levels(scheme, mset)
                    assert levels == tuple(range(levels[0], levels[0] + len(mset)))


def test_ols_requires_chain(full_adder):
    d = maximal_sets(full_adder)
    with pytest.raises(ValueError, match="chain"):
        ols_quadrupolar(d, cube4())


def test_enumerate_single_qubit_identity():
    d = maximal_sets(Permutation.identity(1))
    t = build_topology(QUADRUPOLAR_CHAIN, 1)
    schemes = list(enumerate_ols_quadrupolar(d, t))
    assert len(schemes) == 2


def test_enumerate_count_matches_formula_all_two_qubit_tables():
    t = build_topology(QUADRUPOLAR_CHAIN, 2)
    for mapping in itertools.permutations(range(4)):
        p = Permutation(2, mapping)
        d = maximal_sets(p)
        schemes = list(enumerate_ols_quadrupolar(d, t))
        assert len(schemes) == count_optimal_labelings(d)
        # all schemes distinct as labelings
        assert len({s.labeling.level_to_label for s in schemes}) == len(schemes)


def test_enumerate_count_matches_formula_random_three_qubit():
    rng = random.Random(8)
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    for _ in range(6):
        p = random_permutation(3, rng)
        d = maximal_sets(p)
        count = sum(1 for _ in enumerate_ols_quadrupolar(d, t))
        assert count == count_optimal_labelings(d)


def inversions(sigma):
    return sum(x > y for i, x in enumerate(sigma) for y in sigma[i + 1 :])


def test_optimal_chain_labelings_brute_force_three_qubits():
    # all 8! chain labelings: those whose induced level permutation has
    # sum(|S| - 1) inversions number M! * prod |S| * 2^(|S| - 2) over the
    # sets with |S| >= 2, more than the enumerated family's M! * 2^k once a
    # set has 3 or more states
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    tables = {
        (1, 2, 3, 4, 5, 0, 7, 6): (384, 8),  # sets of 6 and 2
        (1, 2, 3, 4, 5, 6, 7, 0): (512, 2),  # one 8-cycle
        (1, 2, 0, 4, 3, 5, 6, 7): (1440, 480),  # sets of 3 and 2, three fixed
    }
    for mapping, (optimal, family) in tables.items():
        p = Permutation(3, mapping)
        d = maximal_sets(p)
        sizes = [len(s) for s in d.sets if len(s) > 1]
        formula = math.factorial(len(d.sets)) * math.prod(k << (k - 2) for k in sizes)
        assert formula == optimal
        assert count_optimal_labelings(d) == family
        best = min_pulse_count(d)
        hits = 0
        for labels in itertools.permutations(range(8)):
            level_of = [0] * 8
            for level, label in enumerate(labels):
                level_of[label] = level
            hits += inversions([level_of[mapping[label]] for label in labels]) == best
        assert hits == optimal
        # the family is a subset of the optimal labelings
        for scheme in enumerate_ols_quadrupolar(d, t):
            assert inversions(scheme.labeling.induced(p)) == best


def test_enumerate_respects_limit(full_adder):
    d = maximal_sets(full_adder)
    schemes = list(enumerate_ols_quadrupolar(d, chain4(), limit=10))
    assert len(schemes) == 10


def test_enumerate_limit_validation(full_adder):
    d = maximal_sets(full_adder)
    with pytest.raises(ValueError, match="limit"):
        next(enumerate_ols_quadrupolar(d, chain4(), limit=0))


def test_enumerated_schemes_keep_chains_adjacent():
    rng = random.Random(23)
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    for _ in range(10):
        p = random_permutation(3, rng)
        d = maximal_sets(p)
        for scheme in enumerate_ols_quadrupolar(d, t, limit=48):
            assert scheme.style == PATH
            for mset in d.sets:
                levels = chain_levels(scheme, mset)
                for u, v in zip(levels, levels[1:]):
                    assert t.is_edge(u, v)


def test_pairswap_full_adder(full_adder):
    d = maximal_sets(full_adder)
    t = cube4()
    scheme = relabel_pairswap_spin_half(d, t)
    lab = scheme.labeling
    # the chain neighbours that conventional labeling leaves unconnected
    # become edge-connected
    assert t.is_edge(lab.level_of(0b0101), lab.level_of(0b0110))
    assert t.is_edge(lab.level_of(0b1001), lab.level_of(0b1010))
    seq = synthesize_scheme(d, scheme, t)
    assert len(seq) == 8


def test_pairswap_identity_is_conventional():
    d = maximal_sets(Permutation.identity(4))
    t = cube4()
    scheme = relabel_pairswap_spin_half(d, t)
    assert scheme.labeling == conventional_labeling(t)


def test_pairswap_chains_edge_connected_random():
    rng = random.Random(99)
    styles = set()
    for n in (2, 3):
        t = build_topology(SPIN_HALF_HYPERCUBE, n)
        for _ in range(60):
            p = random_permutation(n, rng)
            d = maximal_sets(p)
            scheme = relabel_pairswap_spin_half(d, t)
            seq = synthesize_scheme(d, scheme, t)
            styles.add(scheme.style)
            if scheme.style == PATH:
                for mset in d.sets:
                    levels = chain_levels(scheme, mset)
                    for u, v in zip(levels, levels[1:]):
                        assert t.is_edge(u, v)
            else:
                # a dead end: every chain on a Gray segment in coxeter order
                assert scheme.style == COXETER
                assert list(seq.pulses) == coxeter_pulses(d, scheme, t)
                assert len(schedule_rounds(seq).rounds) <= 2
            assert len(seq) == min_pulse_count(d)
    # the greedy descent embeds most of these tables and dead-ends on some
    assert styles == {PATH, COXETER}


def test_pairswap_requires_hypercube(full_adder):
    d = maximal_sets(full_adder)
    with pytest.raises(ValueError, match="hypercube"):
        relabel_pairswap_spin_half(d, chain4())


def test_parallel_full_adder_round_structure(full_adder):
    d = maximal_sets(full_adder)
    t = cube4()
    scheme = relabel_parallel_spin_half(d, t)
    assert scheme.style == COXETER
    for mset in d.sets:
        if len(mset) == 4:
            path = coxeter_path(chain_levels(scheme, mset))
            assert all(t.is_edge(u, v) for u, v in zip(path, path[1:]))
    seq = synthesize_scheme(d, scheme, t)
    assert len(seq) == 8
    assert schedule_rounds(seq).rounds == (6, 2)


def test_parallel_identity_is_conventional():
    d = maximal_sets(Permutation.identity(4))
    t = cube4()
    scheme = relabel_parallel_spin_half(d, t)
    assert scheme.labeling == conventional_labeling(t)


def test_parallel_random_small_systems():
    rng = random.Random(5)
    for n in (2, 3):
        t = build_topology(SPIN_HALF_HYPERCUBE, n)
        for _ in range(40):
            p = random_permutation(n, rng)
            d = maximal_sets(p)
            scheme = relabel_parallel_spin_half(d, t)
            assert len(synthesize_scheme(d, scheme, t)) == min_pulse_count(d)


def coxeter_path(levels):
    # chain element j sits on path position 2j while 2j < L, then on 2(L - 1 - j) + 1
    size = len(levels)
    path = [None] * size
    for j, level in enumerate(levels):
        path[2 * j if 2 * j < size else 2 * (size - 1 - j) + 1] = level
    return tuple(path)


def coxeter_pulses(d, scheme, t):
    # every chain on a transition path in coxeter order, pulsed as the
    # even-position path edges, then the odd ones
    expected = []
    for mset in d.sets:
        levels = coxeter_path(chain_levels(scheme, mset))
        edges = list(zip(levels, levels[1:]))
        edges = edges[0::2] + edges[1::2]
        assert all(t.is_edge(u, v) for u, v in edges)
        expected += [tuple(sorted(edge)) for edge in edges]
    return expected


@pytest.mark.parametrize("relabel", [relabel_pairswap_spin_half, relabel_parallel_spin_half])
@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1))
def test_hypercube_placement_random_tables(relabel, n, seed):
    p = random_permutation(n, random.Random(seed))
    d = maximal_sets(p)
    t = build_topology(SPIN_HALF_HYPERCUBE, n)
    scheme = relabel(d, t)
    seq = synthesize_scheme(d, scheme, t)
    assert len(seq) == min_pulse_count(d)
    scheduled = schedule_rounds(seq)
    assert verify_permutation(scheduled, p).passed
    if relabel is relabel_parallel_spin_half:
        assert scheme.style == COXETER
    if scheme.style == COXETER:
        # parallel, or a pairswap dead end: every chain on a transition path
        # in coxeter order, so two rounds at most
        assert list(seq.pulses) == coxeter_pulses(d, scheme, t)
        assert len(scheduled.rounds) == max(min(len(mset) - 1, 2) for mset in d.sets)
    else:
        # every chain on a transition path in chain order, pulsed as a tree
        # of cube edges among its own levels: never deeper than the path's
        # |S| - 1 rounds, and no shallower than the farthest population moves
        assert scheme.style == PATH
        end = 0
        for mset in d.sets:
            levels = chain_levels(scheme, mset)
            assert all(t.is_edge(u, v) for u, v in zip(levels, levels[1:]))
            start, end = end, end + len(mset) - 1
            assert all(
                t.is_edge(*pulse) and {*pulse} <= {*levels}
                for pulse in seq.pulses[start:end]
            )
        assert len(scheduled.rounds) <= max(len(mset) - 1 for mset in d.sets)
        sigma = scheme.labeling.induced(p)
        assert len(scheduled.rounds) >= max((lv ^ dst).bit_count() for lv, dst in enumerate(sigma))


def gray(k):
    return k ^ (k >> 1)


def incrementers6():
    # x1 = 0: increment the low five bits (one 32-cycle);
    # x1 = 1: increment the low two bits (eight 4-cycles)
    def step(x):
        return (x & ~3) | ((x + 1) & 3) if x & 32 else (x + 1) & 31

    return Permutation(6, tuple(step(x) for x in range(64)))


def test_pairswap_dead_end_falls_back_to_gray_coxeter():
    d = maximal_sets(incrementers6())
    t = build_topology(SPIN_HALF_HYPERCUBE, 6)
    assert _embed_chains(d, t, _multi_sets(d)) is None
    scheme = relabel_pairswap_spin_half(d, t)
    assert scheme.style == COXETER
    assert scheme == relabel_parallel_spin_half(d, t)
    big, *quads = [chain_levels(scheme, m) for m in d.sets if len(m) > 1]
    # largest first on consecutive Gray positions, each in coxeter order
    path = [gray(k) for k in range(32)]
    assert big == tuple(path[0::2] + path[1::2][::-1])
    for j, levels in enumerate(quads):
        path = [gray(k) for k in range(32 + 4 * j, 36 + 4 * j)]
        assert levels == tuple(path[0::2] + path[1::2][::-1])
    assert len(schedule_rounds(synthesize_scheme(d, scheme, t)).rounds) == 2


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_pairswap_coxeter_exactly_on_dead_ends(n, seed):
    p = random_permutation(n, random.Random(seed))
    d = maximal_sets(p)
    t = build_topology(SPIN_HALF_HYPERCUBE, n)
    scheme = relabel_pairswap_spin_half(d, t)
    dead_end = _embed_chains(d, t, _multi_sets(d)) is None
    assert scheme.style == (COXETER if dead_end else PATH)
    seq = schedule_rounds(synthesize_scheme(d, scheme, t))
    assert len(seq) == sum(len(mset) - 1 for mset in d.sets)
    assert verify_permutation(seq, p).passed
    if dead_end:
        # one round of disjoint swaps is an involution, so a set of three
        # or more states needs the second round
        assert len(seq.rounds) <= 2
        assert (len(seq.rounds) == 2) == any(len(mset) >= 3 for mset in d.sets)


@pytest.mark.parametrize("second, pulses, rounds", [(None, 8, 3), ("swap:2,4", 12, 4)])
def test_pairswap_paper_tables_embed_greedily(full_adder, second, pulses, rounds):
    # the adder and adder then swap:2,4 never reach the Gray fallback: their
    # chains stay near conventional labeling, pulsed as shallow trees
    p = full_adder if second is None else compose(full_adder, builtin_operation(second, 4))
    d = maximal_sets(p)
    t = cube4()
    assert _embed_chains(d, t, _multi_sets(d)) is not None
    scheme = relabel_pairswap_spin_half(d, t)
    assert scheme.style == PATH
    seq = schedule_rounds(synthesize_scheme(d, scheme, t))
    assert (len(seq), len(seq.rounds)) == (pulses, rounds)
    assert verify_permutation(seq, p).passed


def test_parallel_dead_end_puts_4_cycles_on_gray_squares():
    d = maximal_sets(incrementers6())
    t = build_topology(SPIN_HALF_HYPERCUBE, 6)
    scheme = relabel_parallel_spin_half(d, t)
    assert scheme.style == COXETER
    big, *quads = [chain_levels(scheme, m) for m in d.sets if len(m) > 1]
    # largest first on consecutive Gray positions, each in coxeter order
    path = [gray(k) for k in range(32)]
    assert big == tuple(path[0::2] + path[1::2][::-1])
    for j, levels in enumerate(quads):
        v1, v2, v3, v4 = (gray(k) for k in range(32 + 4 * j, 36 + 4 * j))
        assert levels == (v1, v3, v4, v2)
    assert len(schedule_rounds(synthesize_scheme(d, scheme, t)).rounds) == 2


def test_labeling_table_round_trip(full_adder):
    d = maximal_sets(full_adder)
    for t, builder in ((chain4(), ols_quadrupolar), (cube4(), relabel_pairswap_spin_half)):
        scheme = builder(d, t)
        text = serialize_labeling(scheme.labeling, t)
        assert parse_labeling(text, t) == scheme.labeling


def test_labeling_table_chain_has_m_column():
    t = build_topology(QUADRUPOLAR_CHAIN, 2)
    text = serialize_labeling(conventional_labeling(t), t)
    assert text.splitlines()[0] == "0  +3/2  00"
    assert text.splitlines()[3] == "3  -3/2  11"


@pytest.mark.parametrize(
    "kind, text",
    [
        (SPIN_HALF_HYPERCUBE, "0 00\n1 01\n2 10"),
        (SPIN_HALF_HYPERCUBE, "0 00\n0 01\n1 10\n2 11"),
        (SPIN_HALF_HYPERCUBE, "0 000\n1 001\n2 010\n3 011"),
        (SPIN_HALF_HYPERCUBE, "junk"),
        # each topology's rows have its own shape, and a chain row's m is its level's
        (SPIN_HALF_HYPERCUBE, "0 -3/2 00\n1 01\n2 10\n3 11"),
        (QUADRUPOLAR_CHAIN, "0 00\n1 01\n2 10\n3 11"),
        (QUADRUPOLAR_CHAIN, "0 +9/2 00\n1 +1/2 01\n2 -1/2 10\n3 -3/2 11"),
        (QUADRUPOLAR_CHAIN, "0 +3/2 00\n1 junk 01\n2 -1/2 10\n3 -3/2 11"),
    ],
)
def test_labeling_table_parse_errors(kind, text):
    t = build_topology(kind, 2)
    with pytest.raises(ValueError):
        parse_labeling(text, t)
