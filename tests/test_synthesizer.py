import functools
import itertools
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelpulse import (
    Labeling,
    Permutation,
    PulseSequence,
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    build_topology,
    builtin_operation,
    compose,
    conventional_labeling,
    gray_labeling,
    maximal_sets,
    ols_quadrupolar,
    parse_pulse_program,
    pulse_count_report,
    relabel_pairswap_spin_half,
    relabel_parallel_spin_half,
    schedule_rounds,
    sequence_product,
    sequence_unitary,
    serialize_pulse_program,
    synthesize_fixed_labeling,
    synthesize_named,
    synthesize_scheme,
    verify_permutation,
)
from levelpulse.labeler import PATH, LabelingScheme
from levelpulse.permutation import MaximalSetDecomposition, cycles
from levelpulse.synthesizer import (
    _exact_cycle_pulses,
    _hypercube_bounds,
    _hypercube_candidates,
    _hypercube_program,
    _read_tree,
    _round_numbers,
    _route_tokens,
    _tree_tables,
)

from conftest import conventional, one_per_round

# product operator of the three pulses cycling a 4-state chain, written in
# ascending label order of the subspace
CYCLE4_MATRIX = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)


def random_permutation(n_qubits, rng):
    m = list(range(1 << n_qubits))
    rng.shuffle(m)
    return Permutation(n_qubits, tuple(m))


def set_pulses(d, scheme, t, index):
    # the scheme's pulses for one set: synthesize_scheme on that set alone
    alone = MaximalSetDecomposition(d.n_qubits, (d.sets[index],))
    return list(synthesize_scheme(alone, scheme, t).pulses)


def label_subspace(u, labeling, labels):
    rows = [labeling.level_of(x) for x in labels]
    return u[np.ix_(rows, rows)]


def test_on_path_emits_reverse_chain_order(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, t)
    assert set_pulses(d, scheme, t, 4) == [(2, 3), (1, 2), (0, 1)]


def test_on_path_product_matches_cycle_matrix(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, t)
    pulses = set_pulses(d, scheme, t, 4)
    u = sequence_unitary(one_per_round(scheme.labeling, pulses))
    sub = label_subspace(u, scheme.labeling, [0b0100, 0b0101, 0b0110, 0b0111])
    assert np.array_equal(sub, CYCLE4_MATRIX)


def test_on_path_two_element_set(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, t)
    assert len(set_pulses(d, scheme, t, 6)) == 1


def test_on_path_second_cycle_population_action(full_adder):
    # the second 4-cycle moves populations 1000 -> 1010 -> 1001 -> 1011 -> 1000
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, t)
    pulses = set_pulses(d, scheme, t, 5)
    u = sequence_unitary(one_per_round(scheme.labeling, pulses))
    lab = scheme.labeling
    for src, dst in [(0b1000, 0b1010), (0b1010, 0b1001), (0b1001, 0b1011), (0b1011, 0b1000)]:
        row = lab.level_of(src)
        col = int(np.argmax(np.abs(u[row])))
        assert col == lab.level_of(dst)


def test_on_path_rejects_non_path(full_adder):
    # a hand-built path scheme on the conventional labeling puts the first
    # 4-cycle on levels 4, 6, 5, 7, and its last pair (5, 7) is no transition
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = LabelingScheme(conventional_labeling(t), PATH)
    with pytest.raises(ValueError, match=re.escape("levels (5, 7) are not a single-quantum")):
        synthesize_scheme(d, scheme, t)


@pytest.mark.parametrize(
    "mapping",
    [
        (3, 1, 2, 0, 4, 5, 6, 7),
        (3, 1, 2, 5, 4, 0, 6, 7),
        (3, 1, 2, 5, 4, 6, 0, 7),
    ],
    ids=["2-state", "3-state", "4-state"],
)
def test_hypercube_path_scheme_rejects_chain_without_tree(mapping):
    # the chain's levels, among 0, 3, 5, 6, share no cube edge, so no tree
    # of transitions carries the cycle placed on them, however short
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    p = Permutation(3, mapping)
    scheme = LabelingScheme(conventional_labeling(t), PATH)
    with pytest.raises(ValueError, match="no tree of transitions"):
        synthesize_scheme(maximal_sets(p), scheme, t)


def test_fixed_labeling_chain_counts(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    cl = LabelingScheme(conventional_labeling(t))
    gray = LabelingScheme(gray_labeling(t))
    assert len(synthesize_fixed_labeling(full_adder, cl, t)) == 12
    assert len(synthesize_fixed_labeling(full_adder, gray, t)) == 12
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    assert len(synthesize_fixed_labeling(q, cl, t)) == 24
    assert len(synthesize_fixed_labeling(q, gray, t)) == 28


def test_fixed_labeling_hypercube_adder(full_adder):
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    cl = LabelingScheme(conventional_labeling(t))
    seq = synthesize_fixed_labeling(full_adder, cl, t)
    assert len(seq) == 8
    # first cycle is realized by the outer pulses then the bridging one
    first = seq.pulses[:3]
    assert sorted(first) == [(4, 5), (4, 6), (5, 7)]
    u = sequence_unitary(one_per_round(seq.labeling, first))
    sub = label_subspace(u, cl.labeling, [0b0100, 0b0101, 0b0110, 0b0111])
    assert np.array_equal(sub, CYCLE4_MATRIX)


def test_reordered_factorization_same_operator():
    # on the square, the chain product equals the reordered bridge product
    t = build_topology(SPIN_HALF_HYPERCUBE, 2)
    lab = conventional_labeling(t)
    chain_track = [(1, 3), (1, 2), (0, 2)]
    u_chain = sequence_unitary(one_per_round(lab, chain_track))
    reordered = [(1, 3), (0, 2), (0, 1)]
    u_re = sequence_unitary(one_per_round(lab, reordered))
    assert np.array_equal(u_chain, u_re)
    assert np.array_equal(u_re, CYCLE4_MATRIX)
    p = Permutation(2, (2, 3, 1, 0))
    assert verify_permutation(one_per_round(lab, reordered), p).passed


def test_chain_fixed_labeling_length_is_inversion_count():
    # independent oracle: number of inversions of the induced level map
    rng = random.Random(55)
    for n in (2, 3, 4):
        t = build_topology(QUADRUPOLAR_CHAIN, n)
        for labeling in (conventional_labeling(t), gray_labeling(t)):
            scheme = LabelingScheme(labeling)
            for _ in range(20):
                p = random_permutation(n, rng)
                sigma = [
                    labeling.level_of(p(labeling.label_of(lv)))
                    for lv in range(p.size)
                ]
                inversions = sum(
                    1
                    for i in range(len(sigma))
                    for j in range(i + 1, len(sigma))
                    if sigma[i] > sigma[j]
                )
                seq = synthesize_fixed_labeling(p, scheme, t)
                assert len(seq) == inversions


def test_fixed_labeling_verifies_random_tables():
    rng = random.Random(31)
    for n in (2, 3):
        for kind in (QUADRUPOLAR_CHAIN, SPIN_HALF_HYPERCUBE):
            t = build_topology(kind, n)
            scheme = LabelingScheme(conventional_labeling(t))
            for _ in range(40):
                p = random_permutation(n, rng)
                seq = synthesize_fixed_labeling(p, scheme, t)
                for pulse in seq.pulses:
                    assert t.is_edge(*pulse)
                assert verify_permutation(seq, p).passed


def test_fixed_labeling_antipodal_swap_uncapped():
    # a bare transposition of antipodal levels needs transit pulses: the
    # router takes 2 * 4 - 1 = 7 and the program verifies
    mapping = list(range(16))
    mapping[0], mapping[15] = 15, 0
    p = Permutation(4, tuple(mapping))
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = LabelingScheme(conventional_labeling(t))
    seq = synthesize_fixed_labeling(p, scheme, t)
    assert len(seq) == 7
    assert verify_permutation(seq, p).passed


def test_schedule_single_pulse(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, t)
    pulses = set_pulses(d, scheme, t, 6)
    single = schedule_rounds(PulseSequence(scheme.labeling, tuple(pulses), (1,) * len(pulses)))
    assert single.rounds == (1,)


def test_schedule_chain_triple_needs_three_rounds(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, t)
    pulses = set_pulses(d, scheme, t, 4)
    seq = PulseSequence(scheme.labeling, tuple(pulses), (1,) * 3)
    assert schedule_rounds(seq).rounds == (1, 1, 1)


def test_schedule_parallel_adder_rounds(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = relabel_parallel_spin_half(d, t)
    seq = synthesize_scheme(d, scheme, t)
    scheduled = schedule_rounds(seq)
    assert scheduled.rounds == (6, 2)
    assert np.array_equal(sequence_unitary(seq), sequence_unitary(scheduled))


def test_schedule_preserves_operator_random():
    rng = random.Random(77)
    for n in (2, 3):
        t = build_topology(SPIN_HALF_HYPERCUBE, n)
        for _ in range(25):
            p = random_permutation(n, rng)
            d = maximal_sets(p)
            scheme = relabel_pairswap_spin_half(d, t)
            seq = synthesize_scheme(d, scheme, t)
            scheduled = schedule_rounds(seq)
            assert np.array_equal(sequence_unitary(seq), sequence_unitary(scheduled))
            assert sorted(scheduled.pulses) == sorted(seq.pulses)


def test_report_adder_chain(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    rep = pulse_count_report(full_adder, t)
    assert rep.counts["ols"] == 8
    assert rep.counts["cl"] == 12
    assert rep.counts["gray"] == 12
    assert any("gray" in note and "10" in note for note in rep.notes)


def test_report_composed_chain(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    rep = pulse_count_report(q, t)
    assert rep.counts == {"ols": 12, "cl": 24, "gray": 28}
    assert any("gray" in note and "26" in note for note in rep.notes)
    r = compose(builtin_operation("swap:2,4", 4), full_adder)
    assert pulse_count_report(r, t).counts["ols"] == 12


def test_report_identity_zeroes():
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    rep = pulse_count_report(Permutation.identity(4), t)
    assert set(rep.counts.values()) == {0}
    assert rep.notes == ()


def test_report_hypercube(full_adder):
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    rep = pulse_count_report(full_adder, t)
    assert rep.counts == {"pairswap": 8, "parallel": 8, "cl": 8}
    assert rep.rounds["parallel"] == 2
    assert rep.rounds["pairswap"] == 3


def test_report_composed_hypercube_pairswap(full_adder):
    # adder then swap:2,4 has sets of 6 and 8 states, each laid on a path;
    # pulsed along their paths they took 7 rounds, as their trees they take 4
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    rep = pulse_count_report(q, t)
    assert (rep.counts["pairswap"], rep.rounds["pairswap"]) == (12, 4)


def test_report_composed_hypercube_cl(full_adder):
    # the orbit (1, 4, 3, 6, 5, 7) fails the tree test, so no program takes
    # the 12 pulses of an exact factorization; the router's starts factor
    # the orbits their happy swaps leave, and the sigma^-1 start takes 14
    # pulses in 3 rounds
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    conventional = LabelingScheme(conventional_labeling(t))
    cyc = (1, 4, 3, 6, 5, 7)
    assert cyc in cycles(conventional.labeling.induced(q))
    assert _exact_cycle_pulses(cyc, t) is None
    rep = pulse_count_report(q, t)
    assert (rep.counts["cl"], rep.rounds["cl"]) == (14, 3)


@pytest.mark.parametrize(
    "kind, name, counts",
    [
        (QUADRUPOLAR_CHAIN, "ols", (1017, 461)),
        (QUADRUPOLAR_CHAIN, "cl", (253951, 993)),
        (QUADRUPOLAR_CHAIN, "gray", (255153, 1011)),
        (SPIN_HALF_HYPERCUBE, "cl", (3349, 199)),
        (SPIN_HALF_HYPERCUBE, "pairswap", (1017, 2)),
        (SPIN_HALF_HYPERCUBE, "parallel", (1017, 2)),
    ],
    ids=[
        "chain-ols",
        "chain-cl",
        "chain-gray",
        "hypercube-cl",
        "hypercube-pairswap",
        "hypercube-parallel",
    ],
)
def test_baseline_n10_table(kind, name, counts):
    # the seeded N = 10 table of the ROADMAP baseline, (pulses, rounds) per
    # scheme pair; on the hypercube the greedy descent dead-ends, so
    # pairswap takes parallel's Gray layout in Coxeter order and runs in 2
    # rounds (461 when each set was pulsed along a Gray path, 16 as the
    # path's shallowest tree)
    mapping = list(range(1024))
    random.Random(2026).shuffle(mapping)
    p = Permutation(10, tuple(mapping))
    d = maximal_sets(p)
    t = build_topology(kind, 10)
    scheme, seq = synthesize_named(name, p, d, t)
    if name == "pairswap":
        assert scheme == relabel_parallel_spin_half(d, t)
    seq = schedule_rounds(seq)
    assert (len(seq), len(seq.rounds)) == counts
    assert verify_permutation(seq, p).passed


def test_pulse_program_round_trip(full_adder):
    d = maximal_sets(full_adder)
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = relabel_parallel_spin_half(d, t)
    seq = schedule_rounds(synthesize_scheme(d, scheme, t))
    text = serialize_pulse_program(seq)
    parsed = parse_pulse_program(text, t, scheme.labeling)
    assert parsed == seq
    # serialization is deterministic
    assert serialize_pulse_program(parsed) == text


# bad programs at N = 2, with the message on the hypercube and on the chain
PULSE_PROGRAM_ERRORS = {
    "1  pi_x  0  1  # bad axis": ("bad pulse line",) * 2,
    "not a pulse line": ("bad pulse line",) * 2,
    "2  pi_y  0  1": ("round indices must be non-decreasing from 1",) * 2,
    "1  pi_y  0  3": ("levels (0, 3) are not a single-quantum transition",) * 2,
    "1  pi_y  0  1\n3  pi_y  2  3": ("round indices must be contiguous",) * 2,
    "1  pi_y  0  1\n1  pi_y  1  3": (
        "pulses within a round must not share a level",
        "levels (1, 3) are not a single-quantum transition",
    ),
    "1  pi_y  0  0": ("levels (0, 0) are not a single-quantum transition",) * 2,
    "1  pi_y  1  5": ("levels (1, 5) are not a single-quantum transition",) * 2,
    "1  pi_y  -2  -1": ("levels (-2, -1) are not a single-quantum transition",) * 2,
    # a repeated pulse first: the first line off the topology is still named
    "1  pi_y  0  1\n2  pi_y  0  1\n3  pi_y  0  3\n4  pi_y  1  5": (
        "levels (0, 3) are not a single-quantum transition",
    ) * 2,
}


@pytest.mark.parametrize("text", list(PULSE_PROGRAM_ERRORS))
def test_pulse_program_parse_errors(text):
    kinds = (SPIN_HALF_HYPERCUBE, QUADRUPOLAR_CHAIN)
    for kind, message in zip(kinds, PULSE_PROGRAM_ERRORS[text]):
        t = build_topology(kind, 2)
        lab = conventional_labeling(t)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_pulse_program(text, t, lab)


@pytest.mark.parametrize("rounds", [(3, -1), (0, 1)])
def test_pulse_sequence_rejects_rounds_below_one(rounds):
    # both sum to the pulse count: (3, -1) would serialize as round 1 twice
    # and (0, 1) as a lone round 2, which the parser rejects
    pulses = ((0, 1), (2, 3))[: sum(rounds)]
    with pytest.raises(ValueError, match="round sizes must be at least 1"):
        PulseSequence(conventional(2), pulses, rounds)


@pytest.mark.parametrize(
    "pulses",
    [
        # level -1 would alias level 3 in the scheduler's per-level record
        ((2, 3), (-1, 0)),
        ((3, 4),),
    ],
)
def test_pulse_sequence_rejects_levels_out_of_range(pulses):
    with pytest.raises(ValueError, match=re.escape("pulse levels must lie in [0, 4)")):
        schedule_rounds(PulseSequence(conventional(2), pulses, (1,) * len(pulses)))


# each refusal with its message at N = 3; with both faults in one sequence
# the shared-level refusal still wins
PULSE_SEQUENCE_ERRORS = [
    (((5, 5),), "pulses within a round must not share a level"),
    (((-1, 0),), "pulse levels must lie in [0, 8)"),
    (((7, 8),), "pulse levels must lie in [0, 8)"),
    (((7, 8), (5, 5)), "pulses within a round must not share a level"),
    # listed high level first, it would serialize as "4  3" and parse back
    # as (3, 4), a different sequence
    (((4, 3),), "pulses must list the lower level first"),
]


@pytest.mark.parametrize("scheduled", [False, True], ids=["one-per-round", "multi-pulse"])
@pytest.mark.parametrize("pulses, message", PULSE_SEQUENCE_ERRORS)
def test_pulse_sequence_refusals_in_both_round_shapes(pulses, message, scheduled):
    # every pulse recurs, so the once-per-distinct-pulse checks meet repeats
    pulses = pulses * 2
    rounds = (1,) * len(pulses)
    if scheduled:
        # a valid pulse shares the first round with the first faulty one
        pulses = ((1, 2),) + pulses
        rounds = (2,) + rounds[1:]
    with pytest.raises(ValueError, match=re.escape(message)):
        PulseSequence(conventional(3), pulses, rounds)


def test_pulse_sequence_shared_level_in_round_wins_over_range():
    # the first round's two pulses share level 1 and a later pulse leaves
    # [0, 8): the shared level is named
    with pytest.raises(ValueError, match="pulses within a round must not share a level"):
        PulseSequence(conventional(3), ((0, 1), (1, 2), (7, 8)), (2, 1))


@pytest.mark.parametrize(
    "kind, labeling",
    [
        (QUADRUPOLAR_CHAIN, conventional_labeling),
        (QUADRUPOLAR_CHAIN, gray_labeling),
        (SPIN_HALF_HYPERCUBE, conventional_labeling),
    ],
)
def test_fixed_labeling_builds_each_transition_once(kind, labeling):
    t = build_topology(kind, 6)
    p = random_permutation(6, random.Random(12))
    seq = synthesize_fixed_labeling(p, LabelingScheme(labeling(t)), t)
    assert len(seq) > len(set(seq.pulses))  # transitions recur
    assert len({id(pulse) for pulse in seq.pulses}) == len(set(seq.pulses))


def reference_program(seq):
    # the program text with every line formatted on its own
    rnos = [rno for rno, size in enumerate(seq.rounds, 1) for _ in range(size)]
    label = seq.labeling.label_of
    return "\n".join(
        "{}  pi_y  {}  {}  # |{:0{n}b}> <-> |{:0{n}b}>".format(
            rno, a, b, label(a), label(b), n=seq.n_qubits
        )
        for rno, (a, b) in zip(rnos, seq.pulses)
    )


@st.composite
def _labeled_programs(draw):
    # a labeling and a few of its transitions drawn many times, one pulse
    # per round or scheduled
    kind = draw(st.sampled_from([QUADRUPOLAR_CHAIN, SPIN_HALF_HYPERCUBE]))
    n = draw(st.integers(1, 8))
    t = build_topology(kind, n)
    labeling = Labeling(n, tuple(draw(st.permutations(range(1 << n)))))
    pool = draw(st.lists(st.sampled_from(t.edges), min_size=1, max_size=6))
    pulses = draw(st.lists(st.sampled_from(pool), max_size=60))
    seq = PulseSequence(labeling, tuple(pulses), (1,) * len(pulses))
    return t, labeling, schedule_rounds(seq) if draw(st.booleans()) else seq


EMPTY_PROGRAM = (
    build_topology(QUADRUPOLAR_CHAIN, 1),
    conventional(1),
    PulseSequence(conventional(1), (), ()),
)


@settings(max_examples=150, deadline=None, database=None)
@given(program=_labeled_programs())
@example(program=EMPTY_PROGRAM)
def test_serialize_matches_per_pulse_reference(program):
    _, _, seq = program
    assert serialize_pulse_program(seq) == reference_program(seq)


@settings(max_examples=150, deadline=None, database=None)
@given(program=_labeled_programs())
@example(program=EMPTY_PROGRAM)
def test_parse_round_trip_builds_each_transition_once(program):
    t, labeling, seq = program
    parsed = parse_pulse_program(serialize_pulse_program(seq), t, labeling)
    assert parsed == seq
    assert len({id(pulse) for pulse in parsed.pulses}) == len(set(parsed.pulses))


@settings(max_examples=150, deadline=None, database=None)
@given(program=_labeled_programs())
@example(program=EMPTY_PROGRAM)
def test_round_numbers_match_schedule(program):
    # the ranking's round count is the one compile prints
    _, _, seq = program
    numbers = _round_numbers(seq.pulses, 1 << seq.n_qubits)
    scheduled = schedule_rounds(seq)
    assert max(numbers, default=0) == len(scheduled.rounds)
    by_round = sorted(zip(numbers, seq.pulses), key=lambda pair: pair[0])
    assert tuple(pulse for _, pulse in by_round) == scheduled.pulses


def naive_schedule(seq):
    # pairwise reference: a pulse lands one round after the latest earlier
    # pulse sharing a level; stable order within each round
    rnum = []
    for i, pulse in enumerate(seq.pulses):
        r = 0
        for j in range(i):
            if set(pulse) & set(seq.pulses[j]):
                r = max(r, rnum[j])
        rnum.append(r + 1)
    order = sorted(range(len(rnum)), key=lambda i: (rnum[i], i))
    sizes = tuple(rnum.count(r) for r in range(1, max(rnum, default=0) + 1))
    return tuple(seq.pulses[i] for i in order), sizes


def test_schedule_matches_pairwise_reference_chain_random():
    rng = random.Random(5)
    t = build_topology(QUADRUPOLAR_CHAIN, 5)
    scheme = LabelingScheme(conventional_labeling(t))
    for _ in range(5):
        seq = synthesize_fixed_labeling(random_permutation(5, rng), scheme, t)
        scheduled = schedule_rounds(seq)
        assert (scheduled.pulses, scheduled.rounds) == naive_schedule(seq)
        assert sequence_product(scheduled) == sequence_product(seq)


def naive_exact_cycle_pulses(cycle, t):
    # backtracking reference: depth-first search over support-internal edges
    # in lexicographic order, each pulse splitting a cycle of the remainder
    support = sorted(cycle)
    edges = [(a, b) for a, b in itertools.combinations(support, 2) if t.is_edge(a, b)]
    rho = dict(zip(cycle, cycle[1:] + cycle[:1]))
    out = []

    def dfs(budget):
        if budget == 0:
            return all(rho[lv] == lv for lv in support)
        orbits = cycles([rho.get(lv, lv) for lv in range(t.level_count)])
        owner = {lv: i for i, orbit in enumerate(orbits) for lv in orbit}
        for a, b in edges:
            if owner[a] != owner[b]:
                continue
            rho[a], rho[b] = rho[b], rho[a]
            out.append((a, b))
            if dfs(budget - 1):
                return True
            out.pop()
            rho[a], rho[b] = rho[b], rho[a]
        return False

    return out if dfs(len(cycle) - 1) else None


def assert_factors_cycle(pulses, cyc, t):
    # len - 1 hypercube edges whose product moves each c_i to c_(i+1)
    mapping = list(range(t.level_count))
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        mapping[a] = b
    assert len(pulses) == len(cyc) - 1, cyc
    assert all(a < b and t.is_edge(a, b) for a, b in pulses), cyc
    assert sequence_product(one_per_round(t.n_qubits, pulses))[0] == tuple(mapping), cyc


def assert_matches_backtracking(cyc, t):
    got = _exact_cycle_pulses(cyc, t)
    assert (got is None) == (naive_exact_cycle_pulses(cyc, t) is None), cyc
    if got is not None:
        assert_factors_cycle(got, cyc, t)
    return got is not None


def _cube_cycles():
    # every cycle on the N = 3 cube with 2..6 levels, then 1,500 seeded,
    # mostly-adjacent N = 4 walks, so that many of them factor exactly
    cube3 = build_topology(SPIN_HALF_HYPERCUBE, 3)
    for k in range(2, 7):
        for subset in itertools.combinations(range(8), k):
            for rest in itertools.permutations(subset[1:]):
                yield (subset[0],) + rest, cube3
    cube4 = build_topology(SPIN_HALF_HYPERCUBE, 4)
    rng = random.Random(4)
    for _ in range(1500):
        cyc = [rng.randrange(16)]
        for _ in range(rng.randint(1, 7)):
            nxt = cyc[-1] ^ (1 << rng.randrange(4)) if rng.random() < 0.8 else rng.randrange(16)
            if nxt not in cyc:
                cyc.append(nxt)
        yield tuple(cyc), cube4


def test_exact_cycles_match_backtracking_reference():
    exact = sum(assert_matches_backtracking(cyc, t) for cyc, t in _cube_cycles())
    assert exact > 1000  # both outcomes are exercised


def test_exact_cycle_tree_is_shallowest_read_out():
    # the kept tree factors the cycle in len - 1 pulses and has the fewest
    # rounds of the four read-outs of the DP tables
    shallower = 0
    for cyc, t in _cube_cycles():
        tables = _tree_tables(cyc, t)
        got = _exact_cycle_pulses(cyc, t)
        assert (got is None) == (tables is None), cyc
        if got is None:
            continue
        assert_factors_cycle(got, cyc, t)
        k = len(cyc)
        depths = [
            max(_round_numbers(_read_tree(tables, high_m, high_x), k), default=0)
            for high_m in (True, False)
            for high_x in (True, False)
        ]
        assert max(_round_numbers(got, t.level_count), default=0) == min(depths), cyc
        shallower += min(depths) < depths[0]
    assert shallower > 100  # the (highest, highest) tree is often not the shallowest


def reference_read_tree(tables, high_m, high_x):
    # the read-out rule, recursively: N[l][r] emits N[m][r], N[l][x], the
    # pulse (l, m), then N[x+1][m]
    row, col, chords = tables
    out = []

    def emit(l, r):
        if l < r:
            bits = chords[l] & col[r]
            m = (bits if high_m else bits & -bits).bit_length() - 1
            bits = row[l] & col[m] >> 1
            x = (bits if high_x else bits & -bits).bit_length() - 1
            emit(m, r)
            emit(l, x)
            out.append((l, m))
            emit(x + 1, m)

    emit(0, len(row) - 1)
    return out


@st.composite
def cube_chains(draw):
    # a chain laid on a cube path: a reflected Gray segment moved by a
    # random bit flip, or a self-avoiding random walk
    n = draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n
    if draw(st.booleans()):
        start = rng.randrange(size)
        stop = rng.randint(start + 1, size)
        flip = rng.randrange(size)
        chain = [k ^ (k >> 1) ^ flip for k in range(start, stop)]
    else:
        chain = [rng.randrange(size)]
        for _ in range(rng.randrange(size)):
            steps = [chain[-1] ^ (1 << b) for b in range(n)]
            steps = [lv for lv in steps if lv not in chain]
            if not steps:
                break
            chain.append(rng.choice(steps))
    return build_topology(SPIN_HALF_HYPERCUBE, n), tuple(chain)


@settings(max_examples=100, deadline=None, database=None)
@given(case=cube_chains())
def test_path_tables_and_read_outs_match_references(case):
    # a chain on a cube path always has tables, since its path is a tree;
    # each read-out is the recursive reference's, and the kept tree is the
    # one the rule "read out four ways, count each with _round_numbers,
    # keep the first with the fewest rounds" picks
    t, chain = case
    k = len(chain)
    tables = _tree_tables(chain, t)
    farthest = max((a ^ b).bit_count() for a, b in zip(chain, chain[1:] + chain[:1]))
    best, least = [], k
    for high_m, high_x in ((True, True), (False, False), (True, False), (False, True)):
        tree = reference_read_tree(tables, high_m, high_x)
        assert _read_tree(tables, high_m, high_x) == tree
        rounds = max(_round_numbers(tree, k), default=0)
        if rounds < least:
            best, least = tree, rounds
        if least == farthest:
            break
    assert least <= k - 1
    assert _exact_cycle_pulses(chain, t) == [
        tuple(sorted((chain[l], chain[m]))) for l, m in best
    ]


def test_exact_gray_order_cycle_n10():
    # one 1,024-level cycle, the tree DP's largest input: the emitter must
    # not recurse once per pulse, and the kept tree takes 19 rounds
    t = build_topology(SPIN_HALF_HYPERCUBE, 10)
    cyc = tuple(i ^ (i >> 1) for i in range(1024))
    pulses = _exact_cycle_pulses(cyc, t)
    assert_factors_cycle(pulses, cyc, t)
    assert max(_round_numbers(pulses, t.level_count)) == 19


def test_tree_test_small_cases():
    square = build_topology(SPIN_HALF_HYPERCUBE, 2)
    assert _exact_cycle_pulses((0, 1), square) is not None
    assert _exact_cycle_pulses((0, 3), square) is None
    assert _exact_cycle_pulses((0, 1, 3, 2), square) is not None
    cube = build_topology(SPIN_HALF_HYPERCUBE, 3)
    # the only spanning tree of {0, 1, 2, 5, 6} is the path 5-1-0-2-6; in the
    # order 0 -> 1 -> 2 -> 6 -> 5 its chords 0-2 and 1-5 cross
    assert _exact_cycle_pulses((0, 1, 2, 6, 5), cube) is None
    assert _exact_cycle_pulses((0, 1, 5, 2, 6), cube) is not None


def _edge_product(n, swaps):
    # level permutation of a product of hypercube edge transpositions
    mapping = list(range(1 << n))
    for lv, bit in swaps:
        lv %= 1 << n
        other = lv ^ (1 << (bit % n))
        mapping[lv], mapping[other] = mapping[other], mapping[lv]
    return Permutation(n, tuple(mapping))


def _fixed_scheme_tables(max_n):
    shuffled = st.builds(
        random_permutation, st.integers(2, max_n), st.randoms(use_true_random=False)
    )
    # products of a few random edge transpositions: small, mostly exact cycles
    local = st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            _edge_product,
            st.just(n),
            st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 9)), max_size=1 << n),
        )
    )
    return st.one_of(shuffled, local)


@settings(max_examples=40, deadline=None, database=None)
@given(p=_fixed_scheme_tables(8))
# a few tables at N = 9 and 10, beyond the drawn sizes: two shuffles and a
# product of edge transpositions, whose cycles mostly factor exactly
@example(p=random_permutation(9, random.Random(9)))
@example(p=random_permutation(10, random.Random(10)))
@example(p=_edge_product(10, [(lv * 37, lv % 10) for lv in range(600)]))
def test_hypercube_cl_random_tables(p):
    t = build_topology(SPIN_HALF_HYPERCUBE, p.n_qubits)
    scheme = LabelingScheme(conventional_labeling(t))
    seq = synthesize_fixed_labeling(p, scheme, t)
    scheduled = schedule_rounds(seq)
    assert all(t.is_edge(*pulse) for pulse in seq.pulses)
    assert verify_permutation(scheduled, p).passed
    orbits = cycles(p.mapping)
    exact = [_exact_cycle_pulses(orbit, t) for orbit in orbits]
    bound, farthest = _hypercube_bounds(p.mapping, orbits, exact)
    distance = sum((lv ^ p(lv)).bit_count() for lv in range(p.size))
    assert len(seq) >= bound >= max(p.size - len(orbits), (distance + 1) // 2)
    if None not in exact:
        assert len(seq) == p.size - len(orbits)
    # never worse than sigma's own routing, the first start, in pulses or
    # in rounds
    own = next(_hypercube_candidates(p.mapping, t))
    alone = schedule_rounds(one_per_round(p.n_qubits, own))
    assert len(seq) <= len(alone)
    assert len(scheduled.rounds) <= len(alone.rounds)
    assert len(scheduled.rounds) >= farthest == max((lv ^ p(lv)).bit_count() for lv in range(p.size))
    # every transposition factorization of sigma has this parity
    assert len(seq) % 2 == (p.size - len(orbits)) % 2


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 0), (5, 7)])
def test_each_hypercube_candidate_realizes_sigma(n, seed):
    # each start's program alone, so that a wrong reversal, complement or
    # bit-reversal map cannot hide behind the selection; the eight programs
    # differ on these tables
    t = build_topology(SPIN_HALF_HYPERCUBE, n)
    p = random_permutation(n, random.Random(seed))
    candidates = list(_hypercube_candidates(p.mapping, t))
    assert len(set(map(tuple, candidates))) == len(candidates) == 8
    for pulses in candidates:
        assert all(a < b and t.is_edge(a, b) for a, b in pulses)
        assert verify_permutation(one_per_round(n, pulses), p).passed
    assert _hypercube_program(p.mapping, t) in candidates


def test_all_exact_tables_keep_shallowest_trees():
    # an all-exact table takes each orbit's shallowest read-out, so it never
    # gets more rounds than the (highest, highest) trees give, and it gets
    # fewer on some of these tables
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    rng = random.Random(102)
    fewer = 0
    for _ in range(400):
        sigma = random_permutation(3, rng).mapping
        orbits = cycles(sigma)
        tables = [_tree_tables(orbit, t) for orbit in orbits]
        if None in tables:
            continue
        first = [
            (orbit[l], orbit[m]) for orbit, got in zip(orbits, tables)
            for l, m in _read_tree(got, True, True)
        ]
        routed = _hypercube_program(sigma, t)
        assert len(routed) == len(first) == 8 - len(orbits)
        depth = max(_round_numbers(routed, 8), default=0)
        base = max(_round_numbers(first, 8), default=0)
        assert depth <= base, sigma
        fewer += depth < base
    assert fewer > 0


@functools.cache
def _cube3_optimum():
    # one BFS from the identity over the 12-edge cube gives the minimum
    # pulse count of every N = 3 table
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    optimum = {tuple(range(8)): 0}
    queue = deque(optimum)
    while queue:
        state = queue.popleft()
        for a, b in t.edges:
            child = list(state)
            child[a], child[b] = child[b], child[a]
            if tuple(child) not in optimum:
                optimum[tuple(child)] = optimum[state] + 1
                queue.append(tuple(child))
    assert len(optimum) == 40320
    return optimum


def test_hypercube_cl_n3_excess_over_bfs_optimum():
    # on a seeded sample the routed total may exceed the optimum by at most
    # 1 %; over all 40,320 tables it exceeds it by 0.10 % and meets it on
    # 40,183 tables, in 134,927 rounds
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    optimum = _cube3_optimum()
    rng = random.Random(2026)
    sample = [random_permutation(3, rng).mapping for _ in range(2000)]
    programs = [_hypercube_program(sigma, t) for sigma in sample]
    routed = sum(map(len, programs))
    least = sum(optimum[sigma] for sigma in sample)
    assert routed <= 1.01 * least
    assert sum(max(_round_numbers(pulses, 8), default=0) for pulses in programs) == 6725


def test_hypercube_pulse_bound_n3_exhaustive():
    # the parity-tightened bound never exceeds the optimum and meets it on
    # all but 500 tables; max(2^N - #cycles, sum of Hamming distances / 2)
    # alone meets it on 24,328
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    met = 0
    for sigma, least in _cube3_optimum().items():
        orbits = cycles(sigma)
        exact = [_exact_cycle_pulses(orbit, t) for orbit in orbits]
        bound, farthest = _hypercube_bounds(sigma, orbits, exact)
        assert bound <= least, sigma
        assert farthest == max((lv ^ dst).bit_count() for lv, dst in enumerate(sigma))
        met += bound == least
    assert met == 39820


@settings(max_examples=60, deadline=None, database=None)
@given(
    p=st.one_of(
        st.builds(random_permutation, st.integers(1, 8), st.randoms(use_true_random=False)),
        _fixed_scheme_tables(8),
    )
)
def test_route_tokens_random_tables(p):
    # the phased router alone: cube edges that realize sigma, with the parity
    # of every factorization and at least one round per Hamming step
    t = build_topology(SPIN_HALF_HYPERCUBE, p.n_qubits)
    pulses = _route_tokens(p.mapping, t)
    assert all(a < b and t.is_edge(a, b) for a, b in pulses)
    assert sequence_product(one_per_round(p.n_qubits, pulses))[0] == p.mapping
    assert len(pulses) % 2 == (p.size - len(cycles(p.mapping))) % 2
    farthest = max((lv ^ p(lv)).bit_count() for lv in range(p.size))
    assert max(_round_numbers(pulses, p.size), default=0) >= farthest


def test_route_tokens_rotates_long_ring_as_tree():
    # on this table the happy phases take 5 swaps and the orbit of level 0
    # fails the tree test, so the closer-neighbour pointers close the ring
    # below, each population moving to the next ring level; its path takes
    # 7 rounds and its shallowest tree 6
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    p = random_permutation(4, random.Random(228))
    pulses = _route_tokens(p.mapping, t)
    assert verify_permutation(one_per_round(4, pulses), p).passed
    ring = (0, 8, 9, 11, 15, 7, 3, 1)
    rotation = pulses[5 : 5 + len(ring) - 1]
    mapping = list(range(16))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        mapping[a] = b
    assert sequence_product(one_per_round(4, rotation))[0] == tuple(mapping)
    assert max(_round_numbers(rotation, 16)) == 6


@pytest.mark.parametrize(
    "n, seeds, counts",
    [
        (5, range(5000, 5060), (2728, 566)),
        (6, range(6000, 6040), (4590, 702)),
        (8, range(8000, 8008), (5260, 562)),
    ],
)
def test_hypercube_cl_seeded_totals(n, seeds, counts):
    # summed (pulses, rounds) of hypercube cl over seeded tables beyond the
    # benchmark's N = 3 and 4, each program verified
    t = build_topology(SPIN_HALF_HYPERCUBE, n)
    scheme = LabelingScheme(conventional_labeling(t))
    pulses = rounds = 0
    for seed in seeds:
        p = random_permutation(n, random.Random(seed))
        seq = schedule_rounds(synthesize_fixed_labeling(p, scheme, t))
        assert verify_permutation(seq, p).passed
        pulses += len(seq)
        rounds += len(seq.rounds)
    assert (pulses, rounds) == counts


@pytest.mark.parametrize("labeling", [conventional_labeling, gray_labeling])
@settings(max_examples=25, deadline=None, database=None)
@given(p=_fixed_scheme_tables(7))
def test_chain_fixed_random_tables(labeling, p):
    t = build_topology(QUADRUPOLAR_CHAIN, p.n_qubits)
    scheme = LabelingScheme(labeling(t))
    seq = synthesize_fixed_labeling(p, scheme, t)
    assert all(t.is_edge(*pulse) for pulse in seq.pulses)
    assert verify_permutation(schedule_rounds(seq), p).passed
    sigma = scheme.labeling.induced(p)
    inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
    assert len(seq) == inversions


@pytest.mark.parametrize("labeling", [conventional_labeling, gray_labeling])
@settings(max_examples=25, deadline=None, database=None)
@given(p=_fixed_scheme_tables(8))
def test_chain_odd_even_rounds_random_tables(labeling, p):
    # a population moving k levels needs k rounds; odd-even transposition
    # sort needs at most 2^N phases and each phase fits in one round
    t = build_topology(QUADRUPOLAR_CHAIN, p.n_qubits)
    scheme = LabelingScheme(labeling(t))
    scheduled = schedule_rounds(synthesize_fixed_labeling(p, scheme, t))
    assert all(t.is_edge(*pulse) for pulse in scheduled.pulses)
    assert verify_permutation(scheduled, p).passed
    sigma = scheme.labeling.induced(p)
    assert len(scheduled) == sum(a > b for a, b in itertools.combinations(sigma, 2))
    displacement = max(abs(dst - src) for src, dst in enumerate(sigma))
    assert displacement <= len(scheduled.rounds) <= p.size


def test_chain_rounds_can_exceed_displacement_plus_one():
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    p = Permutation(3, (0, 5, 6, 7, 2, 1, 3, 4))
    scheduled = schedule_rounds(
        synthesize_fixed_labeling(p, LabelingScheme(conventional_labeling(t)), t)
    )
    assert (len(scheduled), len(scheduled.rounds)) == (13, 7)
    assert max(abs(p(lv) - lv) for lv in range(p.size)) == 4
