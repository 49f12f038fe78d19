import random

import numpy as np
import pytest

from levelpulse import (
    Permutation,
    Pulse,
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    build_topology,
    conventional_labeling,
    equilibrium_populations,
    final_populations,
    fixed_scheme,
    maximal_sets,
    ols_quadrupolar,
    pulse_unitary,
    relabel_parallel_spin_half,
    sequence_product,
    sequence_unitary,
    serialize_spectrum,
    stick_spectrum,
    verify_permutation,
)

from conftest import one_per_round

CYCLE4_MATRIX = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex
)


def random_permutation(n_qubits, rng):
    m = list(range(1 << n_qubits))
    rng.shuffle(m)
    return Permutation(n_qubits, tuple(m))


def test_pulse_unitary_block():
    u = pulse_unitary((1, 3), 4)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0]], dtype=complex
    )
    assert np.array_equal(u, expected)


def test_pulse_unitary_other_block():
    u = pulse_unitary((0, 2), 4)
    expected = np.array(
        [[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(u, expected)


def test_pulse_unitary_follows_label_order():
    # level 1 carries the lower label, so its row holds the +1
    u = pulse_unitary(Pulse(0, 1, 0b11, 0b10), 4)
    expected = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(u, expected)


def test_pulse_unitary_square_is_two_pi():
    u = pulse_unitary((1, 3), 4)
    sq = u @ u
    assert np.array_equal(sq, np.diag([1, -1, 1, -1]).astype(complex))


@pytest.mark.parametrize("pair", [(2, 2), (0, 4), (-1, 2)])
def test_pulse_unitary_level_errors(pair):
    with pytest.raises(ValueError):
        pulse_unitary(pair, 4)


def test_sequence_unitary_empty_is_identity():
    assert np.array_equal(sequence_unitary(one_per_round(2, [])), np.eye(4, dtype=complex))


def test_sequence_unitary_cycle_product():
    u = sequence_unitary(one_per_round(2, [(1, 3), (1, 2), (0, 2)]))
    assert np.array_equal(u, CYCLE4_MATRIX)


def test_sequence_unitary_reordered_bridge_product():
    u = sequence_unitary(one_per_round(2, [(1, 3), (0, 2), (0, 1)]))
    assert np.array_equal(u, CYCLE4_MATRIX)


def test_products_are_unitary_random():
    # exact, against the left-to-right product of per-pulse matrices, for
    # bare level pairs and for ols / parallel pulses whose label order
    # runs against their level order
    rng = random.Random(13)
    for kind, place in (
        (SPIN_HALF_HYPERCUBE, None),
        (QUADRUPOLAR_CHAIN, ols_quadrupolar),
        (SPIN_HALF_HYPERCUBE, relabel_parallel_spin_half),
    ):
        t = build_topology(kind, 3)
        if place is None:
            choices = list(t.edges)
        else:
            lab = place(maximal_sets(random_permutation(3, rng)), t).labeling
            choices = [Pulse(a, b, lab.label_of(a), lab.label_of(b)) for a, b in t.edges]
            assert any(pulse.label_a > pulse.label_b for pulse in choices)
        for _ in range(20):
            pulses = [choices[rng.randrange(len(choices))] for _ in range(10)]
            u = sequence_unitary(one_per_round(3, pulses))
            reference = np.eye(8, dtype=complex)
            for pulse in pulses:
                reference = reference @ pulse_unitary(pulse, 8)
            assert np.array_equal(u, reference)
            assert np.array_equal(u @ u.conj().T, np.eye(8))


@pytest.mark.parametrize(
    "pair", [(2, 2), (0, 4), (-1, 2), Pulse(0, 0, 0, 0), Pulse(3, 4, 3, 4)]
)
def test_sequence_product_level_errors(pair):
    # sequence_product trusts its input: the PulseSequence constructor refuses these
    with pytest.raises(ValueError):
        one_per_round(2, [(0, 1), pair])


def test_verify_cycle_pass_with_phases():
    t = build_topology(SPIN_HALF_HYPERCUBE, 2)
    scheme = fixed_scheme(conventional_labeling(t))
    p = Permutation(2, (2, 3, 1, 0))
    product = sequence_product(one_per_round(2, [(1, 3), (1, 2), (0, 2)]))
    verdict = verify_permutation(product, p, scheme)
    assert verdict.passed
    assert verdict.realized == (2, 3, 1, 0)
    assert verdict.phases == (1 + 0j, 1 + 0j, -1 + 0j, 1 + 0j)


def test_verify_identity():
    t = build_topology(SPIN_HALF_HYPERCUBE, 2)
    scheme = fixed_scheme(conventional_labeling(t))
    product = sequence_product(one_per_round(2, []))
    verdict = verify_permutation(product, Permutation.identity(2), scheme)
    assert verdict.passed
    assert verdict.phases == (1 + 0j,) * 4


def test_verify_wrong_permutation_fails():
    t = build_topology(SPIN_HALF_HYPERCUBE, 2)
    scheme = fixed_scheme(conventional_labeling(t))
    three_cycle = Permutation(2, (1, 2, 0, 3))
    product = sequence_product(one_per_round(2, [(0, 1)]))
    verdict = verify_permutation(product, three_cycle, scheme)
    assert not verdict.passed
    assert verdict.realized == (1, 0, 2, 3)
    assert verdict.problems


def test_verify_dimension_mismatch():
    t = build_topology(SPIN_HALF_HYPERCUBE, 2)
    scheme = fixed_scheme(conventional_labeling(t))
    product = sequence_product(one_per_round(3, []))
    with pytest.raises(ValueError, match="dimension"):
        verify_permutation(product, Permutation.identity(2), scheme)


def test_equilibrium_hypercube_populations():
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    eq = equilibrium_populations(t)
    assert eq[0] == 2  # all spins up
    assert eq[0b1111] == -2
    assert sum(eq) == 0
    sticks = stick_spectrum(eq, t)
    assert len(sticks) == 32
    assert all(s.intensity == 1 for s in sticks)


def test_equilibrium_chain_two_qubits():
    t = build_topology(QUADRUPOLAR_CHAIN, 2)
    eq = equilibrium_populations(t)
    assert list(eq) == [1, 0, 0, -1]


def test_final_populations_identity():
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = fixed_scheme(conventional_labeling(t))
    eq = equilibrium_populations(t)
    fin = final_populations(eq, Permutation.identity(4), scheme)
    assert np.array_equal(fin, eq)


def test_final_populations_preserve_multiset_random():
    rng = random.Random(4)
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    scheme = fixed_scheme(conventional_labeling(t))
    eq = equilibrium_populations(t)
    for _ in range(30):
        p = random_permutation(3, rng)
        fin = final_populations(eq, p, scheme)
        assert sorted(fin) == sorted(eq)
        assert sum(fin) == 0


def test_adder_parallel_labeling_drops_one_transition(full_adder):
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = relabel_parallel_spin_half(maximal_sets(full_adder), t)
    eq = equilibrium_populations(t)
    fin = final_populations(eq, full_adder, scheme)
    before = {(s.spin, s.transition): s.intensity for s in stick_spectrum(eq, t)}
    after = {(s.spin, s.transition): s.intensity for s in stick_spectrum(fin, t)}
    assert set(after.values()) <= {-2, -1, 0, 1, 2}
    flipped = [
        key for key in before
        if key[0] == 4 and before[key] == 1 and after[key] == -2
    ]
    assert flipped


def test_stick_spectrum_zero_populations():
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    sticks = stick_spectrum(np.zeros(8), t)
    assert all(s.intensity == 0 for s in sticks)


def test_stick_spectrum_chain_names():
    t = build_topology(QUADRUPOLAR_CHAIN, 2)
    sticks = stick_spectrum(equilibrium_populations(t), t)
    assert [s.transition for s in sticks] == [
        "+3/2->+1/2",
        "+1/2->-1/2",
        "-1/2->-3/2",
    ]
    assert [s.intensity for s in sticks] == [1, 0, 1]


def test_stick_spectrum_hypercube_grouping():
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    sticks = stick_spectrum(equilibrium_populations(t), t)
    by_spin = {}
    for s in sticks:
        by_spin.setdefault(s.spin, []).append(s)
    assert sorted(by_spin) == [1, 2, 3]
    for spin, group in by_spin.items():
        assert len(group) == 4
        assert [g.transition for g in group] == sorted(g.transition for g in group)
        for g in group:
            flipped_bit = g.level_a ^ g.level_b
            assert flipped_bit == 1 << (3 - spin)


def test_serialize_spectrum_text():
    t = build_topology(QUADRUPOLAR_CHAIN, 2)
    text = serialize_spectrum(stick_spectrum(equilibrium_populations(t), t))
    lines = text.splitlines()
    assert lines[0] == "spin  transition  intensity"
    assert lines[1] == "q  +3/2->+1/2  +1"
