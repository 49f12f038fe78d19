from fractions import Fraction

import pytest

from levelpulse import (
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    build_topology,
    conventional_labeling,
    gray_labeling,
    single_quantum_distance,
)


def test_chain_edges():
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    assert len(t.edges) == 15
    assert t.edges == tuple((i, i + 1) for i in range(15))


def test_chain_terminal_degrees():
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    degrees = [len(t.neighbors[v]) for v in range(t.level_count)]
    assert degrees[0] == degrees[-1] == 1
    assert all(d == 2 for d in degrees[1:-1])


def test_hypercube_edge_count():
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    assert len(t.edges) == 4 * 8
    t1 = build_topology(SPIN_HALF_HYPERCUBE, 1)
    assert t1.edges == ((0, 1),)


def test_hypercube_regular_and_bipartite():
    t = build_topology(SPIN_HALF_HYPERCUBE, 3)
    assert all(len(t.neighbors[v]) == 3 for v in range(8))
    for a, b in t.edges:
        assert bin(a).count("1") % 2 != bin(b).count("1") % 2


def test_hypercube_edges_are_single_bit_flips():
    t = build_topology(SPIN_HALF_HYPERCUBE, 4)
    lab = conventional_labeling(t)
    for a, b in t.edges:
        assert bin(lab.label_of(a) ^ lab.label_of(b)).count("1") == 1


@pytest.mark.parametrize("kind", [QUADRUPOLAR_CHAIN, SPIN_HALF_HYPERCUBE])
def test_is_edge_matches_edge_set(kind):
    # out-of-range pairs such as (-2, -1) must not pass the arithmetic tests
    for n in range(1, 7):
        t = build_topology(kind, n)
        span = range(-2, t.level_count + 2)
        for a in span:
            for b in span:
                assert t.is_edge(a, b) == ((min(a, b), max(a, b)) in t.edge_set)


@pytest.mark.parametrize("kind, n", [("ring", 3), (QUADRUPOLAR_CHAIN, 0), (QUADRUPOLAR_CHAIN, 11)])
def test_build_errors(kind, n):
    with pytest.raises(ValueError):
        build_topology(kind, n)


def test_conventional_labeling_values():
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    lab = conventional_labeling(t)
    assert lab.label_bits(0) == "000"
    assert lab.label_bits(3) == "011"
    assert lab.label_bits(7) == "111"
    h = build_topology(SPIN_HALF_HYPERCUBE, 4)
    assert conventional_labeling(h).label_bits(5) == "0101"


def test_gray_labeling_values():
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    lab = gray_labeling(t)
    assert lab.label_bits(0) == "000"
    assert lab.label_bits(3) == "010"
    assert lab.label_bits(7) == "100"  # 7 xor 3


def test_gray_adjacent_levels_differ_by_one_bit():
    for n in (2, 3, 4):
        t = build_topology(QUADRUPOLAR_CHAIN, n)
        lab = gray_labeling(t)
        for a, b in t.edges:
            assert bin(lab.label_of(a) ^ lab.label_of(b)).count("1") == 1


def test_labelings_are_bijections():
    for n in (1, 2, 3, 4):
        t = build_topology(QUADRUPOLAR_CHAIN, n)
        for lab in (conventional_labeling(t), gray_labeling(t)):
            assert sorted(lab.level_to_label) == list(range(t.level_count))
            for lv in range(t.level_count):
                assert lab.level_of(lab.label_of(lv)) == lv


def test_magnetic_quantum_numbers():
    t = build_topology(QUADRUPOLAR_CHAIN, 3)
    assert t.magnetic_quantum_number(0) == Fraction(7, 2)
    assert t.magnetic_quantum_number(7) == Fraction(-7, 2)
    for a, b in t.edges:
        assert t.magnetic_quantum_number(a) - t.magnetic_quantum_number(b) == 1


def test_magnetic_quantum_number_chain_only():
    h = build_topology(SPIN_HALF_HYPERCUBE, 2)
    with pytest.raises(ValueError, match="chain"):
        h.magnetic_quantum_number(0)


def test_single_quantum_distance():
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    assert single_quantum_distance(t, 4, 7) == 3
    h = build_topology(SPIN_HALF_HYPERCUBE, 4)
    assert single_quantum_distance(h, 0b0101, 0b0110) == 2
    for topo in (t, h):
        assert single_quantum_distance(topo, 5, 5) == 0
