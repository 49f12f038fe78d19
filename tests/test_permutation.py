import random

import pytest

from levelpulse import (
    Permutation,
    TruthTableError,
    builtin_operation,
    compose,
    count_optimal_labelings,
    maximal_sets,
    min_pulse_count,
    parse_truth_table,
)

from conftest import FULL_ADDER_DOC, FULL_ADDER_SETS


def test_parse_matches_builtin(full_adder):
    parsed = parse_truth_table(FULL_ADDER_DOC)
    assert parsed == full_adder
    # spot-check one row: |0100> -> |0110>
    assert parsed(0b0100) == 0b0110


def test_parse_single_qubit_identity():
    p = parse_truth_table("qubits: 1\n0 -> 0\n1 -> 1\n")
    assert p.is_identity()
    assert parse_truth_table("qubits: 01\n0 -> 0\n1 -> 1\n") == p


def test_parse_any_row_order_and_whitespace():
    doc = "qubits: 1\n  1->1 # fixed\n0   ->    0\n"
    assert parse_truth_table(doc).is_identity()


@pytest.mark.parametrize(
    "doc, message",
    [
        ("", "empty"),
        ("0 -> 1\n1 -> 0", "qubits"),
        ("qubits: 1\n0 -> 0\n0 -> 1", "duplicate input"),
        ("qubits: 1\n0 -> 1\n1 -> 1", "repeated"),
        ("qubits: 1\n0 -> 0", "missing input"),
        ("qubits: 1\n00 -> 01\n10 -> 11", "bad 1-bit"),
        ("qubits: 1\n0 = 0\n1 = 1", "malformed"),
        ("qubits: 0", "at least 1"),
        ("qubits: 000", "at least 1"),
        ("qubits: 11", "at most 10"),
        ("qubits: 0011", "at most 10"),
    ],
)
def test_parse_errors(doc, message):
    with pytest.raises(TruthTableError, match=message):
        parse_truth_table(doc)


def test_parse_two_inputs_same_output():
    rows = ["qubits: 4"]
    for i in range(16):
        rows.append("{:04b} -> {:04b}".format(i, 5 if i < 2 else i))
    with pytest.raises(TruthTableError, match="repeated"):
        parse_truth_table("\n".join(rows))


def chains_of(p):
    return [s.chain for s in maximal_sets(p).sets if len(s) > 1]


def kets(*labels):
    return tuple(int(b, 2) for b in labels)


def test_compose_adder_then_swap(full_adder):
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    multi = chains_of(q)
    assert multi[0] == kets("0001", "0100", "0011", "0110", "0101", "0111")
    assert multi[1] == kets(
        "1000", "1010", "1100", "1101", "1001", "1110", "1111", "1011"
    )


def test_compose_swap_then_adder(full_adder):
    q = compose(builtin_operation("swap:2,4", 4), full_adder)
    multi = chains_of(q)
    assert multi[0] == kets("0001", "0110", "0011", "0101", "0111", "0100")
    assert multi[1] == kets(
        "1000", "1010", "1001", "1101", "1100", "1011", "1111", "1110"
    )


def test_compose_identity(full_adder):
    ident = Permutation.identity(4)
    assert compose(full_adder, ident) == full_adder
    assert compose(ident, full_adder) == full_adder


def test_compose_qubit_mismatch(full_adder):
    with pytest.raises(ValueError, match="qubit counts differ"):
        compose(full_adder, Permutation.identity(2))


def test_maximal_sets_reference_rows(full_adder):
    assert maximal_sets(full_adder).serialize() == FULL_ADDER_SETS


def test_maximal_sets_identity_singletons():
    d = maximal_sets(Permutation.identity(4))
    assert d.sizes() == (1,) * 16


def test_maximal_sets_composed_sizes(full_adder):
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    assert maximal_sets(q).sizes() == (1, 6, 1, 8)


def test_min_pulse_count(full_adder):
    assert min_pulse_count(maximal_sets(full_adder)) == 8
    assert min_pulse_count(maximal_sets(Permutation.identity(4))) == 0
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    assert min_pulse_count(maximal_sets(q)) == 12


def test_count_optimal_labelings(full_adder):
    assert count_optimal_labelings(maximal_sets(full_adder)) == 645120
    assert count_optimal_labelings(maximal_sets(Permutation.identity(2))) == 24
    q = compose(full_adder, builtin_operation("swap:2,4", 4))
    # M = 4 sets, k = 2 multi-element sets
    assert count_optimal_labelings(maximal_sets(q)) == 96


def test_builtin_full_adder_rows(full_adder):
    assert full_adder(0b1011) == 0b1000
    assert full_adder(0b0000) == 0b0000


def test_builtin_swap():
    sw = builtin_operation("swap:2,4", 4)
    assert sw(0b0100) == 0b0001
    assert sw(0b0001) == 0b0100


def test_builtin_identity_token():
    assert builtin_operation("identity:3").is_identity()


@pytest.mark.parametrize(
    "name, n",
    [("nosuch", 4), ("swap:0,2", 4), ("swap:1,5", 4), ("swap:1", 4), ("fulladder4", 3)],
)
def test_builtin_errors(name, n):
    with pytest.raises(ValueError):
        builtin_operation(name, n)


def random_permutation(n_qubits, rng):
    m = list(range(1 << n_qubits))
    rng.shuffle(m)
    return Permutation(n_qubits, tuple(m))


def test_decomposition_properties_random():
    rng = random.Random(1201)
    for n in (2, 3, 4):
        for _ in range(334):
            p = random_permutation(n, rng)
            d = maximal_sets(p)
            covered = [s for ms in d.sets for s in ms.chain]
            assert sorted(covered) == list(range(p.size))
            for ms in d.sets:
                for a, b in zip(ms.chain, ms.chain[1:]):
                    assert p(a) == b
                assert p(ms.chain[-1]) == ms.chain[0]
            assert min_pulse_count(d) == p.size - len(d.sets)
            assert compose(p, p.inverse()).is_identity()


def test_decomposition_deterministic():
    first = maximal_sets(parse_truth_table(FULL_ADDER_DOC)).serialize()
    second = maximal_sets(parse_truth_table(FULL_ADDER_DOC)).serialize()
    assert first == second
