"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  The
gray-code pulse counts of criterion 2 are asserted exactly as published
and fail honestly: minimal routing under the reflected gray labeling
needs 12 and 28 pulses, the published 10 and 26 assume a different gray
sequence (the comparison report flags the discrepancy, which is checked
here as well).
"""

import itertools
import random
import time
from collections import deque

import numpy as np

from levelpulse import (
    Labeling,
    Permutation,
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    build_topology,
    builtin_operation,
    compose,
    conventional_labeling,
    count_optimal_labelings,
    enumerate_ols_quadrupolar,
    equilibrium_populations,
    final_populations,
    fixed_scheme,
    maximal_sets,
    min_pulse_count,
    ols_quadrupolar,
    pulse_count_report,
    relabel_pairswap_spin_half,
    relabel_parallel_spin_half,
    schedule_rounds,
    sequence_product,
    sequence_unitary,
    stick_spectrum,
    synthesize_fixed_labeling,
    synthesize_scheme,
    verify_permutation,
)

from conftest import FULL_ADDER_SETS, one_per_round

CYCLE4_MATRIX = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = "criterion {}: {}".format(criterion, "PASS" if ok else "FAIL")
    if detail:
        line += "  [{}]".format(detail)
    print(line)
    return ok


def random_permutation(n_qubits, rng):
    m = list(range(1 << n_qubits))
    rng.shuffle(m)
    return Permutation(n_qubits, tuple(m))


def test_criterion_1_maximal_set_rows(full_adder):
    start = time.perf_counter()
    rows = maximal_sets(full_adder).serialize()
    elapsed = time.perf_counter() - start
    ok = rows == FULL_ADDER_SETS and elapsed < 1.0
    assert report("1 maximal-set rows", ok, "{:.4f}s".format(elapsed))


def test_criterion_2_counts_ols_and_conventional(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    swap = builtin_operation("swap:2,4", 4)
    adder = pulse_count_report(full_adder, t)
    composed = pulse_count_report(compose(full_adder, swap), t)
    reversed_ = pulse_count_report(compose(swap, full_adder), t)
    ok = (
        adder.counts["ols"] == 8
        and adder.counts["cl"] == 12
        and composed.counts["ols"] == 12
        and composed.counts["cl"] == 24
        and reversed_.counts["ols"] == 12
    )
    assert report("2 pulse counts (ols, cl)", ok, str(adder.counts))


def test_criterion_2_gray_counts_published_values(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    swap = builtin_operation("swap:2,4", 4)
    got_adder = pulse_count_report(full_adder, t).counts["gray"]
    got_composed = pulse_count_report(compose(full_adder, swap), t).counts["gray"]
    ok = got_adder == 10 and got_composed == 26
    report("2 pulse counts (gray, published)", ok,
           "computed {}/{}, published 10/26".format(got_adder, got_composed))
    assert ok, (
        "minimal routing under reflected gray labeling yields {}/{} pulses; "
        "the published counts 10/26 are unreachable with this gray sequence "
        "(the inversion count of the induced level permutation is a hard "
        "lower bound). The comparison report flags the discrepancy; see "
        "the project notes.".format(got_adder, got_composed)
    )


def test_criterion_2_gray_discrepancy_is_flagged(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    swap = builtin_operation("swap:2,4", 4)
    notes_adder = pulse_count_report(full_adder, t).notes
    notes_composed = pulse_count_report(compose(full_adder, swap), t).notes
    ok = any("gray" in n for n in notes_adder) and any(
        "gray" in n for n in notes_composed
    )
    assert report("2 gray discrepancy flagged", ok, str(notes_adder))


def test_criterion_2_gray_witness_and_reflected_images(full_adder):
    # the published 10/26 need another 4-bit Gray sequence (this witness);
    # no image of the reflected Gray code under the hypercube's symmetries
    # (qubit reorderings, bit complements, either direction) goes below 12
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    composed = compose(full_adder, builtin_operation("swap:2,4", 4))
    witness = (0, 2, 3, 1, 5, 7, 6, 4, 12, 13, 15, 14, 10, 11, 9, 8)
    assert all((a ^ b).bit_count() == 1 for a, b in zip(witness, witness[1:]))

    def pulses(p, labels):
        return len(synthesize_fixed_labeling(p, fixed_scheme(Labeling(4, labels)), t))

    gray = [k ^ (k >> 1) for k in range(16)]
    images = set()
    for order in itertools.permutations(range(4)):
        for mask in range(16):
            image = [sum((g >> b & 1) << order[b] for b in range(4)) ^ mask for g in gray]
            images.update((tuple(image), tuple(image[::-1])))
    floor = min(pulses(full_adder, labels) for labels in images)
    got = (pulses(full_adder, witness), pulses(composed, witness))
    ok = got == (10, 26) and len(images) == 384 and floor == 12
    detail = "witness {}/{}, reflected-image floor {}".format(*got, floor)
    assert report("2 gray witness", ok, detail)


def test_criterion_3_labeling_counts(full_adder):
    t = build_topology(QUADRUPOLAR_CHAIN, 4)
    d = maximal_sets(full_adder)
    total = sum(1 for _ in enumerate_ols_quadrupolar(d, t))
    ok = total == 645120
    t2 = build_topology(QUADRUPOLAR_CHAIN, 2)
    for mapping in itertools.permutations(range(4)):
        d2 = maximal_sets(Permutation(2, mapping))
        count = sum(1 for _ in enumerate_ols_quadrupolar(d2, t2))
        ok = ok and count == count_optimal_labelings(d2)
    assert report("3 labeling enumeration", ok, "full adder total {}".format(total))


def test_criterion_4_matrix_fixtures(full_adder):
    d = maximal_sets(full_adder)
    chain = build_topology(QUADRUPOLAR_CHAIN, 4)
    scheme = ols_quadrupolar(d, chain)
    seq = synthesize_scheme(d, scheme, chain)
    u = sequence_unitary(one_per_round(4, seq.pulses[:3]))
    rows = [scheme.labeling.level_of(x) for x in (0b0100, 0b0101, 0b0110, 0b0111)]
    sub_chain = u[np.ix_(rows, rows)]

    cube = build_topology(SPIN_HALF_HYPERCUBE, 4)
    cl = fixed_scheme(conventional_labeling(cube))
    seq_cube = synthesize_fixed_labeling(full_adder, cl, cube)
    u_cube = sequence_unitary(one_per_round(4, seq_cube.pulses[:3]))
    sub_cube = u_cube[np.ix_([4, 5, 6, 7], [4, 5, 6, 7])]

    ok = np.allclose(sub_chain, CYCLE4_MATRIX, rtol=0, atol=1e-12) and np.allclose(
        sub_cube, CYCLE4_MATRIX, rtol=0, atol=1e-12
    )
    assert report("4 subspace product matrices", ok)


def test_criterion_5_random_tables_compile_verify():
    rng = random.Random(2026)
    checked = 0
    ok = True
    for n in (2, 3):
        chain = build_topology(QUADRUPOLAR_CHAIN, n)
        cube = build_topology(SPIN_HALF_HYPERCUBE, n)
        for _ in range(150):
            p = random_permutation(n, rng)
            d = maximal_sets(p)
            floor = min_pulse_count(d)

            scheme = ols_quadrupolar(d, chain)
            seq = synthesize_scheme(d, scheme, chain)
            ok = ok and len(seq) == floor
            ok = ok and verify_permutation(
                sequence_product(seq), p, scheme
            ).passed

            scheme = relabel_pairswap_spin_half(d, cube)
            seq = synthesize_scheme(d, scheme, cube)
            ok = ok and len(seq) == floor
            ok = ok and verify_permutation(
                sequence_product(seq), p, scheme
            ).passed

            for topo in (chain, cube):
                cl = fixed_scheme(conventional_labeling(topo))
                seq = synthesize_fixed_labeling(p, cl, topo)
                ok = ok and verify_permutation(
                    sequence_product(seq), p, cl
                ).passed
            checked += 2
            if not ok:
                break
    ok = ok and checked >= 500
    assert report("5 random-table property suite", ok, "{} tables".format(checked))


def test_criterion_6_scheduling(full_adder):
    d = maximal_sets(full_adder)
    cube = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = relabel_parallel_spin_half(d, cube)
    seq = synthesize_scheme(d, scheme, cube)
    scheduled = schedule_rounds(seq)
    ok = scheduled.rounds == (6, 2) and np.array_equal(
        sequence_unitary(seq), sequence_unitary(scheduled)
    )
    assert report("6 simultaneous rounds", ok, str(scheduled.rounds))


def test_criterion_7_spectrum(full_adder):
    cube = build_topology(SPIN_HALF_HYPERCUBE, 4)
    scheme = relabel_parallel_spin_half(maximal_sets(full_adder), cube)
    eq = equilibrium_populations(cube)
    eq_sticks = stick_spectrum(eq, cube)
    fin = final_populations(eq, full_adder, scheme)
    fin_sticks = stick_spectrum(fin, cube)
    before = {(s.spin, s.transition): s.intensity for s in eq_sticks}
    after = {(s.spin, s.transition): s.intensity for s in fin_sticks}
    ok = all(v == 1 for v in before.values())
    ok = ok and set(after.values()) <= {-2, -1, 0, 1, 2}
    ok = ok and any(
        spin == 4 and before[(spin, tr)] == 1 and after[(spin, tr)] == -2
        for spin, tr in after
    )
    assert report("7 stick spectrum", ok)


def _oracle_shortest_lengths(t):
    """Breadth-first word lengths over edge transpositions, acting on positions."""
    start = tuple(range(t.level_count))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a, b in t.edges:
            child = list(s)
            child[a], child[b] = child[b], child[a]
            key = tuple(child)
            if key not in dist:
                dist[key] = dist[s] + 1
                queue.append(key)
    return dist


def test_criterion_8_brute_force_oracle():
    ok = True
    for kind in (QUADRUPOLAR_CHAIN, SPIN_HALF_HYPERCUBE):
        t = build_topology(kind, 2)
        oracle = _oracle_shortest_lengths(t)
        cl = fixed_scheme(conventional_labeling(t))
        for mapping in itertools.permutations(range(4)):
            p = Permutation(2, mapping)
            seq = synthesize_fixed_labeling(p, cl, t)
            ok = ok and len(seq) == oracle[mapping]
            ok = ok and verify_permutation(sequence_product(seq), p, cl).passed
    assert report("8 shortest-factorization oracle", ok)
