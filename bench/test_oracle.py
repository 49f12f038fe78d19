"""Tests of the benchmark's own oracle, lower bounds and naive routing count.

Run with ``PYTHONPATH=src python -m pytest bench/test_oracle.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
from levelpulse import cli  # noqa: E402
from workloads import (  # noqa: E402
    CHAIN_SCHEMES,
    FULL_ADDER4,
    HYPERCUBE_SCHEMES,
    PLACEMENT_SCHEMES,
    paper_mappings,
    table_text,
)

PAIRS = [("chain", s) for s in CHAIN_SCHEMES] + [("hypercube", s) for s in HYPERCUBE_SCHEMES]


def _compile(tmp_path: Path, mapping, topology: str, scheme: str) -> tuple[str, str]:
    table = tmp_path / "op.tt"
    table.write_text(table_text(mapping, 4), encoding="utf-8")
    out = tmp_path / "{}-{}".format(topology, scheme)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["compile", "--topology", topology, "--labeling", scheme, str(table), "--output", str(out)])
    assert code == 0
    return (out / "labeling.txt").read_text(), (out / "program.txt").read_text()


def _pulse_lines(program: str) -> list[str]:
    return [ln for ln in program.splitlines() if ln.split("#", 1)[0].strip()]


def test_fulladder_table_matches_the_package():
    from levelpulse import builtin_operation, compose

    assert builtin_operation("fulladder4").mapping == FULL_ADDER4
    swapped = compose(builtin_operation("fulladder4"), builtin_operation("swap:2,4", 4))
    assert dict(paper_mappings())["fulladder4-swap24"] == swapped.mapping


@pytest.mark.parametrize("topology,scheme", PAIRS)
@pytest.mark.parametrize("name,mapping", paper_mappings())
def test_bounds_and_naive_count_hold_for_the_paper_operations(tmp_path, topology, scheme, name, mapping):
    labeling, program = _compile(tmp_path, mapping, topology, scheme)
    check = oracle.replay(mapping, 4, topology, labeling, program)
    assert check.ok, check.problem
    labels = oracle.parse_labeling(labeling, 4)
    if scheme in PLACEMENT_SCHEMES:
        bound = oracle.transposition_bound(mapping)
        assert check.pulses == bound
    else:
        bound = oracle.fixed_bound(mapping, topology, labels)
    assert bound <= check.pulses <= oracle.naive_count(mapping, topology, labels)


def test_gray_chain_bound_is_the_published_discrepancy():
    gray = tuple(i ^ (i >> 1) for i in range(16))
    counts = [oracle.fixed_bound(m, oracle.CHAIN, gray) for _, m in paper_mappings()]
    assert counts == [12, 28]
    assert oracle.transposition_bound(FULL_ADDER4) == 8


def test_hypercube_bound_and_naive_count_on_an_antipodal_swap():
    # swapping |00> and |11> on the square needs three pulses
    mapping = (3, 1, 2, 0)
    labels = (0, 1, 2, 3)
    assert oracle.fixed_bound(mapping, oracle.HYPERCUBE, labels) == 2
    assert oracle.naive_count(mapping, oracle.HYPERCUBE, labels) == 3
    program = "1  pi_y  0  1\n2  pi_y  1  3\n3  pi_y  0  1\n"
    table = "0  00\n1  01\n2  10\n3  11\n"
    assert oracle.replay(mapping, 2, oracle.HYPERCUBE, table, program).ok


@pytest.mark.parametrize("topology,scheme", PAIRS)
def test_oracle_rejects_each_dropped_pulse(tmp_path, topology, scheme):
    labeling, program = _compile(tmp_path, FULL_ADDER4, topology, scheme)
    lines = _pulse_lines(program)
    assert lines
    for i in range(len(lines)):
        mutant = "\n".join(lines[:i] + lines[i + 1:])
        assert not oracle.replay(FULL_ADDER4, 4, topology, labeling, mutant).ok


def test_oracle_rejects_a_reordered_non_commuting_pair(tmp_path):
    labeling, program = _compile(tmp_path, FULL_ADDER4, "chain", "cl")
    pulses = [tuple(ln.split()[2:4]) for ln in _pulse_lines(program)]

    def serial(seq) -> str:  # one pulse per round, so only the order matters
        return "\n".join("{}  pi_y  {}  {}".format(k, a, b) for k, (a, b) in enumerate(seq, 1))

    assert oracle.replay(FULL_ADDER4, 4, "chain", labeling, serial(pulses)).ok
    # two pulses sharing a level with nothing between them touching either:
    # swapping them swaps two non-commuting factors and nothing else
    for i in range(len(pulses)):
        for j in range(i + 1, len(pulses)):
            if set(pulses[i]) & set(pulses[j]):
                break
        else:
            continue
        between = {lv for p in pulses[i + 1:j] for lv in p}
        if between & (set(pulses[i]) | set(pulses[j])):
            continue
        mutant = list(pulses)
        mutant[i], mutant[j] = mutant[j], mutant[i]
        assert not oracle.replay(FULL_ADDER4, 4, "chain", labeling, serial(mutant)).ok
        return
    pytest.fail("no non-commuting pair found")


def test_oracle_rejects_a_pulse_off_the_topology_and_a_crowded_round():
    table = "0  00\n1  01\n2  10\n3  11\n"
    identity = (0, 1, 2, 3)
    twice = "1  pi_y  0  3\n2  pi_y  0  3\n"
    assert "not a transition" in oracle.replay(identity, 2, oracle.HYPERCUBE, table, twice).problem
    crowded = "1  pi_y  0  1\n1  pi_y  1  3\n"
    assert "reuses a level" in oracle.replay((1, 3, 2, 0), 2, oracle.HYPERCUBE, table, crowded).problem
