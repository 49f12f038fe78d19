import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FULL_ADDER_DOC
from levelpulse import cli, labeler

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    # an absolute src path keeps the package importable from any cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "levelpulse.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_import_loads_no_numpy():
    # numpy is a test-only dependency; the runtime is the standard library,
    # and fractions and decimal load only when exact populations are asked for
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (
        "import sys, levelpulse.cli; "
        "sys.exit(any(m in sys.modules for m in ('numpy', 'fractions', 'decimal')))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_compile_adder_optimal_chain():
    result = run_cli("compile", "--topology", "chain", "--labeling", "ols", "fulladder4")
    assert result.returncode == 0
    assert "pulses: 8" in result.stdout
    assert "labeling-table:" in result.stdout
    assert "pulse-program:" in result.stdout


def test_compile_adder_gray_chain_flagged_count():
    # minimal routing under reflected gray needs 12 pulses; the published
    # benchmark of 10 assumed a different gray sequence (see compare notes)
    result = run_cli("compile", "--topology", "chain", "--labeling", "gray", "fulladder4")
    assert result.returncode == 0
    assert "pulses: 12" in result.stdout


def test_compile_identity_empty_program(tmp_path):
    # the file name shadowing a builtin prefix must not confuse inference
    doc = tmp_path / "identity_table.tt"
    doc.write_text("qubits: 2\n00 -> 00\n01 -> 01\n10 -> 10\n11 -> 11\n")
    result = run_cli("compile", str(doc), cwd=tmp_path)
    assert result.returncode == 0
    assert "pulses: 0" in result.stdout
    assert "(empty)" in result.stdout


def test_compile_writes_output_files(tmp_path):
    out = tmp_path / "build"
    result = run_cli(
        "compile", "--topology", "hypercube", "--labeling", "parallel",
        "fulladder4", "--output", str(out),
    )
    assert result.returncode == 0
    for name in ("report.txt", "labeling.txt", "program.txt"):
        assert (out / name).exists()
    report = (out / "report.txt").read_text()
    assert "pulses: 8" in report
    assert "rounds: 2" in report


def test_compile_parse_error_exit_code(tmp_path):
    doc = tmp_path / "broken.tt"
    doc.write_text("qubits: 2\n00 -> 00\n01 -> 00\n10 -> 10\n11 -> 11\n")
    result = run_cli("compile", str(doc))
    assert result.returncode == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "command", [("compile",), ("verify", "--program", "p.txt", "--labeling-table", "l.txt")]
)
def test_non_utf8_operation_file_exit_2_without_traceback(tmp_path, command):
    doc = tmp_path / "bin.tt"
    doc.write_bytes(b"\xff\xfe\x00bad")
    result = run_cli(*command, str(doc), cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "{}: not UTF-8 text".format(doc) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("option", ["--program", "--labeling-table"])
def test_non_utf8_verify_file_named_in_error(tmp_path, option):
    assert run_cli("compile", "fulladder4", "--output", "out", cwd=tmp_path).returncode == 0
    files = {"--program": "out/program.txt", "--labeling-table": "out/labeling.txt"}
    (tmp_path / "bin.txt").write_bytes(b"\xff\xfe\x00bad")
    files[option] = "bin.txt"
    argv = [arg for pair in files.items() for arg in pair]
    result = run_cli("verify", *argv, "fulladder4", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr == "error: bin.txt: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize(
    "count", ["11", "50000000", "9" * 5000], ids=["11", "50000000", "5000-digits"]
)
def test_oversized_qubit_header_exit_2(tmp_path, count):
    # refused at the header: no 2^N-row scan, no N-bit ket in the message
    doc = tmp_path / "big.tt"
    doc.write_text("qubits: {}\n".format(count))
    result = run_cli("compile", str(doc))
    assert result.returncode == 2
    assert result.stderr == "error: qubit count must be at most 10\n"


def test_compare_composed_operations():
    result = run_cli("compare", "--topology", "chain", "fulladder4", "swap:2,4")
    assert result.returncode == 0
    assert "ols  12  " in result.stdout
    assert "cl  24  " in result.stdout
    assert "gray  28  " in result.stdout
    assert "note: gray count 28 differs from the published benchmark 26" in result.stdout


def test_compare_swap_then_adder():
    result = run_cli("compare", "--topology", "chain", "swap:2,4", "fulladder4")
    assert result.returncode == 0
    assert "ols  12  " in result.stdout


def test_compare_identity_zeroes():
    result = run_cli("compare", "identity:4")
    assert result.returncode == 0
    assert "ols  0  0" in result.stdout
    assert "cl  0  0" in result.stdout


def test_verify_round_trip(tmp_path):
    out = tmp_path / "build"
    run_cli(
        "compile", "--topology", "hypercube", "--labeling", "parallel",
        "fulladder4", "--output", str(out),
    )
    result = run_cli(
        "verify", "--topology", "hypercube",
        "--program", str(out / "program.txt"),
        "--labeling-table", str(out / "labeling.txt"),
        "fulladder4",
    )
    assert result.returncode == 0
    assert "verdict: PASS" in result.stdout


def test_verify_detects_missing_pulse(tmp_path):
    out = tmp_path / "build"
    run_cli(
        "compile", "--topology", "hypercube", "--labeling", "parallel",
        "fulladder4", "--output", str(out),
    )
    program = out / "program.txt"
    lines = program.read_text().strip().splitlines()
    program.write_text("\n".join(lines[:-1]) + "\n")
    result = run_cli(
        "verify", "--topology", "hypercube",
        "--program", str(program),
        "--labeling-table", str(out / "labeling.txt"),
        "fulladder4",
    )
    assert result.returncode == 4
    assert "verdict: FAIL" in result.stdout
    assert "problem:" in result.stdout


def test_verify_accepts_commuting_reorder(tmp_path):
    out = tmp_path / "build"
    run_cli(
        "compile", "--topology", "hypercube", "--labeling", "parallel",
        "fulladder4", "--output", str(out),
    )
    program = out / "program.txt"
    lines = program.read_text().strip().splitlines()
    lines[0], lines[1] = lines[1], lines[0]  # same round, disjoint levels
    program.write_text("\n".join(lines) + "\n")
    result = run_cli(
        "verify", "--topology", "hypercube",
        "--program", str(program),
        "--labeling-table", str(out / "labeling.txt"),
        "fulladder4",
    )
    assert result.returncode == 0
    assert "verdict: PASS" in result.stdout


PARALLEL_ADDER_LABELING = """\
0  0000
1  0001
2  0010
3  0011
4  0100
5  0111
6  0101
7  0110
8  1000
9  1011
10  1001
11  1010
12  1100
13  1101
14  1110
15  1111
"""

PARALLEL_ADDER_PROGRAM = """\
1  pi_y  4  5  # |0100> <-> |0111>
1  pi_y  6  7  # |0101> <-> |0110>
1  pi_y  8  9  # |1000> <-> |1011>
1  pi_y  10  11  # |1001> <-> |1010>
1  pi_y  12  13  # |1100> <-> |1101>
1  pi_y  14  15  # |1110> <-> |1111>
2  pi_y  5  7  # |0111> <-> |0110>
2  pi_y  9  11  # |1011> <-> |1010>
"""


def test_verify_golden_output(tmp_path):
    # pulses (5, 7) and (9, 11) carry labels against their level order,
    # so the phases pin the label-order sign rule
    (tmp_path / "labeling.txt").write_text(PARALLEL_ADDER_LABELING)
    (tmp_path / "program.txt").write_text(PARALLEL_ADDER_PROGRAM)
    result = run_cli(
        "verify", "--topology", "hypercube",
        "--program", str(tmp_path / "program.txt"),
        "--labeling-table", str(tmp_path / "labeling.txt"),
        "fulladder4",
    )
    assert result.returncode == 0
    assert result.stdout == (
        "command: verify\n"
        "operation: fulladder4\n"
        "verdict: PASS\n"
        "realized: 0 1 2 3 7 4 5 6 11 8 9 10 13 12 15 14\n"
        "phases: +1 +1 +1 +1 -1 -1 +1 -1 -1 -1 +1 -1 +1 -1 +1 -1\n"
    )


PARALLEL_ADDER_SWAP_PROGRAM = """\
1  pi_y  4  5  # |0001> <-> |0111>
1  pi_y  6  7  # |0101> <-> |0100>
1  pi_y  12  14  # |0110> <-> |0011>
1  pi_y  8  10  # |1000> <-> |1011>
1  pi_y  9  11  # |1111> <-> |1010>
1  pi_y  0  1  # |1110> <-> |1100>
1  pi_y  2  3  # |1101> <-> |1001>
2  pi_y  5  7  # |0111> <-> |0100>
2  pi_y  6  14  # |0101> <-> |0011>
2  pi_y  10  11  # |1011> <-> |1010>
2  pi_y  1  9  # |1100> <-> |1111>
2  pi_y  0  2  # |1110> <-> |1101>
"""


def test_compile_parallel_adder_swap_golden_two_rounds(tmp_path):
    # the 4-cycles and pairs of adder then swap:2,4 all run in coxeter order
    out = tmp_path / "build"
    ops = ("fulladder4", "swap:2,4")
    result = run_cli(
        "compile", "--topology", "hypercube", "--labeling", "parallel", *ops,
        "--output", str(out),
    )
    assert result.returncode == 0
    assert "pulses: 12\nrounds: 2\n" in result.stdout
    assert (out / "program.txt").read_text() == PARALLEL_ADDER_SWAP_PROGRAM
    result = run_cli(
        "verify", "--topology", "hypercube", *ops,
        "--program", str(out / "program.txt"),
        "--labeling-table", str(out / "labeling.txt"),
    )
    assert result.returncode == 0
    assert "verdict: PASS" in result.stdout


def test_spectrum_parallel_adder():
    result = run_cli(
        "spectrum", "--topology", "hypercube", "--labeling", "parallel", "fulladder4"
    )
    assert result.returncode == 0
    body = result.stdout
    eq_part = body.split("equilibrium:")[1].split("final:")[0]
    fin_part = body.split("final:")[1]
    eq_vals = [line.split()[-1] for line in eq_part.strip().splitlines()[1:]]
    assert set(eq_vals) == {"+1"}
    fin_vals = {line.split()[-1] for line in fin_part.strip().splitlines()[1:]}
    assert fin_vals <= {"-2", "-1", "+0", "+1", "+2"}
    assert "-2" in fin_vals


def test_spectrum_identity_final_equals_equilibrium():
    result = run_cli("spectrum", "--topology", "hypercube", "--labeling", "cl", "identity:4")
    assert result.returncode == 0
    eq_part = result.stdout.split("equilibrium:")[1].split("final:")[0].strip()
    fin_part = result.stdout.split("final:")[1].strip()
    assert eq_part == fin_part


def test_spectrum_ascii_bars():
    result = run_cli(
        "spectrum", "--topology", "hypercube", "--labeling", "cl", "identity:2", "--ascii"
    )
    assert result.returncode == 0
    assert "+1  |#" in result.stdout


# sha256 of the spectrum stdout for fulladder4 swap:2,4 under cl labeling
SPECTRUM_CL_DIGESTS = {
    "chain": "0debd66220ed15ad428802fa914d4c6ad027881ef479602b355a74e48d262466",
    "hypercube": "b1fd0d75393194bec5f91f15d49645c0070a5fd93255e01fc6646e6c893ea4fc",
}


@pytest.mark.parametrize("topology", sorted(SPECTRUM_CL_DIGESTS))
def test_spectrum_does_not_route(topology, monkeypatch, capsys):
    # a spectrum needs the labeling only, never the routed program
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum routed the program")

    monkeypatch.setattr(cli.synthesizer, "synthesize_fixed_labeling", refuse)
    argv = ["spectrum", "--topology", topology, "--labeling", "cl", "fulladder4", "swap:2,4"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_CL_DIGESTS[topology]


@pytest.mark.parametrize("command", ["compile", "spectrum"])
@pytest.mark.parametrize(
    "topology, labeling, message",
    [
        ("chain", "pairswap", "quadrupolar_chain (choose from ols, cl, gray)"),
        ("hypercube", "gray", "spin_half_hypercube (choose from pairswap, parallel, cl)"),
    ],
)
def test_labeling_must_suit_topology(command, topology, labeling, message, capsys):
    argv = [command, "--topology", topology, "--labeling", labeling, "fulladder4"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    err = "error: labeling {!r} is not valid for {}\n".format(labeling, message)
    assert (captured.out, captured.err) == ("", err)


def test_antipodal_hypercube_cl_round_trip(tmp_path):
    # antipodal swap on the 4-qubit hypercube: routing needs transit pulses
    # and always succeeds, and the emitted program verifies
    rows = ["qubits: 4"]
    for i in range(16):
        j = {0: 15, 15: 0}.get(i, i)
        rows.append("{:04b} -> {:04b}".format(i, j))
    doc = tmp_path / "antipodal.tt"
    doc.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    result = run_cli(
        "compile", "--topology", "hypercube", "--labeling", "cl",
        "--output", str(out), str(doc),
    )
    assert result.returncode == 0
    assert "pulses: 7" in result.stdout.splitlines()
    check = run_cli(
        "verify", "--topology", "hypercube",
        "--program", str(out / "program.txt"),
        "--labeling-table", str(out / "labeling.txt"), str(doc),
    )
    assert check.returncode == 0
    assert "verdict: PASS" in check.stdout


def test_enumerate_with_limit_and_show():
    result = run_cli("enumerate", "fulladder4", "--limit", "5", "--show", "2")
    assert result.returncode == 0
    assert "formula-count: 645120" in result.stdout
    assert "enumerated: 5" in result.stdout
    assert result.stdout.count("scheme ") == 2


# sha256 of the enumerate stdout per option list, the same whether every
# scheme is built or only the shown ones
ENUMERATE_DIGESTS = {
    ("--show", "0"): "18d58b0cb01091d6210f1b41eda0bc8876a236b8e0c0c08cd490ea6a9b89330f",
    ("--limit", "5", "--show", "2"): "00fc031b2509587a36fb81ee05e11595cce8b0c21f842862a07eab116512cb9c",
    ("--limit", "10", "--show", "3"): "f14a297cf12234a86c7ec77df41e026b7796eb902c137e05845c24226356d66f",
}


@pytest.mark.parametrize(
    "argv", [["identity:10"], ["identity:4", "--limit", str(10**30)]]
)
def test_enumerate_counts_the_family_in_closed_form(argv, capsys):
    # 16! and 1024! layouts: far too many to count one by one
    assert cli.main(["enumerate", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    formula = [line.split(": ", 1)[1] for line in lines if line.startswith("formula-count: ")]
    enumerated = [line.split(": ", 1)[1] for line in lines if line.startswith("enumerated: ")]
    assert len(formula) == len(enumerated) == 1
    assert enumerated == formula


@pytest.mark.parametrize("options", sorted(ENUMERATE_DIGESTS))
def test_enumerate_builds_only_the_schemes_it_shows(options, monkeypatch, capsys):
    built = []
    contiguous = labeler._contiguous_scheme
    monkeypatch.setattr(
        labeler, "_contiguous_scheme", lambda *args: built.append(args) or contiguous(*args)
    )
    assert cli.main(["enumerate", "fulladder4", *options]) == 0
    out = capsys.readouterr().out
    assert len(built) == out.count("scheme ") <= int(options[-1])
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[options]


@pytest.mark.parametrize(
    "args",
    [
        ("compile", "identity:11"),
        ("compile", "--qubits", "11", "swap:1,2"),
        ("compile", "identity:x"),
        ("enumerate", "fulladder4", "--limit", "0"),
        ("enumerate", "fulladder4", "--show", "-1"),
        ("enumerate", "identity:11"),
        ("compile", "--qubits", "2", "swap:1,1"),
    ],
)
def test_hard_edges_exit_2_without_traceback(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "error:" in result.stderr.strip().splitlines()[-1]
    assert "Traceback" not in result.stderr


def test_every_subcommand_refuses_depth_cap():
    # routing cannot fail, so no subcommand takes a depth cap
    for command in (
        ("compile",),
        ("verify", "--program", "p", "--labeling-table", "l"),
        ("compare",),
        ("spectrum",),
        ("enumerate",),
    ):
        result = run_cli(*command, "--depth-cap", "1", "fulladder4")
        assert result.returncode == 2, command
        assert "unrecognized arguments: --depth-cap" in result.stderr
        assert "Traceback" not in result.stderr


def test_exit_codes_documented_as_defined():
    # README and the cli docstring list exactly the exit codes cli defines
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    defined = {cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_VERIFY}
    for doc in (readme, cli.__doc__):
        sentence = re.search(r"Exit codes:(.*?)\.", doc, re.DOTALL)
        assert sentence is not None
        assert {int(code) for code in re.findall(r"\d+", sentence.group(1))} == defined


def test_labeling_rejected_for_wrong_topology():
    result = run_cli("compile", "--topology", "hypercube", "--labeling", "gray", "fulladder4")
    assert result.returncode == 2


def test_deterministic_output(tmp_path):
    doc = tmp_path / "adder.tt"
    doc.write_text(FULL_ADDER_DOC)
    first = run_cli("compile", "--topology", "chain", "--labeling", "ols", str(doc))
    second = run_cli("compile", "--topology", "chain", "--labeling", "ols", str(doc))
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


SCHEME_PAIRS = (
    ("chain", "ols"),
    ("chain", "cl"),
    ("chain", "gray"),
    ("hypercube", "pairswap"),
    ("hypercube", "parallel"),
    ("hypercube", "cl"),
)

# sha256 per scheme pair over the compile and verify stdout of
# test_compile_verify_stdout_digest; a hypercube cl program is the best of
# the phased token router's eight cube-symmetric starts and the per-orbit
# factorization, which keeps each exact orbit's shallowest tree read-out;
# a hypercube pairswap set is pulsed as its shallowest tree the same way,
# unless the greedy descent dead-ends, as on the seeded N = 5 and 6 tables,
# and the scheme takes parallel's Gray layout in Coxeter order
ROUND_TRIP_DIGESTS = {
    ("chain", "ols"): "06419d500a474c83fedded0dfb6365351c8539d68a653d2ba88ef31cb7b8d33a",
    ("chain", "cl"): "8882140fded79e73e17fd9642851130a377896f81271d9459262946b8d710e3d",
    ("chain", "gray"): "2758b53f3a0b2de6385b75a07fcc5151a8dc099848efaadd61b3ad2961d366a2",
    ("hypercube", "pairswap"): "8cd1e87c53b06a999763bcc6dd4e29e1b3a9832e6b474308bc7265e8087c909f",
    ("hypercube", "parallel"): "92e36772daa8d486e098fc79fb399d4058a0ea020cc7660950d6cca0a34fae59",
    ("hypercube", "cl"): "6e4c853b8fb718424eee67f0a9ef3172501bc98af230568b1b98e820d9626433",
}


def _write_random_tables(rng, sizes):
    # two seeded random truth-table files per qubit count, in the cwd
    operations = []
    for n in sizes:
        for k in range(2):
            mapping = list(range(1 << n))
            rng.shuffle(mapping)
            name = "random{}_{}.tt".format(n, k)
            rows = ["{:0{n}b} -> {:0{n}b}\n".format(i, j, n=n) for i, j in enumerate(mapping)]
            Path(name).write_text("qubits: {}\n{}".format(n, "".join(rows)))
            operations.append((name,))
    return operations


def _round_trip_digests(operations, pairs):
    # sha256 per scheme pair over the in-process compile and verify stdout
    digests = {pair: hashlib.sha256() for pair in pairs}
    for ops in operations:
        for topology, labeling in pairs:
            common = ["--topology", topology, *ops]
            for argv in (
                ["compile", "--labeling", labeling, "--output", "out", *common],
                ["verify", "--program", "out/program.txt",
                 "--labeling-table", "out/labeling.txt", *common],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(argv) == 0
                digests[topology, labeling].update(out.getvalue().encode())
    return {pair: d.hexdigest() for pair, d in digests.items()}


def test_compile_verify_stdout_digest(tmp_path, monkeypatch):
    # pins the labeling tables, pulse programs and verdicts of every scheme
    # byte for byte: the adder, the adder then swap:2,4 and two seeded
    # random tables per N = 2..6, each compiled and verified in-process
    monkeypatch.chdir(tmp_path)
    operations = [("fulladder4",), ("fulladder4", "swap:2,4")]
    operations += _write_random_tables(random.Random(2026), range(2, 7))
    assert _round_trip_digests(operations, SCHEME_PAIRS) == ROUND_TRIP_DIGESTS


# sha256 per scheme pair over test_long_program_stdout_digest
LONG_PROGRAM_DIGESTS = {
    ("chain", "cl"): "07bf7ed0d3f46eba9b8afb5464afa73ea3847f29f6065a942aab66846a4b7680",
    ("chain", "gray"): "4a2bfc6dc1a70d9761da6a33d44868bbb6306a2d3dfd09ddc082c59b1e2fe371",
    ("hypercube", "cl"): "b7e54135019fdb9bef77768f2964e0553cff5a1a8a2555efbc7e7d3d65dbfe2a",
    ("hypercube", "pairswap"): "9d597a3c581987ef6f0a749fd85faec6964e2cff05931bc7f727735017f8afb0",
    ("hypercube", "parallel"): "9b914551e064d87a9ef70a7e24c672363e0fdb84d51c94b692e9de02f8d33f15",
}


def test_long_program_stdout_digest(tmp_path, monkeypatch):
    # two seeded random tables per N = 7, 8.  Chain cl and gray emit about
    # 2^N (2^N - 1) / 4 pulses over at most 2^N - 1 transitions, so every
    # transition repeats many times in each program; the hypercube pairs
    # pin the longest tree read-outs and placement chains
    monkeypatch.chdir(tmp_path)
    operations = _write_random_tables(random.Random(2026), (7, 8))
    assert _round_trip_digests(operations, tuple(LONG_PROGRAM_DIGESTS)) == LONG_PROGRAM_DIGESTS
