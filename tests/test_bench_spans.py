"""The benchmark's tracer still finds every package name it rebinds.

``bench/spans.py`` wraps package functions by name, so a renamed or
deleted name would otherwise surface only in a traced benchmark run.
"""

import contextlib
import io
import sys
from pathlib import Path

import levelpulse as lp
from levelpulse import cli

from conftest import FULL_ADDER_DOC

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import Tracer  # noqa: E402

PAIRS = [("chain", s) for s in ("ols", "cl", "gray")] + [
    ("hypercube", s) for s in ("pairswap", "parallel", "cl")
]

LAYERS = (lp.cli, lp.labeler, lp.synthesizer, lp.simulator)
TOPOLOGY_PROPS = ("edges", "edge_set", "neighbors")


def bindings():
    names = {(m.__name__, k): v for m in LAYERS for k, v in vars(m).items()}
    for prop in TOPOLOGY_PROPS:
        names["Topology", prop] = lp.topology.Topology.__dict__[prop].func
    return names


def test_tracer_records_every_pair_and_restores_the_package(tmp_path):
    table = tmp_path / "adder.tt"
    table.write_text(FULL_ADDER_DOC, encoding="utf-8")
    before = bindings()
    tracer = Tracer()
    codes = []
    try:
        tracer.install(lp)
        original = before["levelpulse.synthesizer", "synthesize_scheme"]
        assert lp.synthesizer.synthesize_scheme.__wrapped__ is original
        for op, (topology, scheme) in enumerate(PAIRS):
            out = tmp_path / "{}-{}".format(topology, scheme)
            compile_argv = ["compile", "--topology", topology, "--labeling", scheme]
            verify_argv = ["verify", "--topology", topology, "--program",
                           str(out / "program.txt"), "--labeling-table", str(out / "labeling.txt")]
            tracer.begin_op(op)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(compile_argv + ["--output", str(out), str(table)]))
                codes.append(cli.main(verify_argv + [str(table)]))
    finally:
        tracer.uninstall()
    assert codes == [0] * 2 * len(PAIRS)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    summary = tracer.summary()
    assert summary["errors"] == {}
    assert set(summary["calls"]) == {
        "permutation.parse",
        "permutation.decompose",
        "topology.build",
        "labeler.place.ols",
        "labeler.place.pairswap",
        "labeler.place.parallel",
        "labeler.parse",
        "labeler.serialize",
        "synthesizer.route",
        "synthesizer.path",
        "synthesizer.schedule",
        "synthesizer.serialize",
        "synthesizer.parse_program",
        "simulator.check",
    }
    assert summary["calls"]["synthesizer.path"] == 3
    assert summary["calls"]["synthesizer.route"] == 3
    assert summary["levels_relabelled"] > 0
