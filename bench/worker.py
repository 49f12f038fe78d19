"""One workload in one fresh interpreter: set up, run the closed loop, report.

Started by ``run.py``; not meant to be run by hand.  Set-up covers
importing levelpulse, writing the seed's truth tables and one untimed
warm-up operation per (topology, N, scheme) class.  The loop then runs
whole passes over the batch with a single client: each operation is an
in-process ``levelpulse.cli.main(["compile", ...])`` followed by
``main(["verify", ...])`` on the files just written, both with stdout
captured, and the oracle's replay of those files.  Each CLI call runs
under an interval-timer budget (SIGALRM), with no threads or helper
processes.  The raw per-operation records go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import PLACEMENT_SCHEMES, WORKLOADS, Op, make_batch, warmup_ops  # noqa: E402

# verify replays a fixed-size dense simulation and never searches, so it
# gets one generous budget everywhere; compile budgets are per workload
VERIFY_BUDGET_S = 2.0
# warm-up inputs are fixed and known to finish; they build the caches that
# the timed calls then reuse, such as the hypercube Cayley table for N <= 3
WARMUP_BUDGET_S = 30.0


class OpTimeout(Exception):
    """The interval timer fired before a CLI call returned."""


def _alarm(signum, frame):
    raise OpTimeout()


class Client:
    """Runs operations through the CLI entry point, one at a time."""

    def __init__(self, cli, budget_s: float, outdir: Path, tracer: Tracer | None = None):
        self.cli = cli
        self.budget_s = budget_s  # for compile calls
        self.outdir = outdir
        self.tracer = tracer

    def _call(self, argv: list[str], budget_s: float) -> tuple[object, float, str]:
        """(exit code or 'timeout' or exception name, elapsed ms, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if self.tracer is None:
                        code = self.cli.main(argv)
                    else:
                        code = self.tracer.call("cli", self.cli.main, argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            code = "timeout"
        except Exception as exc:  # a traceback the CLI let through is a defect to report
            code = "exception:" + type(exc).__name__
        elapsed = (time.perf_counter() - start) * 1000.0
        if self.tracer is not None:
            self.tracer.end_op(time.perf_counter())
        return code, elapsed, out.getvalue() + err.getvalue()

    def run(self, op: Op, op_id: int) -> dict:
        if self.tracer is not None:
            self.tracer.begin_op(op_id)
        target = self.outdir  # one directory, reused by every operation
        # compile writes new files: rewriting a file in place makes ext4 write
        # it back on close, which puts the disk's latency into the compile call
        for old in target.glob("*"):
            old.unlink()
        rec = {"index": op.index, "n": op.n, "topology": op.topology, "scheme": op.scheme, "kind": op.kind}
        # what a failure is charged: naive routing under the conventional labeling
        rec["naive"] = oracle.naive_count(op.mapping, op.topology, tuple(range(1 << op.n)))
        code, rec["compile_ms"], text = self._call(
            ["compile", "--topology", op.topology, "--labeling", op.scheme, op.table, "--output", str(target)],
            self.budget_s,
        )
        rec["compile_exit"] = code
        if code != 0:
            return _failure(rec, code, _reason(code, text))
        reported = _report_counts(text)
        code, rec["verify_ms"], text = self._call(
            [
                "verify", "--topology", op.topology,
                "--program", str(target / "program.txt"),
                "--labeling-table", str(target / "labeling.txt"),
                op.table,
            ],
            max(self.budget_s, VERIFY_BUDGET_S),
        )
        rec["verify_exit"] = code
        if code != 0:
            return _failure(rec, code, "verify " + _reason(code, text))
        labeling_text = (target / "labeling.txt").read_text(encoding="utf-8")
        check = oracle.replay(
            op.mapping, op.n, op.topology, labeling_text,
            (target / "program.txt").read_text(encoding="utf-8"),
        )
        rec["pulses"], rec["rounds"] = check.pulses, check.rounds
        if not check.ok:
            return _failure(rec, "oracle", "oracle: " + check.problem)
        if op.scheme in PLACEMENT_SCHEMES:
            rec["bound"] = oracle.transposition_bound(op.mapping)
        else:
            labels = oracle.parse_labeling(labeling_text, op.n)
            rec["bound"] = oracle.fixed_bound(op.mapping, op.topology, labels)
        if reported != (check.pulses, check.rounds):
            return _failure(rec, "oracle", "oracle: report says pulses/rounds {} but the program has {}".format(
                reported, (check.pulses, check.rounds)))
        if check.pulses < rec["bound"]:
            return _failure(rec, "oracle", "oracle: {} pulses is below the proven lower bound {}".format(
                check.pulses, rec["bound"]))
        rec["outcome"] = "passed"
        return rec


def _failure(rec: dict, code, reason: str) -> dict:
    # a timeout or a documented refusal (exit 3) leaves the operation undone;
    # any other exit, or an exception escaping the CLI, is a wrong answer
    rec["outcome"] = "failed" if code in ("timeout", 3) else "wrong"
    rec["reason"] = reason
    return rec


def _report_counts(text: str) -> tuple[int, int] | None:
    found = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key in ("pulses", "rounds") and key not in found:
            found[key] = int(value)
    if len(found) != 2:
        return None
    return found["pulses"], found["rounds"]


def _reason(code, text: str) -> str:
    if code == "timeout" or str(code).startswith("exception:"):
        return str(code)
    first = next((ln for ln in text.splitlines() if ln.startswith("error:")), "")
    return "exit {} {}".format(code, first).strip()


def run_loop(client: Client, batch: list[Op], seconds: float) -> tuple[list[dict], int]:
    """Whole passes over the batch while another one fits in ``seconds``, at least one.

    Returns the records and the number of passes.
    """
    records: list[dict] = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in batch:
            rec = client.run(op, passes * len(batch) + op.index)
            rec["pass"] = passes
            records.append(rec)
        passes += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return records, passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    import levelpulse as lp
    import levelpulse.cli  # noqa: F401

    signal.signal(signal.SIGALRM, _alarm)
    workdir = ROOT / ".bench_work" / workload.name
    batch = make_batch(workload, args.seed, workdir / "inputs")
    warm = Client(lp.cli, WARMUP_BUDGET_S, workdir / "warmup")
    warmups = [warm.run(op, -1) for op in warmup_ops(workload, workdir / "inputs")]
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "warmups": warmups}
    if not args.setup_only:
        client = Client(lp.cli, workload.budget_s, workdir / "out")
        # a traced run splits its time between an untraced and a traced loop
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, passes = run_loop(client, batch, seconds)
        result.update(records=records, passes=passes, batch_size=len(batch))
        if args.trace:
            tracer = Tracer()
            tracer.install(lp)
            try:
                traced = Client(lp.cli, workload.budget_s, workdir / "out", tracer)
                t_records, t_passes = run_loop(traced, batch, seconds)
            finally:
                tracer.uninstall()
            tracer.write(workdir / "trace.jsonl")
            result.update(traced_records=t_records, traced_passes=t_passes, trace=tracer.summary())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shutil.rmtree(workdir / "out", ignore_errors=True)
    shutil.rmtree(workdir / "warmup", ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
