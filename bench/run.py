"""levelpulse compile-and-verify benchmark.

    python3 bench/run.py --workload chain-fixed --seed 1 --seconds 35 --trace 0

Runs one workload as a single-client closed loop in a fresh interpreter
(``worker.py``) and prints every metric by name and unit; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters set up per untraced run; setup_s is their median
DEADLINE_S = 170.0  # every child must have ended by then
# spans whose summed self time should exceed any other span's, per workload
EXPECTED_LEADER = {
    "chain-fixed": ("synthesizer.schedule", "simulator.unitary"),
    "placement": ("labeler.place.ols", "labeler.place.pairswap", "labeler.place.parallel"),
    "hypercube-route": ("synthesizer.route",),
}
# spans recorded by spans.Tracer; each gives a <layer>.<name>_ms and _calls metric
SPANS = (
    "cli",
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
    "simulator.unitary",
    "simulator.check",
)


def _metric_names(span: str) -> tuple[str, str]:
    """'labeler.place.ols' -> ('labeler.place_ms.ols', 'labeler.place_calls.ols')."""
    layer, _, rest = span.partition(".")
    head, _, tail = (rest or "self").partition(".")
    suffix = "." + tail if tail else ""
    return "{}.{}_ms{}".format(layer, head, suffix), "{}.{}_calls{}".format(layer, head, suffix)


def _spawn(args, extra: list[str], result: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result),
    ] + extra
    # one BLAS thread: the single client runs one call at a time, and an idle
    # BLAS worker spinning on a shared 2-core machine stalled verify calls
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code {}".format(proc.returncode))
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _class_at(records: list[dict], key: str, q: int) -> str:
    """Class of the sample at the q-th percentile rank, to show where a percentile falls."""
    ranked = sorted((r for r in records if key in r), key=lambda r: r[key])
    if not ranked:
        return "-"
    r = ranked[min(len(ranked) - 1, round(q / 100 * (len(ranked) - 1)))]
    return "{} N={} {} ({})".format(r["topology"], r["n"], r["scheme"], r["kind"])


def _jobs_per_s(recs: list[dict]) -> float:
    """Passed operations per second spent inside the CLI calls."""
    busy_s = sum(r["compile_ms"] + r.get("verify_ms", 0.0) for r in recs) / 1000.0
    return sum(1 for r in recs if r["outcome"] == "passed") / busy_s


def end_to_end(data: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    recs = data["records"]
    passes = data["passes"]
    passed = [r for r in recs if r["outcome"] == "passed"]
    compile_ms = [r["compile_ms"] for r in recs]
    verify_ms = [r["verify_ms"] for r in recs if "verify_ms" in r]
    pulses = sum(r["pulses"] if r["outcome"] == "passed" else r["naive"] for r in recs)
    rounds = sum(r["rounds"] if r["outcome"] == "passed" else r["naive"] for r in recs)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (_jobs_per_s(recs), "1/s"),
        "compile_ms_p50": (_pct(compile_ms, 50), "ms"),
        "compile_ms_p90": (_pct(compile_ms, 90), "ms"),
        "verify_ms_p50": (_pct(verify_ms, 50), "ms"),
        "pass_ratio": (len(passed) / len(recs), "ratio"),
        "pulses": (pulses / passes, "count"),
        "rounds": (rounds / passes, "count"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }


def per_layer(data: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of the traced loop, each per pass over the batch."""
    tr = data["trace"]
    passes = data["traced_passes"]
    out: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        ms_name, calls_name = _metric_names(span)
        out[ms_name] = (tr["self_ms"].get(span, 0.0) / passes, "ms")
        out[calls_name] = (tr["calls"].get(span, 0) / passes, "count")
    errors = tr["errors"]
    relabel = sum(v for k, v in errors.items() if k.startswith("labeler.place.") and k.endswith(":RelabelError"))
    out["labeler.relabel_errors"] = (relabel / passes, "count")
    out["labeler.levels_relabelled"] = (tr["levels_relabelled"] / passes, "count")
    out["labeler.timeouts"] = (tr["timeouts"].get("labeler", 0) / passes, "count")
    out["synthesizer.timeouts"] = (tr["timeouts"].get("synthesizer", 0) / passes, "count")
    out["synthesizer.synthesis_errors"] = (errors.get("synthesizer.route:SynthesisError", 0) / passes, "count")
    passed = [r for r in data["traced_records"] if r["outcome"] == "passed"]
    at_bound = sum(1 for r in passed if r["pulses"] == r["bound"])
    out["synthesizer.at_bound_ratio"] = (at_bound / len(passed) if passed else 0.0, "ratio")
    out["trace.overhead_ratio"] = (_jobs_per_s(data["records"]) / _jobs_per_s(data["traced_records"]), "ratio")
    return out


def _print_failures(workload: str, recs: list[dict]) -> None:
    seen: Counter = Counter()
    info = {}
    for r in recs:
        if r["outcome"] != "passed":
            key = (r["index"], r["reason"])
            seen[key] += 1
            info[key] = r
    reasons = Counter(r["reason"].split(" error:")[0] for r in recs if r["outcome"] != "passed")
    print("failures: {} of {} attempted; by reason: {}".format(
        sum(seen.values()), len(recs), dict(reasons) or "none"))
    for (index, reason), times in sorted(seen.items()):
        r = info[(index, reason)]
        print("  failure workload={} N={} topology={} scheme={} input={} outcome={} x{}: {}".format(
            workload, r["n"], r["topology"], r["scheme"], index, r["outcome"], times, reason))


def _print_leaders(workload: str, self_ms: dict[str, float]) -> None:
    ranked = sorted(((v, k) for k, v in self_ms.items()), reverse=True)
    total = sum(self_ms.values()) or 1.0
    print("self time by span: " + ", ".join(
        "{} {:.0f} ms ({:.0%})".format(k, v, v / total) for v, k in ranked[:6]))
    expected = EXPECTED_LEADER[workload]
    group = sum(self_ms.get(k, 0.0) for k in expected)
    other_ms, other = next((v, k) for v, k in ranked if k not in expected)
    print("leading layer check: {} {:.0f} ms against the largest other span, {} {:.0f} ms: {}".format(
        " + ".join(expected), group, other, other_ms, "met" if group > other_ms else "NOT MET"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "levelpulse" / "__init__.py").is_file():
        print("error: levelpulse sources not found under {}".format(ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result-{}.json".format(os.getpid())
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, ["--setup-only"], result, deadline)["setup_s"])
        data = _spawn(args, [], result, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    setups.append(data["setup_s"])

    recs = data["records"] if not args.trace else data["traced_records"]
    checked = data["warmups"] + data["records"] + data.get("traced_records", [])
    correct = all(r["outcome"] != "wrong" for r in checked)
    print("workload: {} ({})".format(args.workload, WORKLOADS[args.workload].why))
    print("seed: {}  passes: {}  batch: {} operations  compile budget: {} s".format(
        args.seed, data["traced_passes"] if args.trace else data["passes"],
        data["batch_size"], WORKLOADS[args.workload].budget_s))
    _print_failures(args.workload, recs)
    if args.trace:
        metrics = per_layer(data)
        _print_leaders(args.workload, data["trace"]["self_ms"])
    else:
        metrics = end_to_end(data, setups)
        for key, q in (("compile_ms", 50), ("compile_ms", 90), ("verify_ms", 50)):
            print("{}_p{} falls in {}".format(key, q, _class_at(recs, key, q)))
    for name, (value, unit) in metrics.items():
        print("{} = {:.6g} {}".format(name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": sum(1 for r in recs if r["outcome"] == "wrong"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
