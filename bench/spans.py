"""Spans around calls into each levelpulse layer, recorded from outside.

The package's modules import each other's functions by name, so a
wrapper is installed by rebinding the name where the caller looks it up
(for example ``cli.maximal_sets`` or ``synthesizer.schedule_rounds``).
Topology's lazily computed ``edges``, ``edge_set`` and ``neighbors`` are
wrapped in place on their cached properties, so building them is charged
to the topology layer on every CLI call that first touches them.

Spans live in memory as (operation id, name, start, end, parent, error)
and are written out once, when the run ends.  A span closes in
``finally``, so one interrupted by the per-call timeout still ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent, error]
        self.stack: list[int] = []
        self.op = -1
        self.op_first = 0  # index of the current operation's first span
        self.levels_relabelled = 0
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_first = len(self.spans)
        self.stack.clear()

    def end_op(self, now: float) -> None:
        # the timer can interrupt a wrapper's own bookkeeping; any span it
        # left open ends with the operation
        for span in self.spans[self.op_first:]:
            if span[3] is None:
                span[3] = now
        self.stack.clear()

    def call(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([self.op, name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.spans[idx][5] = type(exc).__name__
            raise
        finally:
            self.spans[idx][3] = time.perf_counter()
            if self.stack and self.stack[-1] == idx:
                self.stack.pop()

    def _wrapper(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, after))

    def install(self, lp) -> None:
        """Wrap the public functions of each layer of the imported package ``lp``."""
        cli, labeler, synthesizer, simulator = lp.cli, lp.labeler, lp.synthesizer, lp.simulator

        def count_relabelled(scheme) -> None:
            self.levels_relabelled += sum(
                1 for level, label in enumerate(scheme.labeling.level_to_label) if level != label
            )

        self._rebind(cli, "parse_truth_table", "permutation.parse")
        self._rebind(cli, "maximal_sets", "permutation.decompose")
        self._rebind(cli, "build_topology", "topology.build")
        for prop in ("edges", "edge_set", "neighbors"):
            self._rebind(lp.topology.Topology.__dict__[prop], "func", "topology.build")
        for scheme, fn in (
            ("ols", "ols_quadrupolar"),
            ("pairswap", "relabel_pairswap_spin_half"),
            ("parallel", "relabel_parallel_spin_half"),
        ):
            self._rebind(synthesizer, fn, "labeler.place." + scheme, count_relabelled)
        self._rebind(labeler, "parse_labeling", "labeler.parse")
        self._rebind(labeler, "serialize_labeling", "labeler.serialize")
        self._rebind(synthesizer, "synthesize_fixed_labeling", "synthesizer.route")
        self._rebind(synthesizer, "synthesize_scheme", "synthesizer.path")
        self._rebind(synthesizer, "schedule_rounds", "synthesizer.schedule")
        self._rebind(synthesizer, "serialize_pulse_program", "synthesizer.serialize")
        self._rebind(synthesizer, "parse_pulse_program", "synthesizer.parse_program")
        self._rebind(simulator, "sequence_unitary", "simulator.unitary")
        self._rebind(simulator, "verify_permutation", "simulator.check")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, error in self.spans:
                fh.write(json.dumps([op, name, start, end, parent, error]) + "\n")

    def summary(self) -> dict:
        """Self time (ms) and calls per span name, plus error counts.

        A span's self time is its duration minus the durations of its
        direct children; wrappers never overlap within one parent.
        """
        child_time = [0.0] * len(self.spans)
        for op, name, start, end, parent, error in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        innermost_timeout: dict[int, str] = {}
        for idx, (op, name, start, end, parent, error) in enumerate(self.spans):
            self_ms[name] += (end - start - child_time[idx]) * 1000.0
            calls[name] += 1
            if error:
                errors[name + ":" + error] += 1
            if error == "OpTimeout":
                innermost_timeout[op] = name  # later spans of an op are deeper or later
        timeouts: dict[str, int] = defaultdict(int)
        for name in innermost_timeout.values():
            timeouts[name.split(".", 1)[0]] += 1
        return {
            "self_ms": dict(self_ms),
            "calls": dict(calls),
            "errors": dict(errors),
            "timeouts": dict(timeouts),
            "levels_relabelled": self.levels_relabelled,
        }
