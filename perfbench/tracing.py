"""Span tracing for the benchmark's traced run.

Each layer function is replaced, at the module attribute its caller looks it
up through, by a wrapper that records one span: which function, start, end,
the enclosing span and the operation (run id) it belongs to. Spans are kept
in flat arrays in memory and written out once, when the run ends. Nothing in
the program itself changes; `uninstall` puts every original back.

Counters that belong at the same boundaries (bytes written, rows read,
grid exclusions, bytes of MC arrays) are taken from the wrapped calls'
arguments and results.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute path, span name). A function imported by name into
# another module is wrapped where that module looks it up (for example
# `evaluate_scenario` inside `sweep` and `cli`), so the caller sees the
# wrapper; functions called through a module attribute are wrapped once, on
# their own module.
SITES = (
    ("opmdeploy.cli", "main", "cli.main"),
    ("opmdeploy.cli", "report_to_json", "cli.report_to_json"),
    ("opmdeploy.cli", "evaluate_scenario", "report.evaluate_scenario"),
    ("opmdeploy.sweep", "evaluate_scenario", "report.evaluate_scenario"),
    ("opmdeploy.report", "evaluate_scenario", "report.evaluate_scenario"),
    ("opmdeploy.sweep", "expand_and_filter", "sweep.expand_and_filter"),
    ("opmdeploy.sweep", "ScenarioParams", "scenario.ScenarioParams"),
    ("opmdeploy.sweep", "record_from_report", "sweep.record_from_report"),
    ("opmdeploy.sweep", "write_records_csv", "sweep.write_records_csv"),
    ("opmdeploy.sweep", "read_records_csv", "sweep.read_records_csv"),
    ("opmdeploy.sweep", "aggregate_sign_table", "sweep.aggregate_sign_table"),
    ("opmdeploy.sweep", "aggregate_harm_table", "sweep.aggregate_harm_table"),
    ("opmdeploy.report", "potential_outcomes", "scenario.potential_outcomes"),
    ("opmdeploy.mc", "potential_outcomes", "scenario.potential_outcomes"),
    ("opmdeploy.metrics", "discrimination", "metrics.discrimination"),
    ("opmdeploy.metrics", "calibration", "metrics.calibration"),
    ("opmdeploy.classify", "assess_harm", "classify.assess_harm"),
    ("opmdeploy.report", "DeploymentReport.checks", "classify.checks"),
    ("opmdeploy.figures", "odds_ratio_panels", "figures.odds_ratio_panels"),
    ("opmdeploy.figures", "auc_pre_panel", "figures.auc_pre_panel"),
    ("opmdeploy.mc", "sample", "mc.sample"),
    ("opmdeploy.mc", "empirical_metrics", "mc.empirical_metrics"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SITES))


def _count_expand(counts, args, result):
    counts["cardinality"] += args[0].cardinality
    counts["expanded"] += len(result)


def _count_write(counts, args, result):
    counts["retained"] += len(args[0])
    counts["csv_bytes_written"] += os.path.getsize(args[1])


def _count_read(counts, args, result):
    counts["csv_rows_read"] += len(result)


def _count_svg(counts, args, result):
    counts["svg_bytes"] += len(result.encode())


def _count_sample(counts, args, result):
    counts["mc_bytes"] += result.nbytes


def _count_empirical(counts, args, result):
    counts["mc_bytes"] += args[0].nbytes


# Counters taken after the wrapped call returns, outside its span.
_AFTER = {
    "sweep.expand_and_filter": _count_expand,
    "sweep.write_records_csv": _count_write,
    "sweep.read_records_csv": _count_read,
    "figures.odds_ratio_panels": _count_svg,
    "figures.auc_pre_panel": _count_svg,
    "mc.sample": _count_sample,
    "mc.empirical_metrics": _count_empirical,
}
COUNT_NAMES = (
    "cardinality", "expanded", "retained", "csv_bytes_written",
    "csv_rows_read", "svg_bytes", "mc_bytes",
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans while installed. Set `run_id` before each operation."""

    def __init__(self):
        self.kind = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, name: str):
        kind_id = SPAN_NAMES.index(name)
        after = _AFTER.get(name)
        kind, parent, run = self.kind, self.parent, self.run
        start, end, stack = self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, name in SITES:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> dict:
        """Calls and self time per span name, plus the summed duration of
        root spans. Self time is a span's duration minus the durations of
        its direct children, so self times over all spans add up to the
        root spans' total."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(kind, minlength=k)
        self_s = np.bincount(kind, weights=own, minlength=k)
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(SPAN_NAMES)},
            "root_s": float(dur[~nested].sum()),
            "min_self_s": float(own.min()) if len(own) else 0.0,
            "spans": len(dur),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
