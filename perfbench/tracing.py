"""Per-layer tracing of the shockstab library, installed from outside it.

A `Tracer` wraps the library's public functions for the length of a traced
pass: module attributes and class methods are replaced by wrappers, and so
is every other binding of the same function object in a `shockstab.*`
module (the names `pipeline.py` and `cli.py` import with `from .x import y`).
Leaving the `installed()` block restores the originals.

Each wrapped call records a span: name, start, end, parent span and pass id.
Functions called more than about 10^4 times per pass get a counter only, so
their wrapper cost does not inflate the self time of other layers. Spans are
kept in memory; `write_spans` dumps them once the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

UNITS = {
    "calls": "count",
    "failed": "count",
    "attempted": "count",
    "s": "s",
    "self_s": "s",
    "overhead_s": "s",
    "rows": "rows",
    "raw_cells": "cells",
}


def _take_counts(args, kwargs, result) -> dict:
    frame = args[0]
    with_raw = sum(1 for c in frame.columns if c.raw is not None)
    return {
        "frame.take.rows": result.row_count,
        "frame.take.raw_cells": result.row_count * with_raw,
    }


@dataclass(frozen=True)
class Layer:
    """One traced function and the statistics reported for it."""

    name: str  # metric prefix, "<module>.<function>" of shockstab.<module>
    attr: str  # "func" or "Class.method"
    stats: tuple
    counts: Callable | None = None  # (args, kwargs, result) -> {metric: n}
    span: bool = True  # False: count calls only


LAYERS = (
    Layer("frame.take", "TabularFrame.take",
          ("calls", "s", "self_s", "rows", "raw_cells"), _take_counts),
    Layer("frame.load_csv", "load_csv", ("s", "rows"),
          lambda a, k, r: {"frame.load_csv.rows": r.row_count}),
    Layer("frame.to_csv", "TabularFrame.to_csv", ("calls", "s", "rows"),
          lambda a, k, r: {"frame.to_csv.rows": a[0].row_count}),
    Layer("frame.concat_frames", "concat_frames", ("calls", "s")),
    Layer("splitting.monte_carlo", "monte_carlo", ("s",)),
    Layer("splitting.split_once", "split_once", ("calls", "self_s")),
    Layer("splitting.parse_timestamp", "parse_timestamp", ("calls",), span=False),
    Layer("drift.distribution_shift", "distribution_shift", ("s",)),
    Layer("drift.ks_statistic", "ks_statistic", ("calls",)),
    Layer("drift.tv_distance", "tv_distance", ("calls",)),
    Layer("synthesis.upsample", "upsample", ("calls", "s", "rows"),
          lambda a, k, r: {"synthesis.upsample.rows": r.row_count - a[0].row_count}),
    Layer("synthesis.fit", "fit", ("calls", "s")),
    Layer("synthesis.generate", "generate", ("calls", "s", "rows"),
          lambda a, k, r: {"synthesis.generate.rows": r.frame.row_count}),
    Layer("synthesis.postprocess", "postprocess", ("calls", "s")),
    Layer("synthesis.mix", "mix", ("calls", "s")),
    Layer("model.train_baseline", "train_baseline",
          ("calls", "s", "self_s", "rows", "failed"),
          lambda a, k, r: {"model.train_baseline.rows": a[0].row_count}),
    Layer("model.design_matrix", "FeatureEncoding.design_matrix", ("calls", "s", "rows"),
          lambda a, k, r: {"model.design_matrix.rows": a[1].row_count}),
    Layer("model.evaluate_pair", "evaluate_pair", ("s",)),
    Layer("model.auc", "auc", ("calls", "s")),
    Layer("stability.stabilization_score", "stabilization_score", ("calls",)),
    Layer("stability.stabilization_uplift", "stabilization_uplift", ("calls",)),
    Layer("pipeline.run_pipeline", "run_pipeline", ("self_s",)),
    Layer("pipeline.write_report", "write_report", ("s",)),
    Layer("cli.main", "main", ("self_s",)),
)

# Metrics that are not one layer's own statistic: time in the whole
# stability module, cells from the pipeline report, and the cost of tracing.
EXTRA_METRICS = (
    "stability.s",
    "pipeline.cells.attempted",
    "pipeline.cells.failed",
    "trace.overhead_s",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer.name}.{stat}" for layer in LAYERS for stat in layer.stats]
    return names + list(EXTRA_METRICS)


def metric_unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def is_timed(name: str) -> bool:
    """Times are medians over traced passes; counts must repeat exactly."""
    return metric_unit(name) == "s"


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self):
        # [name, start, end, parent index or None, pass id, child seconds]
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.pass_id = 0
        self._stack: list[int] = []

    def _wrap(self, layer: Layer, fn):
        counts = self.counts

        if not layer.span:
            key = f"{layer.name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[self.pass_id][key] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            span = [layer.name, 0.0, 0.0, parent, self.pass_id, 0.0]
            spans.append(span)
            stack.append(index)
            failed = True
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[2] - span[1]
                tally = counts[self.pass_id]
                tally[f"{layer.name}.calls"] += 1
                if failed:
                    tally[f"{layer.name}.failed"] += 1
            if layer.counts is not None:
                for key, n in layer.counts(args, kwargs, result).items():
                    tally[key] += n
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer in LAYERS; restore the originals on exit."""
        restore = []
        try:
            for layer in LAYERS:
                module = importlib.import_module("shockstab." + layer.name.split(".", 1)[0])
                owner, _, attr = layer.attr.rpartition(".")
                owner = getattr(module, owner) if owner else module
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                targets = [(owner, attr)]
                if owner is module:
                    targets += [
                        (mod, name)
                        for mod_name, mod in list(sys.modules.items())
                        if mod is not module
                        and (mod_name == "shockstab" or mod_name.startswith("shockstab."))
                        for name, value in vars(mod).items()
                        if value is original
                    ]
                for target, name in targets:
                    restore.append((target, name, original))
                    setattr(target, name, wrapper)
            yield self
        finally:
            for target, name, original in reversed(restore):
                setattr(target, name, original)

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer statistics of one traced pass (0 for an uncalled layer)."""
        values = defaultdict(float)
        values.update(self.counts[pass_id])
        for name, start, end, parent, pid, child_s in self.spans:
            if pid != pass_id:
                continue
            duration = end - start
            values[f"{name}.self_s"] += duration - child_s
            # nested calls of the same layer (module) count once in its time
            ancestors = self._ancestor_names(parent)
            if name not in ancestors:
                values[f"{name}.s"] += duration
            module = name.split(".", 1)[0]
            if not any(a.split(".", 1)[0] == module for a in ancestors):
                values[f"{module}.s"] += duration
        return values

    def _ancestor_names(self, index) -> set:
        names = set()
        while index is not None:
            names.add(self.spans[index][0])
            index = self.spans[index][3]
        return names

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pid, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "pass": pid}))
                fh.write("\n")


def uncalled(values: dict) -> set[str]:
    """Metrics of layers (or, for module-wide metrics, modules) never called."""
    called = {layer.name for layer in LAYERS if values.get(f"{layer.name}.calls", 0)}
    modules = {name.split(".", 1)[0] for name in called}
    layers = {layer.name for layer in LAYERS}
    out = set()
    for name in metric_names():
        owner = name.rsplit(".", 1)[0]
        if owner in layers:
            if owner not in called:
                out.add(name)
        elif owner != "trace" and owner.split(".", 1)[0] not in modules:
            out.add(name)
    return out


def summarize(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of the timed statistics over passes; counts must agree.

    Returns a value for every metric name (0 where a pass has none; the
    caller fills in trace.overhead_s) and the counts that differ between
    passes.
    """
    values, mismatches = {}, []
    for name in metric_names():
        samples = [p.get(name, 0) for p in per_pass]
        if is_timed(name):
            values[name] = statistics.median(samples)
        else:
            values[name] = samples[0]
            if any(s != samples[0] for s in samples):
                mismatches.append(f"{name}: {samples}")
    return values, mismatches
