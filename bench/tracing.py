"""In-memory span tracer that wraps calorics' public functions from outside.

The package itself is not instrumented: `Tracer.install` replaces each
function named in TARGETS in every loaded `calorics*` namespace that holds it
(``cli`` imports ``nodal_count`` by name, ``constructions`` imports
``basic_hcp``), and `Tracer.uninstall` puts the originals back.  A span is
``[name, start, end, parent, request]`` with ``time.perf_counter`` stamps
(CLOCK_MONOTONIC on Linux, so stamps from child processes share a timeline).

Counters read from the values the wrapped functions return are computed
inside a ``trace.counters`` span, so their cost lands on the tracer and not
on the layer that was called.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); span names are the per-layer metric prefixes
TARGETS = (
    ("calorics.nodal", "nodal_count", "nodal.nodal_count"),
    ("calorics.nodal", "cube_section_sample", "nodal.cube_section_sample"),
    ("calorics.nodal", "count_components", "nodal.count_components"),
    ("calorics.nodal", "slice_count", "nodal.slice_count"),
    ("calorics.nodal", "export_nodal_pointcloud", "nodal.export_nodal_pointcloud"),
    ("calorics.constructions", "scan_epsilon", "constructions.scan_epsilon"),
    ("calorics.constructions", "build", "constructions.build"),
    ("calorics.constructions", "fixture", "constructions.fixture"),
    ("calorics.caloric", "is_caloric", "caloric.is_caloric"),
    ("calorics.caloric", "chain_check", "caloric.chain_check"),
    ("calorics.caloric", "eigen_check", "caloric.eigen_check"),
    ("calorics.caloric", "basic_hcp", "caloric.basic_hcp"),
    ("calorics.polyring", "parse_poly", "polyring.parse_poly"),
    ("calorics.polyring", "heat_apply", "polyring.heat_apply"),
)
MUL_SPAN = "polyring.Polynomial.mul"
REQUEST_SPAN = "request"
COUNTER_SPAN = "trace.counters"

# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("nodal.count_components.calls", "count"),
    ("nodal.count_components.self_s", "s"),
    ("nodal.count_components.cells_per_s", "1/s"),
    ("nodal.cube_section_sample.calls", "count"),
    ("nodal.cube_section_sample.self_s", "s"),
    ("nodal.cube_section_sample.cells", "count"),
    ("nodal.cube_section_sample.cells_per_s", "1/s"),
    ("nodal.nodal_count.calls", "count"),
    ("nodal.nodal_count.s", "s"),
    ("nodal.same_sign_edges", "count"),
    ("nodal.sign_change_edges", "count"),
    ("nodal.sign_change_edge_frac", "fraction"),
    ("nodal.zero_cells", "count"),
    ("nodal.jittered_samples", "count"),
    ("nodal.slice_count.self_s", "s"),
    ("nodal.export_nodal_pointcloud.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("constructions.scan_epsilon.self_s", "s"),
    ("constructions.build.self_s", "s"),
    ("constructions.fixture.self_s", "s"),
    ("caloric.is_caloric.self_s", "s"),
    ("caloric.chain_check.self_s", "s"),
    ("caloric.eigen_check.self_s", "s"),
    ("caloric.basic_hcp.self_s", "s"),
    ("polyring.parse_poly.self_s", "s"),
    ("polyring.heat_apply.self_s", "s"),
    ("polyring.Polynomial.mul.calls", "count"),
    ("polyring.Polynomial.mul.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unaccounted_frac", "fraction"),
)


def _field_cells(field) -> int:
    grid = field.grid
    return grid.face_count * grid.resolution ** (grid.ambient - 1)


def _sign_edges(field):
    """(same-sign, sign-change) neighbour pairs within each face of a SignField."""
    same = change = 0
    for face in field.face_signs:
        for axis in range(face.ndim):
            lo = [slice(None)] * face.ndim
            hi = [slice(None)] * face.ndim
            lo[axis], hi[axis] = slice(None, -1), slice(1, None)
            a, b = face[tuple(lo)], face[tuple(hi)]
            same += int(((a == b) & (a != 0)).sum())
            change += int((a * b < 0).sum())
    return same, change


def _sample_counters(counters: Counter, args, field) -> None:
    counters["nodal.cube_section_sample.cells"] += _field_cells(field)
    counters["nodal.zero_cells"] += field.zero_cells
    counters["nodal.jittered_samples"] += int(field.grid.jittered)
    same, change = _sign_edges(field)
    counters["nodal.same_sign_edges"] += same
    counters["nodal.sign_change_edges"] += change


def _components_counters(counters: Counter, args, report) -> None:
    counters["nodal.count_components.cells"] += _field_cells(args[0])


_COUNTER_HOOKS = {
    "nodal.cube_section_sample": _sample_counters,
    "nodal.count_components": _components_counters,
}


class Tracer:
    """Collects spans and counters for one process; not thread-safe."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.request = None
        self._stack: list = []
        self._undo: list = []

    def open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        hook = _COUNTER_HOOKS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                counter_span = self.open(COUNTER_SPAN)
                try:
                    hook(self.counters, args, result)
                finally:
                    self.close(counter_span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in each loaded calorics namespace that holds it."""
        from calorics.polyring import Polynomial

        namespaces = [mod for key, mod in list(sys.modules.items())
                      if mod is not None and (key == "calorics" or key.startswith("calorics."))]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))
        original_mul = Polynomial.__mul__
        Polynomial.__mul__ = self.wrap(original_mul, MUL_SPAN)
        self._undo.append((Polynomial, "__mul__", original_mul))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded by a child process under span index `parent`."""
        offset = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            self.spans.append([name, start, end,
                               parent if child_parent < 0 else child_parent + offset,
                               self.request])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans, "counters": dict(self.counters)}, handle)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Aggregate spans and counters into the per-layer metrics of LAYER_METRICS.

    Self time is a span's duration minus its direct children's durations.
    `*.self_s` and `nodal.nodal_count.s` are totals over the traced requests;
    `cli.interpreter_s` and `cli.import_s` are medians per process.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s: dict = defaultdict(float)
    durations: dict = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child_s[i]
        durations[name].append(end - start)

    values = {}
    for metric, _ in LAYER_METRICS:
        layer, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            values[metric] = len(durations[layer])
        elif quantity == "self_s":
            values[metric] = self_s[layer]
        elif quantity == "cells_per_s":
            cells = tracer.counters[layer + ".cells"]
            values[metric] = cells / self_s[layer] if self_s[layer] > 0 else 0.0
        elif metric == "nodal.nodal_count.s":
            values[metric] = sum(durations["nodal.nodal_count"])
        elif metric in ("cli.interpreter_s", "cli.import_s"):
            samples = durations[metric[:-2]]
            values[metric] = statistics.median(samples) if samples else 0.0
        else:
            values[metric] = tracer.counters[metric]
    pairs = values["nodal.same_sign_edges"] + values["nodal.sign_change_edges"]
    values["nodal.sign_change_edge_frac"] = values["nodal.sign_change_edges"] / pairs if pairs else 0.0
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    request_s = sum(durations[REQUEST_SPAN])
    values["trace.unaccounted_frac"] = self_s[REQUEST_SPAN] / request_s if request_s else 0.0
    return values
