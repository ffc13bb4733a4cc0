"""Span tracing from outside the package.

The tracer replaces public functions of ``stereograph`` at every module
attribute that holds them (``stereograph.chromatic.optimal_coloring``,
``stereograph.generators.graph_isomorphic``, ...) and two ``Graph``
methods, so calls made by the library itself go through the wrapper.
Each call becomes a span (op id, name, start, end, parent, value), kept
in memory and written out when the batch ends. Nothing under ``src/``
changes; with tracing off nothing is wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import stereograph.graphs

# (module, attribute, span name, value taken from the result or None).
FUNCTIONS = (
    ("stereograph.spectral", "characteristic_polynomial", "spectral.charpoly", None),
    ("stereograph.spectral", "bareiss_determinant", "spectral.bareiss", None),
    ("stereograph.spectral", "matrix_criterion", "spectral.matrix_criterion", None),
    ("stereograph.polynomials", "interpolate_integer_polynomial", "polynomials.interpolate", None),
    ("stereograph.chromatic", "chromatic_polynomial", "chromatic.chrompoly", None),
    ("stereograph.chromatic", "optimal_coloring", "chromatic.csi", None),
    ("stereograph.chromatic", "greedy_coloring", "chromatic.greedy", lambda c: c.colors_used),
    ("stereograph.graphs", "max_clique_size", "graphs.max_clique", int),
    ("stereograph.graphs", "graph_isomorphic", "graphs.isomorphism", bool),
    ("stereograph.merge", "reduce_to_k2", "merge.reduce", lambda v: len(v.steps)),
    ("stereograph.model", "recognize_complete_bipartite", "model.recognize", None),
    ("stereograph.model", "recognize_complete_ladder", "model.recognize", None),
    ("stereograph.model", "validate_stereotype", "model.validate", None),
    ("stereograph.generators", "build_with_csi", "generators.build", None),
    ("stereograph.generators", "expand_preserving", "generators.expand", None),
    ("stereograph.generators", "expand_incrementing", "generators.expand", None),
    ("stereograph.serialize", "graph_from_dict", "serialize.parse", None),
    ("stereograph.serialize", "raw_graph_from_dict", "serialize.parse", None),
    ("stereograph.serialize", "graph_to_dict", "serialize.dump", None),
    ("stereograph.cli", "main", "cli.main", None),
)
METHODS = (
    (stereograph.graphs.Graph, "girth", "graphs.girth"),
    (stereograph.graphs.Graph, "triangles", "graphs.triangles"),
)
# Generator functions: each next() is one span, since the work happens there.
ITERATORS = (("stereograph.generators", "enumerate_all", "generators.enumerate"),)

# Per-layer time metrics: self time (duration minus child spans) summed
# over the spans of that name.
SELF_SECONDS = {
    "spectral.charpoly": "spectral.charpoly_s",
    "spectral.bareiss": "spectral.bareiss_s",
    "spectral.matrix_criterion": "spectral.matrix_criterion_s",
    "polynomials.interpolate": "polynomials.interpolate_s",
    "chromatic.chrompoly": "chromatic.chrompoly_s",
    "chromatic.csi": "chromatic.csi_s",
    "chromatic.greedy": "chromatic.greedy_s",
    "graphs.girth": "graphs.girth_s",
    "graphs.triangles": "graphs.triangles_s",
    "graphs.max_clique": "graphs.max_clique_s",
    "graphs.isomorphism": "graphs.isomorphism_s",
    "merge.reduce": "merge.reduce_s",
    "model.recognize": "model.recognize_s",
    "model.validate": "model.validate_s",
    "generators.enumerate": "generators.enumerate_s",
    "generators.build": "generators.build_s",
    "generators.expand": "generators.expand_s",
    "serialize.parse": "serialize.parse_s",
    "serialize.dump": "serialize.dump_s",
    "cli.main": "cli.self_s",
}
# Metrics derived from call counts and returned values; they must repeat
# exactly between batches on the same inputs.
COUNTS = (
    "chromatic.chrompoly_calls",
    "chromatic.csi_calls",
    "chromatic.bounds_tight_frac",
    "graphs.isomorphism_calls",
    "graphs.isomorphism_true_frac",
    "merge.merges",
)

_NAME, _START, _END, _PARENT, _VALUE = 1, 2, 3, 4, 5


class Tracer:
    """Spans of one batch: [op, name, start, end, parent index, value]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span; the benchmark's root span per op."""
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def wrap(self, fn, name: str, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if value is not None:
                self.spans[index][_VALUE] = value(result)
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    def install(self) -> None:
        """Wrap every target at each stereograph module attribute bound to it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "stereograph"]

        def rebind(original, wrapped) -> None:
            for module in modules:
                for attr, bound in list(vars(module).items()):
                    if bound is original:
                        setattr(module, attr, wrapped)

        for module_name, attr, name, value in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            rebind(original, self.wrap(original, name, value))
        for module_name, attr, name in ITERATORS:
            original = getattr(sys.modules[module_name], attr)
            rebind(original, self.wrap_iter(original, name))
        for cls, attr, name in METHODS:
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds per layer and the exact count metrics."""
        child_time = [0.0] * len(self.spans)
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            parent = span[_PARENT]
            if parent >= 0:
                child_time[parent] += span[_END] - span[_START]
                children[parent].append(index)

        metrics = {metric: 0.0 for metric in SELF_SECONDS.values()}
        calls: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            name = span[_NAME]
            calls[name] += 1
            if name in SELF_SECONDS:
                metrics[SELF_SECONDS[name]] += span[_END] - span[_START] - child_time[index]

        tight = 0
        for index, span in enumerate(self.spans):
            if span[_NAME] == "chromatic.csi":
                bounds = {self.spans[c][_NAME]: self.spans[c][_VALUE] for c in children[index]}
                tight += bounds.get("chromatic.greedy") == bounds.get("graphs.max_clique")
        iso_true = sum(1 for s in self.spans if s[_NAME] == "graphs.isomorphism" and s[_VALUE])
        merges = sum(s[_VALUE] or 0 for s in self.spans if s[_NAME] == "merge.reduce")

        metrics["chromatic.chrompoly_calls"] = calls["chromatic.chrompoly"]
        metrics["chromatic.csi_calls"] = calls["chromatic.csi"]
        metrics["chromatic.bounds_tight_frac"] = _ratio(tight, calls["chromatic.csi"])
        metrics["graphs.isomorphism_calls"] = calls["graphs.isomorphism"]
        metrics["graphs.isomorphism_true_frac"] = _ratio(iso_true, calls["graphs.isomorphism"])
        metrics["merge.merges"] = merges
        return metrics

    def write(self, path: str, origin: float) -> None:
        """JSON lines, times in seconds from the batch start."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, value in self.spans:
                record = {
                    "op": op,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                }
                if value is not None:
                    record["value"] = value
                fh.write(json.dumps(record) + "\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
