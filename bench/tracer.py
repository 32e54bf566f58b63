"""Outside-in span tracer for fractaldist.

The tracer records a span around each call into a library layer without
changing any file under ``src/``: it rebinds a public name at every module
that looks it up (``fractaldist.metrics.build_level`` as well as
``fractaldist.structure.build_level``, ``fractaldist.metrics._csgraph_dijkstra``
for scipy's ``dijkstra``), and the class attribute for methods.  Spans are
kept in memory with their parent span; self time is a span's duration minus
the durations of its children.  Calls are single-threaded, so children nest
strictly inside their parent.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def maxrss_mib() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    rss_growth_mib: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span recorder with function and method rebinding."""

    def __init__(self, clock=time.perf_counter, rss=maxrss_mib):
        self.clock = clock
        self.rss = rss
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, describe=None):
        """Return ``fn`` recorded as span ``name``.  ``describe(args, kwargs,
        result)`` returns size attributes stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, parent, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            rss0 = self.rss()
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                span.rss_growth_mib = self.rss() - rss0
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.duration
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def patch_function(self, modules, owner, attr: str, name: str, describe=None):
        """Rebind ``owner.attr`` in every module of ``modules`` that holds the
        same object, so callers that imported the name see the wrapper."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, describe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, traced)

    def patch_method(self, cls, attr: str, name: str, describe=None):
        """Rebind a method, classmethod or staticmethod on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(name, raw.__func__, describe))
        else:
            replacement = self.wrap(name, raw, describe)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Put every rebound name back, newest first."""
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by top-level spans inside it."""
        return sum(s.duration for s in self.spans
                   if s.parent is None and s.start >= start and s.end <= end)

    def summary(self) -> list[dict]:
        """Spans grouped by ``(name, spec, level, vertices)``: calls, self and
        total seconds, ``ru_maxrss`` growth, and summed numeric sizes."""
        groups: dict[tuple, dict] = {}
        for s in self.spans:
            key = (s.name, s.attrs.get("spec"), s.attrs.get("level"),
                   s.attrs.get("vertices"))
            row = groups.get(key)
            if row is None:
                row = groups[key] = {"name": s.name, "spec": key[1], "level": key[2],
                                     "vertices": key[3], "calls": 0, "self_s": 0.0, "total_s": 0.0,
                                     "rss_growth_mib": 0.0, "sizes": {}}
            row["calls"] += 1
            row["self_s"] += s.self_time
            row["total_s"] += s.duration
            row["rss_growth_mib"] += s.rss_growth_mib
            for k, v in s.attrs.items():
                if k not in ("spec", "level") and isinstance(v, (int, float)):
                    row["sizes"][k] = row["sizes"].get(k, 0) + v
        return list(groups.values())


# ---------------------------------------------------------------------------
# the fractaldist layers
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _hs_level(args, kwargs, result):
    return {"spec": args[0].spec.name, "level": _arg(args, kwargs, 2, "n")}


def _ctx_level(args, kwargs, result):
    return {"spec": args[0].spec.name, "level": _arg(args, kwargs, 1, "n")}


def _lg_level(args, kwargs, result):
    lg = _arg(args, kwargs, 1, "lg")
    return {"spec": args[0].spec.name, "level": lg.level}


def _build_level(args, kwargs, result):
    return {"spec": args[0].name, "level": _arg(args, kwargs, 1, "n"),
            "vertices": result.num_vertices, "cells": result.num_cells}


def _graph(args, kwargs, result):
    return {**_ctx_level(args, kwargs, result), "nnz": result.nnz}


def _dijkstra(args, kwargs, result):
    graph = args[0] if args else kwargs["csgraph"]
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    nv = graph.shape[0]
    return {"vertices": nv, "sources": nv if indices is None else int(np.size(indices))}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of the five fractaldist modules."""
    import scipy.sparse.csgraph
    from fractaldist import cli, harmonic, measures, metrics, structure

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "fractaldist" or key.startswith("fractaldist."))]
    functions = [
        (structure, "build_level", "structure.build_level", _build_level),
        (measures, "cell_boundary_values", "measures.cell_boundary_values", _hs_level),
        (measures, "tuple_cell_measures", "measures.tuple_cell_measures", _hs_level),
        (measures, "cell_energies", "measures.cell_energies", _lg_level),
        (measures, "check_domination", "measures.check_domination", _lg_level),
        (metrics, "edge_arrays", "metrics.edge_arrays", _ctx_level),
        (metrics, "weighted_level_graph", "metrics.weighted_level_graph", _graph),
        (scipy.sparse.csgraph, "dijkstra", "metrics.dijkstra", _dijkstra),
        (metrics, "geodesic_profile", "metrics.geodesic_profile", None),
        (metrics, "intrinsic_certificate", "metrics.intrinsic_certificate", None),
        (metrics, "intrinsic_estimate", "metrics.intrinsic_estimate",
         lambda a, k, r: {"iterations": r.iterations}),
        (metrics, "distance_matrix", "metrics.distance_matrix", None),
        (metrics, "geodesic_converge", "metrics.geodesic_converge",
         lambda a, k, r: {"levels": len(r.entries)}),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, describe in functions:
        tracer.patch_function(modules, owner, attr, name, describe)
    tracer.patch_method(harmonic.HarmonicStructure, "build", "harmonic.build")
    tracer.patch_method(metrics.MetricContext, "level", "metrics.MetricContext.level",
                        _ctx_level)
    tracer.patch_method(measures.SlackTable, "to_csv", "measures.SlackTable.to_csv")


def level_cache_misses(tracer: Tracer) -> int:
    """Number of ``MetricContext.level`` calls that had to build the level."""
    builders = {s.parent for s in tracer.spans if s.name == "structure.build_level"}
    return sum(1 for i in builders
               if i is not None and tracer.spans[i].name == "metrics.MetricContext.level")
