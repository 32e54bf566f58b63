"""One repetition of one workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.monotonic()`` taken just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux), so set-up
time counts interpreter start, the numpy/scipy/fractaldist imports and the
workload's structure and context set-up.

After each timed operation the worker times a fixed calibration kernel that
does not use fractaldist.  On a shared host the speed of the whole machine
drifts by tens of percent over seconds to minutes; the kernel slows with it,
so an operation's time divided by the kernel's time next to it stays steady.

The last line printed is ``BENCH-RESULT`` followed by one JSON object.
"""

import json
import os
import resource
import statistics
import sys
import time

SPAWN = float(sys.argv[4])
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse  # noqa: E402
from scipy.sparse.csgraph import dijkstra  # noqa: E402
import fractaldist  # noqa: E402

if not os.path.abspath(fractaldist.__file__).startswith(SRC + os.sep):
    sys.exit(f"fractaldist was imported from {fractaldist.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_PREFIX = "BENCH-RESULT "
# calibration kernel time on a quiet 2-vCPU x86-64 cloud host (Python 3.11,
# numpy 2.4, scipy 1.17); calibrated times are seconds at that speed
CALIBRATION_REF_S = 0.070
# spans whose self time, call count and ru_maxrss growth are reported
LAYERS = (
    "structure.build_level",
    "harmonic.build",
    "measures.cell_boundary_values",
    "measures.tuple_cell_measures",
    "measures.cell_energies",
    "measures.check_domination",
    "measures.SlackTable.to_csv",
    "metrics.MetricContext.level",
    "metrics.edge_arrays",
    "metrics.weighted_level_graph",
    "metrics.dijkstra",
    "metrics.geodesic_profile",
    "metrics.intrinsic_certificate",
    "metrics.intrinsic_estimate",
    "metrics.distance_matrix",
    "metrics.geodesic_converge",
    "cli.main",
)
# summed span sizes reported as counts
SIZES = {
    "structure.vertices": ("structure.build_level", "vertices"),
    "structure.cells": ("structure.build_level", "cells"),
    "metrics.graph.nnz": ("metrics.weighted_level_graph", "nnz"),
    "metrics.dijkstra.sources": ("metrics.dijkstra", "sources"),
    "metrics.intrinsic_estimate.iterations": ("metrics.intrinsic_estimate", "iterations"),
    "metrics.geodesic_converge.levels": ("metrics.geodesic_converge", "levels"),
}


def calibrate() -> float:
    """Median wall time of three runs of a fixed kernel that mixes the kinds
    of work fractaldist does: interpreted Python, a numpy pass and a scipy
    Dijkstra run, on arrays larger than the CPU caches so that it feels the
    same memory contention.  Its inputs (about 30 MiB) are freed on return."""
    rng = numpy.random.default_rng(0)
    n = 100_000
    u, v = rng.integers(0, n, size=(2, 4 * n))
    graph = scipy.sparse.coo_matrix((rng.random(4 * n), (u, v)), shape=(n, n)).tocsr()
    values = rng.random(1_000_000)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(600_000):
            total += i
        numpy.sort(values)
        dijkstra(graph, indices=0)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def layer_metrics(tr: tracing.Tracer) -> dict:
    """Per-layer metrics of one traced repetition."""
    out = {}
    for name in LAYERS:
        spans = [s for s in tr.spans if s.name == name]
        out[f"{name}.s"] = sum(s.self_time for s in spans)
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.rss_growth_mib"] = sum(s.rss_growth_mib for s in spans)
    for metric, (name, key) in SIZES.items():
        out[metric] = sum(s.attrs.get(key, 0) for s in tr.spans if s.name == name)
    calls = out["metrics.MetricContext.level.calls"]
    misses = tracing.level_cache_misses(tr)
    out["metrics.level_cache.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    return out


def main(name: str, seed: int, traced: bool) -> dict:
    tr = None
    if traced:
        tr = tracing.Tracer()
        tracing.install(tr)
    workload = WORKLOADS[name]()
    workdir = os.path.join(BENCH, "out")
    os.makedirs(workdir, exist_ok=True)
    workload.setup(seed, workdir)
    operations = workload.operations()

    setup_s = time.monotonic() - SPAWN
    outputs, errors, op_wall, op_cpu, op_cal = {}, {}, {}, {}, {}
    covered = 0.0
    for op, fn in operations:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            outputs[op] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs[op] = None
            errors[op] = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        op_wall[op] = t1 - t0
        op_cpu[op] = cpu_seconds() - cpu0
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tr is not None:
            covered += tr.covered(t0, t1)
        # the host's speed drifts over seconds: calibrate next to each operation
        op_cal[op] = calibrate()

    result = {
        "setup_s": setup_s,
        "wall_s": sum(op_wall.values()),
        "cpu_s": sum(op_cpu.values()),
        "wall_cal_s": sum(op_wall[op] * CALIBRATION_REF_S / op_cal[op] for op in op_wall),
        "cpu_cal_s": sum(op_cpu[op] * CALIBRATION_REF_S / op_cal[op] for op in op_cpu),
        "calibration_s": statistics.median(op_cal.values()),
        "peak_rss_mib": peak_rss_mib,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tr is not None:
        tr.restore()
        result["layers"] = layer_metrics(tr)
        result["coverage"] = covered / result["wall_s"]
        result["spans"] = tr.summary()
    try:
        problems = workload.check(workload.facts(outputs))
        if tr is not None:
            out_files = getattr(workload, "bytes_out", lambda: 0)
            result["layers"]["cli.bytes_out"] = out_files()
    except Exception as exc:  # a crashed check fails every operation
        problems = {op: [f"check raised {type(exc).__name__}: {exc}"] for op, _ in operations}
    finally:
        workload.cleanup()
    for op, why in errors.items():
        problems.setdefault(op, []).insert(0, f"raised {why}")
    result["ops"] = [{"name": op, "wall_s": op_wall[op], "problems": problems.get(op, [])}
                     for op, _ in operations]
    return result


if __name__ == "__main__":
    res = main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
    print(RESULT_PREFIX + json.dumps(res), flush=True)
