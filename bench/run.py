#!/usr/bin/env python3
"""Benchmark of fractaldist: four fixed workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 1

Run from the root of a source checkout; fractaldist is imported from its
``src/``.  Repetitions of the workload run one after another, each in a fresh
``bench/worker.py`` process, until ``--seconds`` have passed.  Every
repetition's results are checked.  With ``--trace 0`` the metrics are the
``end_to_end`` ones of ``BENCHMARK.json``, as medians over the repetitions.
With ``--trace 1`` untraced and traced repetitions alternate; the metrics are
the ``per_layer`` ones from the traced repetitions, the tracing overhead is
traced minus untraced wall time, and the per-stage table is printed.
Each metric is printed with its unit and everything, with the environment,
is written to ``bench/out/<workload>-seed<N>-trace<T>.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("sg2-certify-L12", "corner-walks-L8", "dmatrix-L3-L10", "cli-sg2-L11")
RESULT_PREFIX = "BENCH-RESULT "
# no repetition starts after this many seconds, so a run ends well within 180 s
LAST_START_S = 150.0
CHILD_TIMEOUT_S = 170.0
STAGE_COLUMNS = (("gasket:2", 12), ("polygasket:6", 8), ("gasket:3", 8))
STAGE_ROWS = (
    ("build_level", "structure.build_level"),
    ("cell_boundary_values", "measures.cell_boundary_values"),
    ("weighted_level_graph", "metrics.weighted_level_graph"),
    ("edge_arrays", "metrics.edge_arrays"),
    ("Dijkstra", "metrics.dijkstra"),
    ("check_domination", "measures.check_domination"),
)


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh process: its result, or the reason it crashed."""
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), "1" if traced else "0", repr(spawn)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(RESULT_PREFIX):
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"crash": f"exit code {proc.returncode}: {tail}"}
    return json.loads(lines[-1][len(RESULT_PREFIX):])


def repetitions(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Run repetitions until ``seconds`` have passed; with ``trace`` they
    alternate untraced and traced, and at least one of each runs."""
    start = time.monotonic()
    reps: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        kinds = {r["traced"] for r in reps}
        complete = bool(reps) and (not trace or kinds == {False, True})
        if complete and (elapsed >= seconds or elapsed + longest > LAST_START_S):
            break
        traced = trace and len(reps) % 2 == 1
        t = time.monotonic()
        rep = run_worker(workload, seed, traced, max(CHILD_TIMEOUT_S - elapsed, 1.0))
        longest = max(longest, time.monotonic() - t)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def environment(reps: list[dict]) -> dict:
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def median_spans(reps: list[dict]) -> list[dict]:
    """Span summary rows with self and total time as medians over repetitions."""
    groups: dict[tuple, list[dict]] = {}
    for rep in reps:
        for row in rep["spans"]:
            key = (row["name"], row["spec"], row["level"], row["vertices"])
            groups.setdefault(key, []).append(row)
    rows = []
    for group in groups.values():
        row = dict(group[0])
        row["self_s"] = statistics.median(r["self_s"] for r in group)
        row["total_s"] = statistics.median(r["total_s"] for r in group)
        rows.append(row)
    return rows


def stage_table(rows: list[dict]) -> str | None:
    """The per-stage baseline table: sizes and self seconds (x calls) per stage
    at each level that the traced rows cover; None when they cover none."""

    def find(name, spec=None, level=None, vertices=None):
        return next((r for r in rows if r["name"] == name
                     and (spec is None or (r["spec"], r["level"]) == (spec, level))
                     and (vertices is None or r["vertices"] == vertices)), None)

    columns = []
    for spec, level in STAGE_COLUMNS:
        built = find("structure.build_level", spec, level)
        if built is None:
            continue
        graph = find("metrics.weighted_level_graph", spec, level)
        nv = built["vertices"]
        cells = [f"{nv / 1e6:.2f}M / {built['sizes']['cells'] / built['calls'] / 1e6:.2f}M / "
                 + (f"{graph['sizes']['nnz'] / graph['calls'] / 1e6:.1f}M" if graph else "-")]
        for _, name in STAGE_ROWS:
            r = (find(name, vertices=nv) if name == "metrics.dijkstra"
                 else find(name, spec, level))
            cells.append(f"{r['self_s']:.3f} x{r['calls']}" if r else "-")
        columns.append((f"{spec} L{level}", cells))
    if not columns:
        return None
    labels = ["vertices / cells / CSR nnz"] + [label for label, _ in STAGE_ROWS]
    width = max(len(s) for s in labels)
    lines = ["| stage (self s x calls) | " + " | ".join(c for c, _ in columns) + " |",
             "|---|" + "---|" * len(columns)]
    for i, label in enumerate(labels):
        lines.append(f"| {label:<{width}} | " + " | ".join(c[i] for _, c in columns) + " |")
    return "\n".join(lines)


def measure(workload: str, seed: int, seconds: int, trace: bool, wanted: list[dict]) -> dict:
    """Run one workload and reduce its repetitions to the wanted metrics."""
    reps = repetitions(workload, seed, seconds, trace)
    good = [r for r in reps if "crash" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    ops_per_rep = max((len(r["ops"]) for r in good), default=1)
    crashed = len(reps) - len(good)
    problems = [f"{op['name']}: {'; '.join(op['problems'])}"
                for r in good for op in r["ops"] if op["problems"]]
    problems += [r["crash"] for r in reps if "crash" in r]
    attempted = sum(len(r["ops"]) for r in good) + crashed * ops_per_rep
    failed = sum(1 for r in good for op in r["ops"] if op["problems"]) + crashed * ops_per_rep

    samples: dict[str, list[float]] = {}
    if trace and traced and plain:
        for key in traced[0]["layers"]:
            samples[key] = [r["layers"][key] for r in traced]
        samples["trace.coverage"] = [r["coverage"] for r in traced]
        samples["trace.overhead_s"] = [statistics.median(r["wall_cal_s"] for r in traced)
                                       - statistics.median(r["wall_cal_s"] for r in plain)]
    elif not trace and plain:
        for key in ("wall_cal_s", "cpu_cal_s", "peak_rss_mib", "setup_s",
                    "wall_s", "cpu_s", "calibration_s"):
            samples[key] = [r[key] for r in plain]
    missing = [m["name"] for m in wanted if m["name"] not in samples]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(good),
        "repetitions": {"untraced": len(plain), "traced": len(traced), "crashed": crashed},
        "attempted": attempted, "failed": failed, "problems": problems,
        "missing": missing,
        "metrics": {m["name"]: {"value": statistics.median(samples[m["name"]]),
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in samples},
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "spans": median_spans(traced) if traced else [],
        "raw": reps,
    }


def print_report(report: dict) -> None:
    env = report["environment"]
    reps = report["repetitions"]
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"repetitions: {reps['untraced']} untraced, {reps['traced']} traced, "
          f"{reps['crashed']} crashed")
    print("environment: " + json.dumps(env, sort_keys=True))
    n = reps["traced"] if report["trace"] else reps["untraced"]
    for name, m in report["metrics"].items():
        q1, _, q3 = report["quartiles"][name]
        print(f"  {name:<48} {m['value']:>14.10g} {m['unit']:<6} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    for name in ("wall_s", "cpu_s", "calibration_s"):
        if name in report["quartiles"]:
            q1, med, q3 = report["quartiles"][name]
            print(f"  uncalibrated {name:<35} {med:>14.10g} s      "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    print(f"  operations: {report['attempted']} attempted, {report['failed']} failed, "
          f"failed_frac {report['failed'] / max(report['attempted'], 1):.4g}")
    for line in report["problems"][:20]:
        print(f"  FAILED {line}")
    if report["spans"]:
        print("  spans by self time (median over traced repetitions):")
        by_name: dict[str, list] = {}
        for row in report["spans"]:
            acc = by_name.setdefault(row["name"], [0.0, 0])
            acc[0] += row["self_s"]
            acc[1] += row["calls"]
        for name, (self_s, calls) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
            print(f"    {name:<40} {self_s:10.4f} s  x{calls}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fractaldist", "__init__.py")):
        print(f"error: no fractaldist sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = measure(name, args.seed, args.seconds, bool(args.trace), wanted)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print_report(report)
        if report["missing"]:
            print(f"error: {name} produced no value for {report['missing']}", file=sys.stderr)
            return 1
        reports.append(report)
    table = stage_table([row for r in reports for row in r["spans"]])
    if table:
        print(table)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
