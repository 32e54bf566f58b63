#!/usr/bin/env python3
"""Sweep certificate feasibility over levels and boundary sources.

For each level the capped distance profile is checked against the cell
domination constraints at every depth; the table reports the worst relative
slack (negative values beyond -1e-9 would mean an infeasible certificate).
The table is printed and written to ``<out>/certificate_sweep_<spec>.csv``
with columns (level, source, value, relative min slack, feasible).

    python scripts/certificate_sweep.py --spec gasket:2 --nmax 8 --out results/
"""

import argparse
import os

from fractaldist.cli import build_structure, resolve_config
from fractaldist.measures import default_tuple
from fractaldist.metrics import MetricContext, intrinsic_certificate
from fractaldist.structure import VertexRef


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", default="gasket:2")
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    cfg = resolve_config(args)
    hs = build_structure(cfg)
    ctx = MetricContext(hs, default_tuple(hs))
    q = hs.spec.boundary
    rows = ["level,source,value,min_slack_rel,feasible"]
    print(f"{'level':>5} {'source':>6} {'value':>22} {'min slack / total':>18} feasible")
    for n in range(1, args.nmax + 1):
        for a in range(q):
            x = VertexRef((), a)
            y = VertexRef((), (a + 1) % q)
            cert = intrinsic_certificate(ctx, x, y, n)
            rel = cert.slack.min_slack / cert.slack.scale
            print(f"{n:>5} {str(x):>6} {cert.certified_value:>22.17g} "
                  f"{rel:>18.3e} {cert.feasible}")
            rows.append(f"{n},{x},{cert.certified_value:.17g},{rel:.17g},"
                        f"{str(cert.feasible).lower()}")
        ctx.evict(n - 1)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"certificate_sweep_{hs.spec.name.replace(':', '_')}.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"  -> {path}")


if __name__ == "__main__":
    main()
