#!/usr/bin/env python3
"""The geodesic and the intrinsic side of the coincidence theorem, on one table.

For each spec, corner pair ``a < b`` and level ``n``, one row of
``<out>/coincidence_<spec>.csv``: ``pair,level,walk,gap,lower,min_slack_rel,
feasible,check``.  ``walk`` is the shortest level-``n`` walk, which rises to
the geodesic distance, and ``gap`` its step from level ``n - 1``
(``geodesic_converge`` at its default rtol, so the levels may end before
``--nmax``).  ``lower`` is the value of the level-``n`` capped-walk
certificate (``intrinsic_certificate``): when it is feasible, at most the
optimum of the level-``n`` intrinsic program, which bounds the intrinsic
distance from above, not below.  ``min_slack_rel`` is its worst domination
slack over the total measure.  A row is ``FAIL`` when the certificate is
infeasible, when the pair's walk history is not monotone, or when ``lower !=
min(walk, cap)``: both sides read the same corner walks reduced up the cell
tree and the same skeleton Dijkstra, so they agree to the last bit.

One summary line per pair follows: the last walk, its gap, the
Aitken-extrapolated walk limit and the deepest certificate value.  Any
``FAIL`` exits 1, as does a level past the address limit (of a certificate or
of the streamed walks), after the rows computed so far are written.

    python scripts/coincidence.py --spec gasket:2 --spec hexagasket --nmax 6 --out results/
"""

import argparse
import itertools
import os
import sys

from fractaldist.cli import load_structure
from fractaldist.errors import ResourceLimitError
from fractaldist.metrics import MetricContext, geodesic_converge, intrinsic_certificate
from fractaldist.structure import VertexRef


def coincidence_table(source, nmax, out):
    """Print and write the table of one spec; returns the exit status."""
    hs = load_structure(source)
    ctx = MetricContext(hs)
    refs = [VertexRef((), a) for a in range(hs.spec.boundary)]
    hists = {(a, b): geodesic_converge(ctx, refs[a], refs[b], nmax)
             for a, b in itertools.combinations(range(len(refs)), 2)}
    lower = {pair: "none" for pair in hists}
    rows = ["pair,level,walk,gap,lower,min_slack_rel,feasible,check"]
    print(f"{hs.spec.name}\n{'pair':>4} {'level':>5} {'walk':>20} {'gap':>10} "
          f"{'lower':>20} {'slack/total':>12} feasible check")
    status = 0
    try:
        # the references are level-0 corners, so entry n of a history is level n
        for n in range(max(len(hist.entries) for hist in hists.values())):
            for (a, b), hist in hists.items():
                if n >= len(hist.entries):
                    continue
                walk = hist.entries[n][1]
                cert = intrinsic_certificate(ctx, refs[a], refs[b], n)
                rel = cert.slack.min_slack / cert.slack.scale
                ok = (cert.feasible and hist.monotone
                      and cert.certified_value == min(walk, cert.cap))
                status = status if ok else 1
                feasible, check = str(cert.feasible).lower(), "ok" if ok else "FAIL"
                gap = walk - hist.entries[n - 1][1] if n else None
                rows.append(f"{a}-{b},{n},{walk:.17g},{'' if gap is None else f'{gap:.17g}'},"
                            f"{cert.certified_value:.17g},{rel:.17g},{feasible},{check}")
                print(f"{f'{a}-{b}':>4} {n:>5} {walk:>20.15f} "
                      f"{'' if gap is None else f'{gap:.3e}':>10} "
                      f"{cert.certified_value:>20.15f} {rel:>12.3e} {feasible:>8} {check}")
                lower[a, b] = f"{cert.certified_value:.12f} (level {n})"
            ctx.evict(n)
    except ResourceLimitError as exc:
        print(f"error: {hs.spec.name}: certificates stopped at level {n}: {exc}",
              file=sys.stderr)
        status = 1
    for (a, b), hist in hists.items():
        if hist.stop_reason is not None:
            print(f"error: {hs.spec.name} {a}-{b}: walks stopped after level "
                  f"{hist.entries[-1][0]}: {hist.stop_reason}", file=sys.stderr)
            status = 1
        aitken = "none" if hist.extrapolated is None else f"{hist.extrapolated:.12f}"
        print(f"{hs.spec.name} {a}-{b}: walk {hist.estimate:.12f} (gap "
              f"{hist.last_gap:.2e}), Aitken {aitken}, certificate {lower[a, b]}")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"coincidence_{hs.spec.name.replace(':', '_')}.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"  -> {path}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spec", action="append",
                    help="builtin name or spec file, repeatable (default gasket:2)")
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()
    statuses = [coincidence_table(source, args.nmax, args.out)
                for source in args.spec or ["gasket:2"]]
    return max(statuses)


if __name__ == "__main__":
    sys.exit(main())
