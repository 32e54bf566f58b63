"""Command-line interface: spec loading, builtin generators, subcommands.

Every subcommand writes its numeric outputs as files under ``--out`` with a
fixed 17-significant-digit format and rows ordered by canonical vertex id, so
repeated runs of the same configuration are byte-identical.  Tables are
formatted from arrays one block of rows at a time (words by
:func:`~fractaldist.structure.word_column`), still in canonical-id order;
profiles and graphs are streamed to the file block by block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import metrics
from .errors import FractalDistError, SpecValidationError
from .harmonic import HarmonicStructure, check_structure_conditions
from .measures import HarmonicTuple, cell_measure_table, default_tuple
from .structure import FractalSpec, VertexRef, generate_spec, row_blocks, vertex_rows

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2

_WRITE_SLICE = 1 << 20

_BUILTIN_ALIASES = {
    "hexagasket": ("polygasket", 6),
    "nonagasket": ("polygasket", 9),
}


def parse_builtin(name: str):
    """Resolve a builtin spec name like ``gasket:3`` or ``hexagasket``."""
    if name in _BUILTIN_ALIASES:
        return _BUILTIN_ALIASES[name]
    if ":" in name:
        kind, _, param = name.partition(":")
        try:
            return kind, int(param)
        except ValueError:
            raise SpecValidationError(f"bad builtin parameter in {name!r}") from None
    raise SpecValidationError(f"unknown builtin spec {name!r}")


def load_spec(path: str):
    """Load and validate a spec file; returns ``(spec, D, r)``.

    ``D`` defaults to the unit-conductance matrix and ``r`` to None (meaning
    the equal-weight solve runs at structure build time).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecValidationError(f"cannot read spec file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"spec file {path!r} is not valid JSON "
                                  f"(line {exc.lineno}, column {exc.colno})") from None
    spec = FractalSpec.from_json_dict(data)
    D = None
    if "D" in data:
        D = np.asarray(data["D"], dtype=float)
        if D.shape != (spec.boundary, spec.boundary):
            raise SpecValidationError(
                f"field 'D' must be a {spec.boundary}x{spec.boundary} array, got {D.shape}")
    r = None
    if "r" in data:
        r = np.asarray(data["r"], dtype=float)
        if r.shape != (spec.letters,):
            raise SpecValidationError(
                f"field 'r' must list {spec.letters} weights, got shape {r.shape}")
    return spec, D, r


def save_spec(path: str, spec: FractalSpec, D: np.ndarray | None = None,
              r: np.ndarray | None = None) -> None:
    data = spec.to_json_dict()
    if D is not None:
        data["D"] = [list(map(float, row)) for row in np.asarray(D, dtype=float)]
    if r is not None:
        data["r"] = [float(x) for x in np.asarray(r, dtype=float)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_structure(source: str) -> HarmonicStructure:
    """Harmonic structure of ``--spec``: a spec file (an existing path or a
    ``.json`` name, see :func:`load_spec`) or a builtin name."""
    if os.path.exists(source) or source.endswith(".json"):
        return HarmonicStructure.build(*load_spec(source))
    return HarmonicStructure.build(generate_spec(*parse_builtin(source)))


def parse_tuple(hs: HarmonicStructure, text: str) -> HarmonicTuple:
    """Parse ``--tuple``: 'default' or semicolon-separated comma vectors."""
    if text == "default":
        return default_tuple(hs)
    rows = []
    for part in text.split(";"):
        try:
            row = [float(x) for x in part.split(",")]
        except ValueError:
            raise SpecValidationError(f"bad tuple component {part!r}") from None
        if len(row) != hs.spec.boundary:
            raise SpecValidationError(
                f"tuple component {part!r} must have {hs.spec.boundary} entries")
        rows.append(row)
    return HarmonicTuple(np.asarray(rows, dtype=float))


def _safe(ref: VertexRef) -> str:
    return str(ref).replace(":", "_")


def _write(path: str, text: str, lines=()) -> None:
    """Write ``text`` and then every string of ``lines`` to ``path``.

    ``text`` goes out in slices of ``_WRITE_SLICE`` characters, so encoding
    a large table never holds a second full-size copy of it.  The first
    string of ``lines`` is formatted before the file is created, so a table
    that cannot be formatted leaves no file behind.
    """
    lines = iter(lines)
    first = next(lines, "")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start:start + _WRITE_SLICE])
        fh.write(first)
        fh.writelines(lines)


def _json_text(fields) -> str:
    """A flat JSON object, one ``"key": value`` line per ``(key, value)``
    pair in the given order; each value is already formatted."""
    body = ",\n".join(f"  \"{key}\": {value}" for key, value in fields)
    return "{\n" + body + "\n}\n"


def _context(args) -> metrics.MetricContext:
    hs = load_structure(args.spec)
    return metrics.MetricContext(hs, parse_tuple(hs, args.tuple))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    hs = load_structure(args.spec)
    report = check_structure_conditions(hs)
    lines = [f"spec: {hs.spec.name} (cells={hs.spec.letters}, boundary={hs.spec.boundary})",
             f"weights r: {np.array2string(hs.r, precision=12)}"]
    lines += report.lines()
    lines.append("overall: " + ("pass" if report.ok else "FAIL"))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write(os.path.join(args.out, "check_report.txt"), text)
    return EXIT_OK if report.ok else EXIT_FAILED_CHECK


def cmd_graph(args) -> int:
    ctx = _context(args)
    # the upper triangle of the sorted CSR, one row per vertex pair by (u, v)
    graph = metrics.weighted_level_graph(ctx, args.level).tocoo()
    upper = graph.row < graph.col
    lo, hi, w = graph.row[upper], graph.col[upper], graph.data[upper]
    rows = ("".join([f"{a},{b},{x:.17g}\n" for a, b, x in
                     zip(lo[s].tolist(), hi[s].tolist(), w[s].tolist())])
            for s in row_blocks(len(w)))
    _write(os.path.join(args.out, f"graph_level{args.level}.csv"), "u,v,weight\n", rows)
    print(f"level {args.level}: {graph.shape[0]} vertices, {len(w)} edges")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    ctx = _context(args)
    x = VertexRef.parse(getattr(args, "from"))
    y = VertexRef.parse(args.to)
    hist = metrics.geodesic_converge(ctx, x, y, args.nmax, rtol=args.convergence_rtol)
    name = f"convergence_{_safe(x)}_{_safe(y)}.csv"
    _write(os.path.join(args.out, name), "level,value\n",
           [f"{n},{v:.17g}\n" for n, v in hist.entries])
    print(f"estimate {hist.estimate:.17g} (last gap {hist.last_gap:.3e}, "
          f"levels {hist.entries[0][0]}..{hist.entries[-1][0]}, "
          f"converged={str(hist.converged).lower()})")
    if hist.stop_reason is not None:
        print(f"error: stopped after level {hist.entries[-1][0]}: {hist.stop_reason}",
              file=sys.stderr)
        return EXIT_FAILED_CHECK
    return EXIT_OK


def cmd_profile(args) -> int:
    ctx = _context(args)
    x = VertexRef.parse(getattr(args, "from"))
    phi = metrics.geodesic_profile(ctx, x, args.level)
    _write(os.path.join(args.out, f"profile_{_safe(x)}_level{args.level}.csv"),
           "id,word,label,value\n", vertex_rows(ctx.level(args.level).lg, phi))
    print(f"profile from {x} at level {args.level}: max {phi.max():.17g}")
    return EXIT_OK


def cmd_certify(args) -> int:
    ctx = _context(args)
    x = VertexRef.parse(getattr(args, "from"))
    y = VertexRef.parse(args.to)
    cert = metrics.intrinsic_certificate(ctx, x, y, args.level, cap=args.cap,
                                         tolerance=args.feasibility_tol)
    slack = cert.slack.to_csv()
    stem = f"certificate_{_safe(x)}_{_safe(y)}_level{args.level}"
    _write(os.path.join(args.out, stem + ".json"), _json_text([
        ("level", str(cert.level)),
        ("cap", f"{cert.cap:.17g}"),
        ("value", f"{cert.certified_value:.17g}"),
        ("min_slack", f"{cert.slack.min_slack:.17g}"),
        ("checked_depth", str(cert.slack.checked_depth)),
        ("feasible", str(cert.feasible).lower()),
        ("from", f"\"{x}\""),
        ("to", f"\"{y}\""),
    ]))
    _write(os.path.join(args.out, stem + "_slack.csv"), slack)
    print(f"certified lower bound {cert.certified_value:.17g} "
          f"(cap {cert.cap:.17g}, min slack {cert.slack.min_slack:.3e}, "
          f"feasible={str(cert.feasible).lower()})")
    return EXIT_OK if cert.feasible else EXIT_FAILED_CHECK


def cmd_intrinsic(args) -> int:
    ctx = _context(args)
    x = VertexRef.parse(getattr(args, "from"))
    y = VertexRef.parse(args.to)
    est = metrics.intrinsic_estimate(ctx, x, y, args.level, budget=args.budget)
    stem = f"intrinsic_{_safe(x)}_{_safe(y)}_level{args.level}"
    _write(os.path.join(args.out, stem + ".json"), _json_text([
        ("level", str(args.level)),
        ("value", f"{est.value:.17g}"),
        ("certificate_value", f"{est.certificate_value:.17g}"),
        ("iterations", str(est.iterations)),
        ("converged", str(est.converged).lower()),
        ("constraint_depth", str(est.constraint_depth)),
    ]))
    print(f"intrinsic estimate {est.value:.17g} "
          f"(certificate {est.certificate_value:.17g}, {est.iterations} iterations)")
    return EXIT_OK


def cmd_embed(args) -> int:
    ctx = _context(args)
    lg = ctx.level(args.level).lg
    header = "id,word,label," + ",".join(f"x_{j + 1}" for j in range(ctx.n_components))
    _write(os.path.join(args.out, f"embedding_level{args.level}.csv"), header + "\n",
           vertex_rows(lg, ctx.coords(args.level)))
    print(f"embedded {lg.num_vertices} vertices at level {args.level} "
          f"into R^{ctx.n_components}")
    return EXIT_OK


def cmd_measures(args) -> int:
    hs = load_structure(args.spec)
    h = parse_tuple(hs, args.tuple)
    table = cell_measure_table(hs, h, args.depth)
    _write(os.path.join(args.out, f"measures_depth{args.depth}.csv"), table.to_csv())
    print(f"total measure {table.value(()):.17g} tabulated to depth {args.depth}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractaldist",
        description="Discrete geodesic and intrinsic distances on finitely "
                    "ramified self-similar fractals.")
    parser.add_argument("--spec", default="gasket:2",
                        help="builtin name (gasket:L, polygasket:N, hexagasket, "
                             "nonagasket) or a spec JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tuple", default="default",
                        help="harmonic tuple: 'default' or 'a,b,c;d,e,f'")
    parser.add_argument("--feasibility-tol", type=float, default=1e-9,
                        help="relative slack tolerance for certificates")
    parser.add_argument("--convergence-rtol", type=float, default=1e-9,
                        help="relative-gap stop for the geodesic subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="validate the boundary matrix, regularity, "
                                 "and structural conditions")
    p = sub.add_parser("graph", help="export the weighted level graph")
    p.add_argument("--level", type=int, required=True)
    p = sub.add_parser("geodesic", help="converging shortest-walk distance")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p = sub.add_parser("profile", help="single-source distance profile")
    p.add_argument("--from", required=True)
    p.add_argument("--level", type=int, required=True)
    p = sub.add_parser("certify", help="capped-profile lower-bound certificate")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--cap", type=float, default=None)
    p = sub.add_parser("intrinsic", help="ascent estimate of the intrinsic distance")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--budget", type=int, default=200)
    p = sub.add_parser("embed", help="export embedding coordinates")
    p.add_argument("--level", type=int, required=True)
    p = sub.add_parser("measures", help="tabulate cell measures of the tuple")
    p.add_argument("--depth", type=int, required=True)
    return parser


_COMMANDS = {
    "check": cmd_check,
    "graph": cmd_graph,
    "geodesic": cmd_geodesic,
    "profile": cmd_profile,
    "certify": cmd_certify,
    "intrinsic": cmd_intrinsic,
    "embed": cmd_embed,
    "measures": cmd_measures,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (SpecValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FractalDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
