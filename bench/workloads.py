"""The four fixed benchmark workloads: set-up, timed operations, result checks.

A workload is a closed loop of top-level operations (one profile, one
certificate, one ``geodesic_converge``, one ``distance_matrix`` or one CLI
invocation), each started after the previous one returns, in one process
with no workers.  Checks run after the timed operations, against references
that do not come from fractaldist: closed-form sizes, symmetry of the gasket,
monotonicity in the level, the triangle inequality, and golden walk values
frozen in ``tests/test_metrics.py``.

Library calls go through module attributes (``metrics.geodesic_profile``), so
the outside-in tracer sees them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import tempfile

import numpy as np
from fractaldist import cli, metrics
from fractaldist.harmonic import HarmonicStructure
from fractaldist.measures import default_tuple
from fractaldist.structure import VertexRef, build_level, generate_spec

# gasket:2 corner-to-corner walk: level-9 value frozen in tests/test_metrics.py,
# and the limit the levels converge to
GASKET2_CORNER_WALK_9 = 0.87720452729580656
GASKET2_WALK_LIMIT = 0.877205
LIMIT_TOL = 1e-6
LIPSCHITZ_TOL = 1e-12
SYMMETRY_RTOL = 1e-12
MONOTONE_TOL = 1e-12
TRIANGLE_SAMPLES = 2000


def gasket2_vertices(n: int) -> int:
    """Closed-form vertex count of the level-``n`` Sierpinski gasket."""
    return (3 ** (n + 1) + 3) // 2


def corner_pair(seed: int) -> tuple[int, int]:
    """Ordered pair of distinct gasket corners picked by the seed; every pair
    costs the same by the gasket's symmetry."""
    return random.Random(seed).choice(list(itertools.permutations(range(3), 2)))


def context(name: str) -> metrics.MetricContext:
    kind, _, param = name.partition(":")
    hs = HarmonicStructure.build(generate_spec(kind, int(param)))
    return metrics.MetricContext(hs, default_tuple(hs))


# ---------------------------------------------------------------------------
# sg2-certify-L12
# ---------------------------------------------------------------------------

class CertifyL12:
    """One very large level through structure, measures and metrics, no cli:
    the level-12 corner profile and its capped-profile certificate."""

    level = 12

    def setup(self, seed: int, workdir: str):
        a, b = corner_pair(seed)
        self.x, self.y = VertexRef((), a), VertexRef((), b)
        self.ctx = context("gasket:2")

    def operations(self):
        ctx, x, y, n = self.ctx, self.x, self.y, self.level
        return [("profile", lambda: metrics.geodesic_profile(ctx, x, n)),
                ("certificate", lambda: metrics.intrinsic_certificate(ctx, x, y, n))]

    def facts(self, outputs: dict) -> dict:
        """Everything the checks need, gathered after the timed region."""
        lg = self.ctx.level(self.level).lg
        cert = outputs.get("certificate")
        return {
            "level": self.level,
            "vertices": lg.num_vertices,
            "profile": outputs.get("profile"),
            "edges": metrics.edge_arrays(self.ctx, self.level),
            "x_id": lg.vertex_id(self.x),
            "y_id": lg.vertex_id(self.y),
            "certificate": None if cert is None else {
                "feasible": bool(cert.feasible), "value": cert.certified_value,
                "cap": cert.cap},
        }

    @staticmethod
    def check(f: dict) -> dict[str, list[str]]:
        bad: dict[str, list[str]] = {"profile": [], "certificate": []}
        expected = gasket2_vertices(f["level"])
        if f["vertices"] != expected:
            bad["profile"].append(f"level graph has {f['vertices']} vertices, expected {expected}")
        phi = f["profile"]
        walk = None
        if phi is None:
            bad["profile"].append("no profile")
        elif len(phi) != expected:
            bad["profile"].append(f"profile has {len(phi)} entries, expected {expected}")
        else:
            u, v, w = f["edges"]
            excess = float(np.max(np.abs(phi[u] - phi[v]) - w))
            if not np.all(np.isfinite(phi)) or excess > LIPSCHITZ_TOL:
                bad["profile"].append(f"profile is not 1-Lipschitz (excess {excess:.3e})")
            if phi[f["x_id"]] != 0.0:
                bad["profile"].append("profile is nonzero at its source")
            walk = float(phi[f["y_id"]])
            if not (walk >= GASKET2_CORNER_WALK_9
                    and abs(walk - GASKET2_WALK_LIMIT) <= LIMIT_TOL):
                bad["profile"].append(f"corner walk {walk!r} outside "
                                      f"[{GASKET2_CORNER_WALK_9}, limit +- {LIMIT_TOL}]")
        cert = f["certificate"]
        if cert is None:
            bad["certificate"].append("no certificate")
        else:
            if not cert["feasible"]:
                bad["certificate"].append("certificate is infeasible")
            if walk is None:
                bad["certificate"].append("no walk value to compare with")
            elif cert["value"] != min(walk, cert["cap"]):
                bad["certificate"].append(f"certified value {cert['value']!r} != "
                                          f"min(walk, cap) = {min(walk, cert['cap'])!r}")
        return bad

    def cleanup(self):
        self.ctx.evict()


# ---------------------------------------------------------------------------
# corner-walks-L8
# ---------------------------------------------------------------------------

class CornerWalksL8:
    """Many levels of the six-cell families: level builds, three graph
    assemblies per level and Dijkstra, with no domination check.  Level 9
    would cost about 17 s and 2.8 GiB per family, too much for repeated runs."""

    families = ("gasket:3", "polygasket:6")
    nmax = 8

    def setup(self, seed: int, workdir: str):
        self.ctxs = {name: context(name) for name in self.families}

    def operations(self):
        ops = []
        for name in self.families:
            ctx = self.ctxs[name]
            for a, b in itertools.combinations(range(3), 2):
                ops.append((f"{name} {a}-{b}",
                            lambda ctx=ctx, a=a, b=b: metrics.geodesic_converge(
                                ctx, VertexRef((), a), VertexRef((), b), self.nmax)))
            # as scripts/convergence_study.py: drop a family's levels when done
            ops[-1] = (ops[-1][0], self._then_evict(ops[-1][1], ctx))
        return ops

    @staticmethod
    def _then_evict(op, ctx):
        def run():
            try:
                return op()
            finally:
                ctx.evict()
        return run

    def facts(self, outputs: dict) -> dict:
        return {"nmax": self.nmax, "families": self.families,
                "entries": {k: (None if h is None else [v for _, v in h.entries],
                                None if h is None else h.entries[-1][0])
                            for k, h in outputs.items()}}

    @staticmethod
    def check(f: dict) -> dict[str, list[str]]:
        bad = {k: [] for k in f["entries"]}
        for op, (values, last_level) in f["entries"].items():
            if values is None:
                bad[op].append("no history")
                continue
            if any(b < a - MONOTONE_TOL for a, b in zip(values, values[1:])):
                bad[op].append(f"history is not monotone: {values}")
            if last_level != f["nmax"]:
                bad[op].append(f"history stops at level {last_level}, not {f['nmax']}")
        for name in f["families"]:
            ops = [k for k in f["entries"] if k.startswith(name + " ")]
            finals = [f["entries"][k][0][-1] for k in ops if f["entries"][k][0]]
            if len(finals) != len(ops) or max(finals) - min(finals) > SYMMETRY_RTOL * max(finals):
                for k in ops:
                    bad[k].append(f"{name} corner pairs disagree: {finals}")
        return bad

    def cleanup(self):
        for ctx in self.ctxs.values():
            ctx.evict()


# ---------------------------------------------------------------------------
# dmatrix-L3-L10
# ---------------------------------------------------------------------------

class DistanceMatrixL3L10:
    """Multi-source Dijkstra (42 sources on 88,575 vertices) dominates, while
    structure and measures are near zero.  Serial: the parallel path does not
    pay on a 2-vCPU host."""

    source_level = 3
    level = 10

    def setup(self, seed: int, workdir: str):
        self.seed = seed
        self.ctx = context("gasket:2")

    def operations(self):
        ctx = self.ctx
        return [("distance_matrix",
                 lambda: metrics.distance_matrix(ctx, self.source_level, self.level, workers=1))]

    def facts(self, outputs: dict) -> dict:
        src = build_level(self.ctx.spec, self.source_level)
        sources = np.asarray(src.embed_into(self.ctx.level(self.level).lg))
        return {"seed": self.seed, "source_level": self.source_level,
                "matrix": outputs.get("distance_matrix"),
                "points": self.ctx.coords(self.level)[sources],
                "corners": [src.vertex_id(VertexRef((), a)) for a in range(3)]}

    @staticmethod
    def check(f: dict) -> dict[str, list[str]]:
        bad: list[str] = []
        D = f["matrix"]
        m = gasket2_vertices(f["source_level"])
        if D is None or D.shape != (m, m):
            return {"distance_matrix": [f"expected a {m}x{m} matrix"]}
        if not np.all(np.isfinite(D)):
            bad.append("matrix has non-finite entries")
        if np.any(np.diag(D) != 0.0):
            bad.append("diagonal is not zero")
        if np.max(np.abs(D - D.T)) > 1e-12 * np.max(D):
            bad.append("matrix is not symmetric")
        rng = np.random.default_rng(f["seed"])
        i, j, k = rng.integers(0, m, size=(3, TRIANGLE_SAMPLES))
        if np.any(D[i, k] > D[i, j] + D[j, k] + 1e-12):
            bad.append("triangle inequality fails on a sampled triple")
        P = f["points"]
        chords = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
        if np.any(chords > D + 1e-12):
            bad.append("a chord is longer than the walk distance")
        c = f["corners"]
        for a, b in itertools.combinations(c, 2):
            if not (D[a, b] >= GASKET2_CORNER_WALK_9
                    and abs(D[a, b] - GASKET2_WALK_LIMIT) <= LIMIT_TOL):
                bad.append(f"corner walk {D[a, b]!r} outside "
                           f"[{GASKET2_CORNER_WALK_9}, limit +- {LIMIT_TOL}]")
        return {"distance_matrix": bad}

    def cleanup(self):
        self.ctx.evict()


# ---------------------------------------------------------------------------
# cli-sg2-L11
# ---------------------------------------------------------------------------

class CliL11:
    """The only workload where the cli writers and the ascent solver do most
    of the work; its library stages are those of ``CertifyL12``."""

    level = 11

    def setup(self, seed: int, workdir: str):
        self.a, self.b = corner_pair(seed)
        self.out = tempfile.mkdtemp(prefix="cli-", dir=workdir)

    def _argv(self, command: str, *extra: str) -> list[str]:
        return ["--spec", "gasket:2", "--out", self.out, command,
                f"--from=-:{self.a}", *extra, "--level", str(self.level)]

    def operations(self):
        to = f"--to=-:{self.b}"
        return [("certify", lambda: cli.main(self._argv("certify", to))),
                ("profile", lambda: cli.main(self._argv("profile"))),
                ("intrinsic", lambda: cli.main(self._argv("intrinsic", to)))]

    def expected_files(self) -> dict[str, str]:
        pair, n = f"-_{self.a}_-_{self.b}", self.level
        return {"certify": f"certificate_{pair}_level{n}.json",
                "certify_slack": f"certificate_{pair}_level{n}_slack.csv",
                "profile": f"profile_-_{self.a}_level{n}.csv",
                "intrinsic": f"intrinsic_{pair}_level{n}.json"}

    def bytes_out(self) -> int:
        return sum(os.path.getsize(os.path.join(self.out, f)) for f in os.listdir(self.out))

    def facts(self, outputs: dict) -> dict:
        def read(key):
            path = os.path.join(self.out, self.expected_files()[key])
            if not os.path.exists(path):
                return None
            with open(path, encoding="utf-8") as fh:
                return fh.read()

        return {"level": self.level, "exit_codes": outputs,
                "files": {k: read(k) for k in self.expected_files()}}

    @staticmethod
    def check(f: dict) -> dict[str, list[str]]:
        bad = {k: [] for k in ("certify", "profile", "intrinsic")}
        for op, code in f["exit_codes"].items():
            if code != 0:
                bad[op].append(f"exit code {code}")
        files = f["files"]
        for key, text in files.items():
            if text is None:
                bad[key.split("_")[0]].append(f"missing --out file for {key}")
        cert_value = None
        if files["certify"] is not None:
            cert = json.loads(files["certify"])
            cert_value = cert["value"]
            if cert["feasible"] is not True:
                bad["certify"].append("certificate JSON is not feasible")
            if not (cert_value >= GASKET2_CORNER_WALK_9
                    and abs(cert_value - GASKET2_WALK_LIMIT) <= LIMIT_TOL):
                bad["certify"].append(f"certificate value {cert_value!r} out of range")
        if files["certify_slack"] is not None:
            rows = files["certify_slack"].count("\n") - 1
            cells = sum(3 ** m for m in range(f["level"] + 1))
            if rows != cells:
                bad["certify"].append(f"slack table has {rows} rows, expected {cells}")
        if files["profile"] is not None:
            rows = files["profile"].count("\n") - 1
            if rows != gasket2_vertices(f["level"]):
                bad["profile"].append(f"profile has {rows} rows, expected "
                                      f"{gasket2_vertices(f['level'])}")
        if files["intrinsic"] is not None:
            est = json.loads(files["intrinsic"])
            if not est["value"] >= est["certificate_value"]:
                bad["intrinsic"].append("intrinsic value is below its certificate")
            if cert_value is not None and est["certificate_value"] != cert_value:
                bad["intrinsic"].append("intrinsic and certify disagree on the certificate")
        return bad

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {
    "sg2-certify-L12": CertifyL12,
    "corner-walks-L8": CornerWalksL8,
    "dmatrix-L3-L10": DistanceMatrixL3L10,
    "cli-sg2-L11": CliL11,
}
