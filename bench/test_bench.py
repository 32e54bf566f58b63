"""Tests of the benchmark's own machinery: the outside-in tracer and the
result checks.  Run with ``python -m pytest bench``."""

import os
import sys
import types

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
from workloads import CertifyL12, gasket2_vertices  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_calls_give_expected_self_times():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock, rss=lambda: 0.0)

    def inner(dt):
        clock.now += dt

    inner = tr.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(3.0)
        clock.now += 1.5

    tr.wrap("outer", outer)()
    by_name = {}
    for span in tr.spans:
        by_name.setdefault(span.name, []).append(span)
    (out,) = by_name["outer"]
    assert out.duration == 8.0
    assert out.self_time == 3.0
    assert [s.self_time for s in by_name["inner"]] == [2.0, 3.0]
    assert all(s.parent == 0 for s in by_name["inner"])
    assert tr.covered(0.0, 8.0) == 8.0


def test_patch_rebinds_every_lookup_and_restores():
    def work():
        return 42

    owner = types.ModuleType("owner")
    owner.work = work
    caller = types.ModuleType("caller")
    caller.imported_work = work
    unrelated = types.ModuleType("unrelated")
    unrelated.work = lambda: 0

    tr = tracing.Tracer()
    tr.patch_function([owner, caller, unrelated], owner, "work", "layer.work",
                      describe=lambda a, k, r: {"result": r})
    assert caller.imported_work() == 42 and owner.work() == 42 and unrelated.work() == 0
    assert [(s.name, s.attrs["result"]) for s in tr.spans] == [("layer.work", 42)] * 2
    tr.restore()
    assert owner.work is work and caller.imported_work is work


def _certify_facts(vertices):
    """A valid level-12 certify result on a toy edge set: one edge x-y."""
    nv = gasket2_vertices(12)
    walk = 0.8772047
    phi = np.zeros(nv)
    phi[1] = walk
    edges = (np.array([0]), np.array([1]), np.array([walk]))
    return {"level": 12, "vertices": vertices, "profile": phi, "edges": edges,
            "x_id": 0, "y_id": 1,
            "certificate": {"feasible": True, "value": walk, "cap": 2.3}}


def _failed_frac(problems):
    return sum(1 for p in problems.values() if p) / len(problems)


def test_corrupted_vertex_count_raises_failed_frac():
    assert _failed_frac(CertifyL12.check(_certify_facts(gasket2_vertices(12)))) == 0.0
    problems = CertifyL12.check(_certify_facts(gasket2_vertices(12) - 1))
    assert _failed_frac(problems) > 0.0
    assert any("vertices" in p for p in problems["profile"])
