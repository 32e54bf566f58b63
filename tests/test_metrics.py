"""Walk metrics, convergence, certificates, estimates, embeddings."""

import functools
import itertools
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from fractaldist import measures, metrics
from fractaldist.errors import FractalDistError, ResourceLimitError
from fractaldist.harmonic import HarmonicStructure, renorm_products
from fractaldist.measures import (
    HarmonicTuple,
    cell_boundary_values,
    cell_energies,
    cell_form,
    child_values,
    tuple_cell_measures,
)
from fractaldist.metrics import (
    MetricContext,
    default_cap,
    discrete_geodesic,
    distance_matrix,
    edge_arrays,
    geodesic_converge,
    geodesic_profile,
    intrinsic_certificate,
    intrinsic_estimate,
    weighted_level_graph,
)
from fractaldist.structure import (
    FractalSpec,
    VertexRef,
    build_level,
    generate_spec,
    level_address_count,
    vertex_rows,
)

from conftest import TWO_CORNER_FIELDS, UNIT_TRIANGLE_D, builtin_hs

DATA = os.path.join(os.path.dirname(__file__), "data")

CORNER = [VertexRef((), a) for a in range(3)]

# frozen regression values for the corner pair of gasket:2 with the default
# orthonormal tuple; cross-checked against the level-9 continuation when frozen
GASKET2_CORNER_WALK_8 = 0.87720394097783871
GASKET2_CORNER_WALK_9 = 0.87720452729580656


def test_level_zero_graph_is_complete_triangle(sg2_ctx):
    u, v, w = edge_arrays(sg2_ctx, 0)
    pairs = sorted(zip(u.tolist(), v.tolist()))
    assert pairs == [(0, 1), (0, 2), (1, 2)]
    alphas = sg2_ctx.h.alphas
    for uu, vv, ww in zip(u, v, w):
        assert np.isclose(ww, np.linalg.norm(alphas[:, uu] - alphas[:, vv]), atol=1e-14)
    assert (w >= 0).all()


def test_single_component_corner_weight(sg2_hs):
    ctx = MetricContext(sg2_hs, HarmonicTuple(np.array([[1.0, 0.0, 0.0]])))
    u, v, w = edge_arrays(ctx, 0)
    table = {(min(a, b), max(a, b)): ww for a, b, ww in zip(u, v, w)}
    assert np.isclose(table[(0, 1)], 1.0, atol=1e-15)
    assert np.isclose(table[(1, 2)], 0.0, atol=1e-15)


def all_simple_paths_length(graph_edges, src, dst, nv):
    """Brute-force shortest simple path by DFS enumeration."""
    adj = {}
    for a, b, w in graph_edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    best = [np.inf]

    def dfs(node, seen, acc):
        if acc >= best[0]:
            return
        if node == dst:
            best[0] = acc
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                dfs(nxt, seen, acc + w)
                seen.remove(nxt)

    dfs(src, {src}, 0.0)
    return best[0]


def test_discrete_geodesic_matches_path_enumeration(sg2_ctx):
    n = 1
    u, v, w = edge_arrays(sg2_ctx, n)
    edges = list(zip(u.tolist(), v.tolist(), w.tolist()))
    lg = sg2_ctx.level(n).lg
    for x, y in itertools.combinations(CORNER, 2):
        res = discrete_geodesic(sg2_ctx, x, y, n)
        oracle = all_simple_paths_length(edges, lg.vertex_id(x), lg.vertex_id(y),
                                         lg.num_vertices)
        assert np.isclose(res.value, oracle, atol=1e-14)


def test_discrete_geodesic_basics(sg2_ctx):
    x = CORNER[0]
    res = discrete_geodesic(sg2_ctx, x, x, 3)
    assert res.value == 0.0 and res.path == [sg2_ctx.vertex_id(x, 3)]
    for y in CORNER[1:]:
        r = discrete_geodesic(sg2_ctx, x, y, 3)
        coords = sg2_ctx.coords(3)
        chord = np.linalg.norm(coords[sg2_ctx.vertex_id(x, 3)] - coords[sg2_ctx.vertex_id(y, 3)])
        assert r.value >= chord - 1e-12
        # path vertices must be pairwise adjacent through shared cells
        u, v, _ = edge_arrays(sg2_ctx, 3)
        edge_set = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
        for s, t in zip(r.path, r.path[1:]):
            assert (min(s, t), max(s, t)) in edge_set


def test_profile_source_zero_and_lipschitz(sg2_ctx):
    for n in range(1, 7):
        u, v, w = edge_arrays(sg2_ctx, n)
        for x in CORNER:
            phi = geodesic_profile(sg2_ctx, x, n)
            assert phi[sg2_ctx.vertex_id(x, n)] == 0.0
            viol = np.max(np.abs(phi[u] - phi[v]) - w)
            assert viol <= 1e-12


def test_profile_monotone_under_lift(sg2_ctx):
    x = CORNER[0]
    for n in range(0, 5):
        coarse = sg2_ctx.level(n).lg
        fine = sg2_ctx.level(n + 1).lg
        emb = coarse.embed_into(fine)
        phi_c = geodesic_profile(sg2_ctx, x, n)
        phi_f = geodesic_profile(sg2_ctx, x, n + 1)
        assert np.min(phi_f[emb] - phi_c) >= -1e-12


def test_geodesic_converge_history(sg2_ctx):
    hist = geodesic_converge(sg2_ctx, CORNER[0], CORNER[1], 9)
    assert hist.monotone
    assert [n for n, _ in hist.entries] == list(range(10))
    gaps = np.diff([v for _, v in hist.entries])
    assert gaps.min() >= -1e-12
    values = dict(hist.entries)
    assert np.isclose(values[8], GASKET2_CORNER_WALK_8, rtol=1e-12)
    assert np.isclose(values[9], GASKET2_CORNER_WALK_9, rtol=1e-12)
    assert hist.estimate == values[9]
    assert hist.extrapolated is None or hist.extrapolated >= hist.estimate


def test_geodesic_converge_single_entry(sg2_ctx):
    hist = geodesic_converge(sg2_ctx, CORNER[0], CORNER[1], 0)
    assert len(hist.entries) == 1
    assert hist.entries[0][0] == 0


def test_geodesic_converge_rtol_stop(sg2_ctx):
    hist = geodesic_converge(sg2_ctx, CORNER[0], CORNER[1], 9, rtol=1e-4)
    assert hist.converged
    assert hist.entries[-1][0] < 9


def test_geodesic_converge_holds_less_than_a_level(sg3_hs):
    ctx = MetricContext(sg3_hs)
    # one level-7 [k**n, q, N] table of cell values: 13.4 MB
    level_table = 6 ** 7 * 3 * ctx.n_components * 8
    tracemalloc.start()
    try:
        hist = geodesic_converge(ctx, CORNER[0], CORNER[1], 7, rtol=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.entries[-1][0] == 7
    assert peak < level_table


ORACLE_TUPLE = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.5, -1.0, 2.0]])


@pytest.mark.parametrize("hs_fixture, alphas, refs, n_max, rtol", [
    ("sg2_hs", None, CORNER, 7, 0.0),
    ("sg3_hs", None, CORNER, 5, 0.0),
    ("hexa_hs", None, CORNER, 5, 0.0),
    ("nona_hs", None, CORNER, 4, 0.0),
    ("sg2_hs", ORACLE_TUPLE, CORNER, 6, 0.0),
    ("sg2_hs", None, [VertexRef((0, 1), 2), VertexRef((2, 2), 0)], 6, 0.0),
    ("sg2_hs", None, [VertexRef((), 0), VertexRef((1, 2), 1)], 9, 1e-3),
    ("two_corner_hs", None, [VertexRef((0,), 0), VertexRef((0,), 2)], 3, 0.0),
    ("two_corner_hs", None, [VertexRef((2, 0), 0), VertexRef((2, 0), 2)], 3, 0.0),
])
def test_geodesic_converge_matches_level_dijkstra(request, hs_fixture, alphas, refs,
                                                  n_max, rtol):
    hs = request.getfixturevalue(hs_fixture)
    ctx = MetricContext(hs, None if alphas is None else HarmonicTuple(alphas))
    for x, y in itertools.combinations(refs, 2):
        hist = geodesic_converge(ctx, x, y, n_max, rtol=rtol)
        if rtol:
            assert hist.converged and hist.entries[-1][0] < n_max
        else:
            assert hist.entries[-1][0] == n_max
        assert hist.entries[0][0] == max(x.level, y.level)
        for n, value in hist.entries:
            oracle = csgraph_dijkstra(weighted_level_graph(ctx, n), directed=True,
                                      indices=ctx.vertex_id(x, n))[ctx.vertex_id(y, n)]
            assert abs(value - oracle) <= 1e-12 * oracle, (str(x), str(y), n)


def test_geodesic_converge_stops_at_address_limit(sg2_hs, monkeypatch):
    full = geodesic_converge(MetricContext(sg2_hs), CORNER[0], CORNER[1], 8, rtol=0.0)
    monkeypatch.setattr(metrics, "level_address_count",
                        lambda spec, n: level_address_count(spec, n, 3 * 3 ** 4))
    # nine leaf cells per block: level n is streamed from level n - 2
    monkeypatch.setattr(measures, "_STREAM_BLOCK_CELLS", 9)
    ctx = MetricContext(sg2_hs)
    hist = geodesic_converge(ctx, CORNER[0], CORNER[1], 8, rtol=0.0)
    assert hist.entries == full.entries[:7]
    assert not hist.converged
    assert hist.stop_reason == ("level 7 is streamed from level 5: "
                                "level 5 needs 729 addresses (limit 243)")
    # no level is held whole, not even the references' own
    assert list(ctx._levels) == []
    # with no level affordable there is no history to return
    with pytest.raises(ResourceLimitError):
        geodesic_converge(ctx, VertexRef((0,) * 5, 0), CORNER[1], 8)


def test_geodesic_converge_computes_each_level_once(sg2_hs, monkeypatch):
    ctx = MetricContext(sg2_hs)
    calls = []
    streamed_walks = metrics._streamed_walks

    def counting_streamed_walks(context, n, m):
        calls.append(n)
        return streamed_walks(context, n, m)

    def not_reached(*args, **kwargs):
        raise AssertionError("the level walk graph was assembled")

    walk_graph = metrics._walk_graph

    def corner_skeleton_only(lg, W):
        # the references are corners: only the level-0 skeleton is walked
        if lg.level != 0:
            not_reached()
        return walk_graph(lg, W)

    monkeypatch.setattr(metrics, "_streamed_walks", counting_streamed_walks)
    monkeypatch.setattr(metrics, "edge_arrays", not_reached)
    monkeypatch.setattr(metrics, "weighted_level_graph", not_reached)
    monkeypatch.setattr(metrics, "_walk_graph", corner_skeleton_only)
    for a, b in itertools.combinations(range(3), 2):
        hist = geodesic_converge(ctx, CORNER[a], CORNER[b], 5)
        assert [n for n, _ in hist.entries] == list(range(6))
    # every level, the references' own included, is built once by the one
    # builder and its table shared by the three pairs
    assert sorted(calls) == list(range(6))


PROFILE_CASES = [("sg2_hs", 7), ("sg3_hs", 5), ("hexa_hs", 5), ("nona_hs", 4),
                 ("two_corner_hs", 5)]


def profile_sources(q, n):
    """Every corner, and two interior vertices of deeper levels."""
    refs = [VertexRef((), a) for a in range(q)]
    return refs + [r for r in (VertexRef((1, 0), q - 1), VertexRef((0, 1, 1), 0))
                   if r.level <= n]


@pytest.mark.parametrize("hs_fixture, n", PROFILE_CASES)
def test_profile_matches_level_dijkstra(request, hs_fixture, n):
    ctx = MetricContext(request.getfixturevalue(hs_fixture))
    graph = weighted_level_graph(ctx, n)
    for x in profile_sources(ctx.spec.boundary, n):
        phi = geodesic_profile(ctx, x, n)
        oracle = csgraph_dijkstra(graph, directed=True, indices=ctx.vertex_id(x, n))
        assert phi[ctx.vertex_id(x, n)] == 0.0
        assert np.all(np.abs(phi - oracle) <= 1e-12 * oracle), str(x)


@pytest.mark.parametrize("hs_fixture, n", PROFILE_CASES)
def test_profile_matches_geodesic_converge_bits(request, hs_fixture, n):
    # on the references' own level both read one skeleton Dijkstra
    ctx = MetricContext(request.getfixturevalue(hs_fixture))
    q = ctx.spec.boundary
    pairs = list(itertools.combinations(CORNER[:q], 2)) + [
        (VertexRef((1, 0), q - 1), VertexRef((1, 2), 0)),
        (VertexRef((0, 1), 1), VertexRef((2, 2), 2))]
    for x, y in pairs:
        phi = geodesic_profile(ctx, x, n)
        walk = geodesic_converge(ctx, x, y, n, rtol=0.0).entries[-1][1]
        assert phi[ctx.vertex_id(y, n)] == walk, (str(x), str(y))


@pytest.mark.parametrize("hs_fixture, n", PROFILE_CASES)
def test_profile_blocks_identical(request, hs_fixture, n, monkeypatch):
    ctx = MetricContext(request.getfixturevalue(hs_fixture))
    x = VertexRef((1, 0), ctx.spec.boundary - 1)
    whole = geodesic_profile(ctx, x, n)
    # two parents per block, up and down the cell tree
    monkeypatch.setattr(metrics, "_REDUCE_BLOCK_ENTRIES", 2 * ctx.schedule.slots)
    assert np.array_equal(geodesic_profile(ctx, x, n), whole)


def test_certificate_builds_no_level_graph(sg2_hs, monkeypatch):
    ctx = MetricContext(sg2_hs)
    walked = []
    walk_graph = metrics._walk_graph

    def not_reached(*args, **kwargs):
        raise AssertionError("the level walk graph was assembled")

    def skeleton(lg, W):
        walked.append(lg.level)
        return walk_graph(lg, W)

    monkeypatch.setattr(metrics, "weighted_level_graph", not_reached)
    monkeypatch.setattr(metrics, "_walk_graph", skeleton)
    n = 5
    for x in [CORNER[0], VertexRef((1, 0), 2), VertexRef((0, 1, 1), 0)]:
        cert = intrinsic_certificate(ctx, x, CORNER[1], n)
        assert cert.feasible
        intrinsic_estimate(ctx, x, CORNER[1], n, budget=2)
    # one skeleton per call, each on the source's own level
    assert walked == [0, 0, 2, 2, 3, 3]
    assert "graph" not in vars(ctx.level(n))


def test_discrete_geodesic_builds_no_level_graph(sg2_hs, monkeypatch):
    ctx = MetricContext(sg2_hs)
    walked = []
    walk_graph = metrics._walk_graph

    def not_reached(*args, **kwargs):
        raise AssertionError("the level walk graph was assembled")

    def skeleton(lg, W):
        walked.append(lg.level)
        return walk_graph(lg, W)

    monkeypatch.setattr(metrics, "weighted_level_graph", not_reached)
    monkeypatch.setattr(metrics, "_walk_graph", skeleton)
    for x in [CORNER[0], VertexRef((1, 0), 2)]:
        res = discrete_geodesic(ctx, x, CORNER[1], 5)
        assert res.path[0] == ctx.vertex_id(x, 5)
    # the path is walked back over cell edges; only the sources' own
    # skeletons are walk graphs
    assert walked == [0, 2]


@pytest.mark.parametrize("hs_fixture, n", PROFILE_CASES)
def test_discrete_geodesic_path_is_shortest(request, hs_fixture, n):
    ctx = MetricContext(request.getfixturevalue(hs_fixture))
    graph = weighted_level_graph(ctx, n)
    q = ctx.spec.boundary
    for x, y in [(CORNER[0], CORNER[1]), (VertexRef((1, 0), q - 1), CORNER[q - 1])]:
        res = discrete_geodesic(ctx, x, y, n)
        assert res.path[0] == ctx.vertex_id(x, n) and res.path[-1] == ctx.vertex_id(y, n)
        steps = list(zip(res.path, res.path[1:]))
        # every step is an edge, and the steps add up to the value
        assert all(graph[s, t] > 0 for s, t in steps)
        length = sum(graph[s, t] for s, t in steps)
        assert abs(length - res.value) <= 1e-12 * res.value


def test_discrete_geodesic_on_zero_weight_graph(sg2_hs):
    with pytest.warns(UserWarning, match="constant"):
        ctx = MetricContext(sg2_hs, HarmonicTuple(np.ones((1, 3))))
    res = discrete_geodesic(ctx, CORNER[0], CORNER[1], 3)
    assert res.value == 0.0
    assert res.path[0] == ctx.vertex_id(CORNER[0], 3)
    assert res.path[-1] == ctx.vertex_id(CORNER[1], 3)
    u, v, _ = edge_arrays(ctx, 3)
    edge_set = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
    assert all((min(s, t), max(s, t)) in edge_set for s, t in zip(res.path, res.path[1:]))


def test_discrete_geodesic_disconnected_raises(sg2_ctx, monkeypatch):
    profile = metrics.geodesic_profile

    def cut_off(ctx, x, n):
        phi = profile(ctx, x, n)
        phi[ctx.vertex_id(CORNER[1], n)] = np.inf
        return phi

    monkeypatch.setattr(metrics, "geodesic_profile", cut_off)
    with pytest.raises(FractalDistError, match="disconnected"):
        discrete_geodesic(sg2_ctx, CORNER[0], CORNER[1], 3)


def test_quasi_metric_laws(sg2_ctx):
    dm = distance_matrix(sg2_ctx, 2, 5)
    assert np.max(np.abs(dm - dm.T)) <= 1e-12
    nsrc = dm.shape[0]
    rng = np.random.default_rng(20)
    triples = rng.integers(0, nsrc, size=(200, 3))
    for i, j, l in triples:
        assert dm[i, l] <= dm[i, j] + dm[j, l] + 1e-12
    # chord bound against embedded coordinates
    src_lg = sg2_ctx.level(2).lg
    coords = sg2_ctx.coords(2)
    for i in range(nsrc):
        for j in range(nsrc):
            chord = np.linalg.norm(coords[i] - coords[j])
            assert dm[i, j] >= chord - 1e-12


def test_distance_matrix_parallel_identical(sg2_ctx):
    serial = distance_matrix(sg2_ctx, 1, 4, workers=1)
    parallel = distance_matrix(sg2_ctx, 1, 4, workers=2)
    assert np.array_equal(serial, parallel)


@pytest.mark.parametrize("hs_fixture, alphas, m, n", [
    ("sg2_hs", None, 0, 5),
    ("sg2_hs", None, 2, 6),
    ("sg2_hs", None, 3, 3),
    ("sg3_hs", None, 1, 4),
    ("hexa_hs", None, 1, 4),
    ("nona_hs", None, 1, 3),
    ("sg2_hs", ORACLE_TUPLE, 2, 6),
    ("two_corner_hs", None, 1, 1),
    ("two_corner_hs", None, 2, 2),
])
def test_distance_matrix_matches_level_dijkstra(request, hs_fixture, alphas, m, n):
    hs = request.getfixturevalue(hs_fixture)
    ctx = MetricContext(hs, None if alphas is None else HarmonicTuple(alphas))
    dm = distance_matrix(ctx, m, n)
    src = build_level(hs.spec, m).embed_into(ctx.level(n).lg)
    oracle = csgraph_dijkstra(weighted_level_graph(ctx, n), directed=True,
                              indices=src)[:, src]
    assert np.all(np.diag(dm) == 0.0)
    assert np.all(np.abs(dm - oracle) <= 1e-12 * oracle)


def test_distance_matrix_blocked_reduction_identical(sg2_ctx, monkeypatch):
    whole = distance_matrix(sg2_ctx, 1, 6)
    # five parents per block: the steps over 243, 81, 27 and 9 parents run in
    # several blocks
    monkeypatch.setattr(metrics, "_REDUCE_BLOCK_ENTRIES", 5 * 6 * 6)
    assert np.array_equal(distance_matrix(sg2_ctx, 1, 6), whole)


def floyd_warshall_reduce(W, pattern):
    """Dense reference for one cell-tree step: Floyd-Warshall over every
    node of each parent's copy of the level-1 ``pattern``."""
    k, q = pattern.spec.letters, pattern.spec.boundary
    a, b = np.triu_indices(q, 1)
    bnd = np.asarray(pattern.boundary_ids)
    children = W.reshape(len(a), -1, k)
    nv1 = pattern.num_vertices
    G = np.full((nv1, nv1, children.shape[1]), np.inf)
    for i, corners in enumerate(pattern.cells):
        u, v = corners[a], corners[b]
        G[u, v] = G[v, u] = np.minimum(G[u, v], children[..., i])
    for p in range(nv1):
        np.minimum(G, G[:, p, None] + G[None, p], out=G)
    return G[bnd[a], bnd[b]]


PATTERNS = {f"{kind}:{param}": build_level(generate_spec(kind, param), 1)
            for kind, param in [("gasket", 2), ("gasket", 3),
                                ("polygasket", 6), ("polygasket", 9)]}
# cells 0 and 1 share two nodes, so two child weights land on one pair; the
# free corner of cell 2 is an interior node with a single neighbour
PATTERNS["parallel"] = build_level(FractalSpec(
    "parallel", 3, 3, (0, 1, 2), ((0, 1, 1, 0), (0, 2, 1, 2), (1, 2, 2, 1))), 1)


@pytest.mark.parametrize("name", list(PATTERNS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduce_cells_matches_floyd_warshall(name, data):
    pattern = PATTERNS[name]
    k, q = pattern.spec.letters, pattern.spec.boundary
    parents = data.draw(st.integers(1, 4))
    # independent weights per corner pair, so a child's three weights need
    # not satisfy the triangle inequality
    W = data.draw(arrays(np.float64, (q * (q - 1) // 2, k * parents),
                         elements=st.floats(0.0, 1e3, allow_subnormal=False)))
    ref = floyd_warshall_reduce(W, pattern)
    schedule = metrics.reduction_schedule(pattern)
    got = metrics._reduce_cells(W, schedule)[schedule.corners]
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("name", list(PATTERNS))
def test_reduce_cells_blocks_identical(name, monkeypatch):
    pattern = PATTERNS[name]
    k, q = pattern.spec.letters, pattern.spec.boundary
    schedule = metrics.reduction_schedule(pattern)
    W = np.random.default_rng(7).exponential(size=(q * (q - 1) // 2, k * 7))
    whole = metrics._reduce_cells(W, schedule)
    assert whole.shape == (schedule.slots, 7)
    # two parents per block: seven parents run in four blocks; every slot
    # row of the table, not only the corner rows, is compared
    monkeypatch.setattr(metrics, "_REDUCE_BLOCK_ENTRIES", 2 * schedule.slots)
    assert np.array_equal(metrics._reduce_cells(W, schedule), whole)


@pytest.mark.parametrize("name", list(PATTERNS))
def test_schedule_writes_each_slot_first_once(name):
    schedule = metrics.reduction_schedule(PATTERNS[name])
    written = set()
    for dst, first, _, _ in schedule.seeds:
        assert first == (dst not in written)
        written.add(dst)
    for dst, first, a, b in schedule.updates:
        # no update reads a slot before its first write
        assert a in written and b in written
        assert first == (dst not in written)
        written.add(dst)
    firsts = [dst for dst, first, *_ in schedule.seeds + schedule.updates if first]
    assert sorted(firsts) == list(range(schedule.slots))
    assert set(schedule.corners.tolist()) <= written
    for _, around, slots in schedule.eliminated:
        # _fill_patterns writes each node from its first neighbour
        assert len(around) >= 1 and len(slots) == len(around)
        assert set(slots) <= written


def inf_reduce_cells(W, schedule):
    """Reference for _reduce_cells: an inf-filled table, every seed and
    update a minimum."""
    children = W.reshape(W.shape[0], -1, len(schedule.cells))
    G = np.full((schedule.slots, children.shape[1]), np.inf)
    block = max(1, metrics._REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, G.shape[1], block):
        part, g = children[:, s:s + block], G[:, s:s + block]
        for dst, *_, p, i in schedule.seeds:
            np.minimum(g[dst], part[p, :, i], out=g[dst])
        for dst, *_, u, v in schedule.updates:
            np.minimum(g[dst], g[u] + g[v], out=g[dst])
    return G


def gather_fill_patterns(corner_d, G, schedule):
    """Reference for _fill_patterns: each node the minimum over a gather of
    its neighbours' rows plus their slots."""
    nodes = np.empty((len(schedule.boundary_ids) + len(schedule.eliminated), G.shape[1]))
    nodes[schedule.boundary_ids] = corner_d
    block = max(1, metrics._REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, G.shape[1], block):
        part, g = nodes[:, s:s + block], G[:, s:s + block]
        for x, around, slots in reversed(schedule.eliminated):
            part[x] = np.min(part[np.asarray(around)] + g[np.asarray(slots)], axis=0)
    return nodes


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("name", list(PATTERNS))
def test_elimination_matches_inf_and_gather_references(name, blocked, monkeypatch):
    pattern = PATTERNS[name]
    k, q = pattern.spec.letters, pattern.spec.boundary
    schedule = metrics.reduction_schedule(pattern)
    if blocked:  # two parents per block: seven parents run in four blocks
        monkeypatch.setattr(metrics, "_REDUCE_BLOCK_ENTRIES", 2 * schedule.slots)
    # other weights when blocked, so that no table freed by the unblocked
    # case holds the expected rows
    rng = np.random.default_rng(11 + blocked)

    def weights(*shape):  # a quarter of them exact zeros
        return np.where(rng.random(shape) < 0.25, 0.0, rng.exponential(size=shape))

    W = weights(q * (q - 1) // 2, k * 7)
    G = metrics._reduce_cells(W, schedule)
    # every slot row, not only the corner rows
    assert np.array_equal(G, inf_reduce_cells(W, schedule))
    corner_d = weights(q, 7)
    assert np.array_equal(metrics._fill_patterns(corner_d, G, schedule),
                          gather_fill_patterns(corner_d, G, schedule))


@pytest.mark.parametrize("name", ["gasket:2", "gasket:3", "polygasket:6", "polygasket:9"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_corner_walks_stream_matches_whole_level(name, data):
    hs = builtin_hs(name)
    k, q = hs.spec.letters, hs.spec.boundary
    # at most 1296 cells, so that one-cell blocks stay cheap
    n = data.draw(st.integers(0, max(n for n in range(7) if k ** n <= 1296)))
    alphas = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), q),
                              elements=st.floats(-10, 10, allow_subnormal=False)))
    assume(np.ptp(alphas, axis=1).max() > 1e-12)
    # blocks of one cell up to one block per level: several s and p, and
    # blocks of several prefixes
    chunk = data.draw(st.integers(1, 3)) * k ** data.draw(st.integers(0, n))
    ctx = MetricContext(hs, HarmonicTuple(alphas))
    whole = [metrics._corner_lengths(cell_boundary_values(hs, ctx.h, n))]
    for _ in range(n):
        whole.append(metrics._reduce_cells(whole[-1], ctx.schedule)[ctx.schedule.corners])
    with mock.patch.object(measures, "_STREAM_BLOCK_CELLS", chunk):
        for m in range(n + 1):
            assert np.array_equal(metrics.corner_walks(ctx, n, m), whole[n - m]), m


def test_corner_walks_above_the_prefix_level(monkeypatch):
    # gasket:2 level 7 in blocks of 27 cells streams from level 4; tables of
    # cells at levels 4..7 reduce each block fewer levels than the stream's
    n = 7
    monkeypatch.setattr(measures, "_STREAM_BLOCK_CELLS", 27)
    assert measures._prefix_level(3, n) == 4
    ctx = MetricContext(builtin_hs("gasket:2"))
    whole = [metrics._corner_lengths(cell_boundary_values(ctx.hs, ctx.h, n))]
    for _ in range(n):
        whole.append(metrics._reduce_cells(whole[-1], ctx.schedule)[ctx.schedule.corners])
    calls = []
    streamed_walks = metrics._streamed_walks

    def counting_streamed_walks(context, n, m):
        calls.append((n, m))
        return streamed_walks(context, n, m)

    monkeypatch.setattr(metrics, "_streamed_walks", counting_streamed_walks)
    for m in range(4, n + 1):
        for _ in range(2):
            W = metrics.corner_walks(ctx, n, m)
            assert np.array_equal(W, whole[n - m]), m
            assert not W.flags.writeable, m
    assert calls == [(n, m) for m in range(4, n + 1)]


def test_corner_walks_check_the_address_limit_first(monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("corner values built before the size check")

    monkeypatch.setattr(metrics, "level_address_count",
                        lambda spec, n: level_address_count(spec, n, 3 * 3 ** 4))
    monkeypatch.setattr(measures, "child_values", not_reached)
    monkeypatch.setattr(measures, "cell_boundary_values", not_reached)
    ctx = MetricContext(builtin_hs("gasket:2"))
    for n, m in [(5, 5), (7, 7), (7, 5)]:
        with pytest.raises(ResourceLimitError):
            metrics.corner_walks(ctx, n, m)
    assert ctx._walks == {}


# a regular harmonic structure on gasket:2 whose weights differ per letter:
# unequal boundary conductances, with r solved from the regularity equations
SKEW_GASKET_D = np.array([[-2.3, 1.0, 1.3], [1.0, -1.8, 0.8], [1.3, 0.8, -2.1]])
SKEW_GASKET_R = [0.5628759129987719, 0.6349840097708683, 0.6006323915912465]


@functools.cache
def skew_gasket_hs():
    return HarmonicStructure.build(generate_spec("gasket", 2), SKEW_GASKET_D, SKEW_GASKET_R)


@pytest.mark.parametrize("name", ["gasket:2", "gasket:3", "polygasket:6", "polygasket:9",
                                  "skew gasket:2"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_level_tables_match_whole_level(name, data):
    hs = skew_gasket_hs() if name.startswith("skew") else builtin_hs(name)
    k = hs.spec.letters
    n = data.draw(st.integers(0, max(n for n in range(7) if k ** n <= 1296)))
    # blocks of one cell up to one block per level, as for corner_walks
    chunk = data.draw(st.integers(1, 3)) * k ** data.draw(st.integers(0, n))
    ctx = MetricContext(hs)
    lg = ctx.level(n).lg
    f = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(size=lg.num_vertices)
    g = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(size=lg.num_vertices)
    # whole-level references: one values table, one cell_form on whole
    # gathers, and the corner-by-corner scatter of the values
    values = cell_boundary_values(hs, ctx.h, n)
    rw = renorm_products(hs.r, n)
    lengths = metrics._corner_lengths(values)
    mu = cell_form(hs.D, rw, values)
    energies = cell_form(hs.D, rw, f[lg.cells])
    pairing = cell_form(hs.D, rw, f[lg.cells], g[lg.cells])
    coords = np.empty((lg.num_vertices, ctx.n_components))
    for a in range(lg.cells.shape[1]):
        coords[lg.cells[:, a]] = values[:, a]
    with mock.patch.object(measures, "_STREAM_BLOCK_CELLS", chunk):
        assert np.array_equal(metrics.corner_walks(ctx, n, n), lengths)
        assert np.array_equal(ctx.level(n).mu, mu)
        assert np.array_equal(tuple_cell_measures(hs, ctx.h, n), mu)
        assert np.array_equal(ctx.coords(n), coords)
        assert np.array_equal(cell_energies(hs, lg, f), energies)
        assert np.array_equal(cell_form(hs.D, rw, f, g, cells=lg.cells), pairing)
    # the cached lengths are shared by every caller
    with pytest.raises(ValueError):
        metrics.corner_walks(ctx, n, n)[0, 0] = 0.0


def test_full_level_routes_hold_one_block(monkeypatch):
    # gasket:2 level 7 in blocks of 27 cells streams from level 7 - 3: its
    # 81 prefix cells are built whole, and each block expands one of them
    n, block = 7, 27
    monkeypatch.setattr(measures, "_STREAM_BLOCK_CELLS", block)
    prefix_cells = 3 ** measures._prefix_level(3, n)
    assert prefix_cells == 81 < 3 ** n
    built, expanded, building = [], [], []

    def recording_cell_boundary_values(*args):
        building.append(True)
        try:
            values = cell_boundary_values(*args)
        finally:
            building.pop()
        built.append(len(values))
        return values

    def recording_child_values(*args):
        values = child_values(*args)
        if not building:  # a block expansion, not the build of a prefix table
            expanded.append(len(values))
        return values

    monkeypatch.setattr(measures, "cell_boundary_values", recording_cell_boundary_values)
    monkeypatch.setattr(measures, "child_values", recording_child_values)
    x, y = CORNER[0], CORNER[1]
    ctx = MetricContext(builtin_hs("gasket:2"))
    routes = {
        "profile": lambda: geodesic_profile(ctx, x, n),
        "certificate": lambda: intrinsic_certificate(ctx, x, y, n),
        "geodesic": lambda: discrete_geodesic(ctx, x, y, n),
        "coords": lambda: ctx.coords(n),
        "graph": lambda: weighted_level_graph(ctx, n),
        "estimate": lambda: intrinsic_estimate(ctx, x, y, n, budget=2),
        "measures": lambda: measures.cell_measure_table(ctx.hs, ctx.h, n),
    }
    for name, route in routes.items():
        ctx.evict()
        del built[:], expanded[:]
        route()
        assert expanded and max(expanded) <= block, name
        assert max(built) <= prefix_cells, name
    assert not hasattr(metrics.LevelData, "cell_values")


def test_corner_walks_reduce_few_small_blocks(monkeypatch):
    # gasket:3 level 8 streams from level 6, the deepest that fits in one
    # block: each block of prefixes is reduced two steps and the level-6
    # table once, so only its last two steps (6 parents and 1) run over
    # fewer than 36 parents; streaming from level 2 made 74 such calls
    ctx = MetricContext(builtin_hs("gasket:3"))
    parents = []
    reduce_cells = metrics._reduce_cells

    def counting_reduce_cells(W, schedule):
        parents.append(W.shape[1] // len(schedule.cells))
        return reduce_cells(W, schedule)

    monkeypatch.setattr(metrics, "_reduce_cells", counting_reduce_cells)
    metrics.corner_walks(ctx, 8, 0)
    assert sum(p < 36 for p in parents) <= 2


def test_streamed_prefix_table_fits_in_one_block(monkeypatch):
    ctx = MetricContext(builtin_hs("gasket:3"))
    sizes = []

    def recording_cell_boundary_values(hs, h, n):
        values = cell_boundary_values(hs, h, n)
        sizes.append(len(values))
        return values

    monkeypatch.setattr(measures, "cell_boundary_values", recording_cell_boundary_values)
    for n in range(1, 9):
        for m in {0, min(2, n - 1)}:
            metrics.corner_walks(ctx, n, m)
    # the prefix level is the deepest one that fits: 6**6 cells from level 6 on
    assert max(sizes) == 6 ** 6 <= measures._STREAM_BLOCK_CELLS


# float.hex of corner_walks(ctx, 7, 0) and of the first four cells of
# corner_walks(ctx, 7, 2) with the default tuple, frozen from the per-letter
# child_values products and the n - s prefix level: a change to the
# expansion or to the stream that moves one bit fails here
CORNER_WALKS_7 = {
    "gasket:3": (
        ["0x1.c6413c74d4e08p-1", "0x1.c6413c74d4e07p-1", "0x1.c6413c74d4e08p-1"],
        [["0x1.3b6bd5e9051b2p-3", "0x1.69f4d28b84146p-4", "0x1.0f5ae1aaecc3ap-4",
          "0x1.703ba3dc5518bp-4"],
         ["0x1.3b6bd5e9051b0p-3", "0x1.0f5ae1aaecc36p-4", "0x1.69f4d28b8414bp-4",
          "0x1.3f93289a77408p-5"],
         ["0x1.23a10881052aap-4", "0x1.3d8b22c3b1f89p-5", "0x1.3d8b22c3b1f8ap-5",
          "0x1.1b068f7e79f49p-4"]]),
    "polygasket:6": (
        ["0x1.b6930f38746bap-1", "0x1.b6930f38746bbp-1", "0x1.b6930f38746bbp-1"],
        [["0x1.0adaf85e95f8ep-3", "0x1.6928737db7dc2p-5", "0x1.7da97538586eep-4",
          "0x1.110281f60c414p-6"],
         ["0x1.0adaf85e95f8fp-3", "0x1.6928737db7dbap-5", "0x1.90a9387533659p-5",
          "0x1.110281f60c415p-6"],
         ["0x1.6c1033972e41ep-5", "0x1.6928737db7dbdp-4", "0x1.fb318b077d4a0p-5",
          "0x1.110281f60c414p-5"]]),
}


@pytest.mark.parametrize("name", list(CORNER_WALKS_7))
def test_corner_walks_keep_frozen_bits(name):
    ctx = MetricContext(builtin_hs(name))
    whole, cells = CORNER_WALKS_7[name]
    assert [float.hex(float(v)) for v in metrics.corner_walks(ctx, 7, 0)[:, 0]] == whole
    assert [[float.hex(float(v)) for v in row]
            for row in metrics.corner_walks(ctx, 7, 2)[:, :4]] == cells


def test_distance_matrix_oversized_level_fails_first(sg2_ctx, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("level data allocated before the size check")

    monkeypatch.setattr(metrics, "build_level", not_reached)
    monkeypatch.setattr(measures, "cell_boundary_values", not_reached)
    with pytest.raises(ResourceLimitError) as err:
        distance_matrix(sg2_ctx, 0, 20)
    assert err.value.attempted_size == 3 * 3 ** 20


def test_certificate_zero_cap(sg2_ctx):
    cert = intrinsic_certificate(sg2_ctx, CORNER[0], CORNER[1], 3, cap=0.0)
    assert cert.certified_value == 0.0
    assert cert.feasible
    assert np.all(cert.values == 0.0)


def test_certificate_value_is_capped_walk_distance(sg2_ctx):
    n = 4
    walk = discrete_geodesic(sg2_ctx, CORNER[0], CORNER[1], n).value
    cert_big = intrinsic_certificate(sg2_ctx, CORNER[0], CORNER[1], n, cap=10.0)
    assert cert_big.certified_value == min(walk, 10.0)
    small = 0.5 * walk
    cert_small = intrinsic_certificate(sg2_ctx, CORNER[0], CORNER[1], n, cap=small)
    assert cert_small.certified_value == small
    assert cert_small.feasible


def test_certificates_feasible_all_corner_pairs(sg2_ctx):
    for n in range(1, 7):
        for x, y in itertools.combinations(CORNER, 2):
            cert = intrinsic_certificate(sg2_ctx, x, y, n)
            assert cert.feasible, (n, str(x), str(y), cert.slack.min_slack)
            assert cert.slack.checked_depth == n


def test_certificate_feasible_on_hexagasket(hexa_ctx):
    cert = intrinsic_certificate(hexa_ctx, CORNER[0], CORNER[2], 4)
    assert cert.feasible


def test_certificate_slack_does_not_cancel_on_nonagasket(nona_hs):
    # some cells have corners collinear in the embedding and tight for the
    # profile, so their exact slack is 0; computed from corner differences it
    # stays at rounding level instead of growing as the cells shrink
    cert = intrinsic_certificate(MetricContext(nona_hs), CORNER[0], CORNER[1], 6)
    assert cert.slack.min_slack / cert.slack.scale >= -1e-15


@functools.cache
def certificate_hs(name):
    if name == "two-corner":
        return HarmonicStructure.build(FractalSpec.from_json_dict(TWO_CORNER_FIELDS))
    return builtin_hs(name)


@pytest.mark.parametrize("name, max_level", [("gasket:2", 5), ("gasket:3", 3),
                                             ("polygasket:6", 3), ("polygasket:9", 2),
                                             ("two-corner", 4)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_certificate_on_random_tuples(name, max_level, data):
    # gasket:2 is built with the default D, the unit-conductance matrix
    hs = certificate_hs(name)
    q = hs.spec.boundary
    alphas = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), q),
                              elements=st.floats(-10, 10, allow_subnormal=False)))
    rounded = data.draw(arrays(bool, (len(alphas), 1)))
    alphas = np.where(rounded, np.round(alphas), alphas)
    assume(np.ptp(alphas, axis=1).max() > 1e-12)
    n = data.draw(st.integers(0, max_level))
    a, b = data.draw(st.permutations(range(q)))[:2]
    ctx = MetricContext(hs, HarmonicTuple(alphas))
    cert = intrinsic_certificate(ctx, CORNER[a], CORNER[b], n)
    assert cert.feasible, cert.slack.min_slack / cert.slack.scale
    walk = discrete_geodesic(ctx, CORNER[a], CORNER[b], n).value
    assert cert.certified_value == min(walk, cert.cap)


def test_default_cap_exceeds_walk_values(sg2_ctx):
    cap = default_cap(sg2_ctx)
    walk = discrete_geodesic(sg2_ctx, CORNER[0], CORNER[1], 6).value
    assert cap > walk


def test_estimate_budget_zero_is_certificate(sg2_ctx):
    est = intrinsic_estimate(sg2_ctx, CORNER[0], CORNER[1], 4, budget=0)
    assert est.value == est.certificate_value
    assert est.iterations == 0


def test_estimate_monotone_and_bounded(sg2_ctx):
    est = intrinsic_estimate(sg2_ctx, CORNER[0], CORNER[1], 5, budget=120)
    assert est.value >= est.certificate_value - 1e-9
    assert all(b >= a - 1e-15 for a, b in zip(est.history, est.history[1:]))
    # a feasible ascent can never exceed the level-limited optimum by much;
    # sanity-bound it by the converged walk estimate plus slack
    hist = geodesic_converge(sg2_ctx, CORNER[0], CORNER[1], 8)
    assert est.value <= 1.05 * hist.estimate


def test_estimate_stops_at_first_unmoving_direction(sg2_ctx):
    # once no direction moves, a larger budget buys no further iterations
    runs = [intrinsic_estimate(sg2_ctx, CORNER[0], CORNER[1], 3, budget=b) for b in (40, 200)]
    for est in runs:
        assert est.converged is True
        assert est.iterations <= 10
    assert runs[0].value == runs[1].value
    assert runs[0].history == runs[1].history


def test_estimate_returns_certificate_when_nothing_moves(hexa_ctx):
    est = intrinsic_estimate(hexa_ctx, CORNER[0], CORNER[1], 4)
    assert est.converged is True
    assert est.iterations == 1
    assert est.value == est.certificate_value
    assert est.history == [est.certificate_value]


def test_embedding_level_zero_rows(sg2_ctx):
    assert np.allclose(sg2_ctx.coords(0), sg2_ctx.h.alphas.T, atol=1e-15)
    lg = sg2_ctx.level(0).lg
    for a in range(3):
        assert lg.address(a) == VertexRef((), a)


def test_embedding_lift_consistency(sg2_ctx):
    for m, n in [(0, 2), (1, 3)]:
        emb = sg2_ctx.level(m).lg.embed_into(sg2_ctx.level(n).lg)
        assert np.max(np.abs(sg2_ctx.coords(n)[emb] - sg2_ctx.coords(m))) < 1e-12


def test_embedding_golden_csv(sg2_hs):
    a1 = np.array([0.0, 1.0, 1.0])
    cand = np.array([1.0, 0.0, 1.0])
    a2 = cand - (sg2_hs.energy0(a1, cand) / sg2_hs.energy0(a1, a1)) * a1
    ctx = MetricContext(sg2_hs, HarmonicTuple(np.stack([a1, a2])))
    text = "".join(["id,word,label,x_1,x_2\n", *vertex_rows(ctx.level(3).lg, ctx.coords(3))])
    with open(os.path.join(DATA, "embedding_gasket2_level3.csv")) as fh:
        assert fh.read() == text


def test_walk_values_nondecreasing_other_specs(hexa_ctx):
    hist = geodesic_converge(hexa_ctx, CORNER[0], CORNER[1], 5)
    assert hist.monotone
    gaps = np.diff([v for _, v in hist.entries])
    assert gaps.min() >= -1e-12


@pytest.mark.parametrize("x,y", [("-:0", "-:0"), ("0:1", "1:0")])
def test_zero_distance_stops_after_two_levels(sg2_ctx, x, y):
    # one rule stops the levels and sets `converged`: a zero value has settled
    hist = geodesic_converge(sg2_ctx, VertexRef.parse(x), VertexRef.parse(y), 11)
    assert len(hist.entries) == 2
    assert hist.converged and hist.estimate == 0.0
