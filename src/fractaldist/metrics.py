"""Discrete geodesics through a harmonic embedding, and intrinsic-distance
certificates.

Vertices of the level-``n`` graph are joined inside every cell; the edge
weight is the Euclidean distance of the endpoints' coordinates under the
harmonic tuple.  Shortest walk lengths are nondecreasing in ``n`` and their
limit is the geodesic distance through the embedding.

Every Dijkstra runs on a walk graph built by :func:`_walk_graph`: the
vertices of one level, joined inside each of its cells with one weight per
corner pair.  Where cells share a vertex pair, the shorter weight is kept.
A walk crosses a cell only through its corners, so the corner-to-corner
lengths of the level-``n`` cells are reduced up the cell tree in the (min, +)
semiring by a schedule fixed per spec (:func:`structure.reduction_schedule`),
and Dijkstra runs on the graph of the references' own level, weighted by
those reductions.  Walk lengths between fixed references
(:func:`geodesic_converge`, :func:`distance_matrix`) stop there.  One
builder serves every depth (:func:`corner_walks`): the level-``n`` cells are
expanded and reduced one block of subtrees at a time, so the references'
walks never hold a whole level.  Profiles and
certificates, which need every vertex, measure the level's unreduced corner
lengths with its tuple measures, in the one pass of
:func:`measures.tuple_cell_measures` over its cells (:func:`_profile`),
keep each level's elimination table on the way up and run the elimination
backwards on the way down (:func:`geodesic_profile`); the path of
:func:`discrete_geodesic` is walked back over the level's cell edges that its
profile holds tight.  They hold per-cell numbers of the whole level (corner
lengths while the profile is built, measures), never its cells' corner
values: every reader of those runs over one block of cells at a time
(:func:`_cell_blocks`).  A
profile from a source on level ``n`` itself (and so a certificate or an
estimate from one) runs Dijkstra on its skeleton, the whole level-``n`` walk
graph.  Otherwise the level-``n`` graph (:func:`weighted_level_graph`) is
built on demand, for the ``graph`` export and the tests' Dijkstra oracles.

A :class:`MetricContext` keeps one :class:`LevelData` record per level (the
vertex graph, and the cell measures and the last profile that the level's
profiles leave), and the corner walks that were asked for by ``(n, m)``.  A
profile's pass leaves the level's measures and keeps no corner lengths, so a
certificate or estimate after it from the same source reads that profile and
those measures, and expands no cell again.  A path after it runs no second
elimination, but measures the level's corner lengths again
(:func:`edge_arrays`).  The profile, and a certificate's values when the cap
caps nothing, are shared and read-only; a request from another source
replaces the level's profile.  Each route checks its references against
the level before any work on it (:func:`_checked_level`).

A *certificate* is the capped single-source distance profile: its
interpolant's energy measure is dominated cell-by-cell by the tuple's
measure down to depth ``n``, so its increment between two vertices is at
most the optimum of the level-``n`` intrinsic program, which bounds the
intrinsic distance from above, not below.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import FractalDistError, ResourceLimitError
from .harmonic import HarmonicStructure, renorm_products
from .measures import (
    FEASIBILITY_RTOL,
    HarmonicTuple,
    SlackTable,
    _cell_blocks,
    _prefix_level,
    _put_block,
    cell_form,
    check_domination,
    check_tuple_width,
    corner_products,
    default_tuple,
    tuple_cell_measures,
)
from .structure import (
    FractalSpec,
    LevelGraph,
    ReductionSchedule,
    VertexRef,
    build_level,
    cell_pairs,
    level_address_count,
    lift,
)

MONOTONE_TOL = 1e-12
CONVERGENCE_RTOL = 1e-9  # geodesic_converge stops below this relative step
ASCENT_BUDGET = 200  # directions intrinsic_estimate may compute
# edges within this fraction of the walk's value of tight are walked back
# by discrete_geodesic: profiles are sums in another order than the path's
PATH_RTOL = 1e-12


@dataclass
class LevelData:
    """What is kept of one whole level: its vertex graph, built on first read,
    and the two arrays its profiles leave.

    ``mu`` holds the tuple's measures of the level cells, from the pass of
    :func:`tuple_cell_measures` that measures the cells' corner lengths for
    the profile (:func:`_profile`); it is None until the level's first
    profile.  ``profile`` is the last profile :func:`geodesic_profile`
    computed on the level, as ``((source level, canonical source vertex id),
    phi)``, or None.  ``phi`` is read-only and shared with every caller, an
    uncapped :attr:`Certificate.values` included; a request from another
    source replaces it.  No array here holds the corner values of the whole
    level, nor its corner lengths: those are :func:`corner_walks` at ``m ==
    n``, cached on the context when asked for."""

    spec: FractalSpec
    level: int
    mu: np.ndarray | None = None
    profile: tuple[tuple[int, int], np.ndarray] | None = None

    @functools.cached_property
    def lg(self) -> LevelGraph:
        """Vertex graph of the level, as :func:`build_level`."""
        return build_level(self.spec, self.level)


class MetricContext:
    """Immutable bundle of (spec, structure, harmonic tuple) with per-level
    caches used by all distance computations: one :class:`LevelData` record
    per level (its vertex graph, and the cell measures and last distance
    profile that its profiles leave), and the corner walks of
    :func:`corner_walks` keyed by ``(n, m)``, the level's own corner lengths
    at ``m == n``.  Profiles read no corner walks and leave none here: their
    pass over the level measures its corner lengths with its cell measures,
    and frees the lengths on the way up.  The corner walks and the profile
    are shared with later callers and read-only.  A tuple whose rows do not
    hold one value per boundary point raises ``ValueError`` here.
    Reads are thread-safe once built; building is not."""

    def __init__(self, hs: HarmonicStructure, h: HarmonicTuple | None = None):
        self.hs = hs
        self.spec: FractalSpec = hs.spec
        self.h = h if h is not None else default_tuple(hs)
        check_tuple_width(hs, self.h)
        self._levels: dict[int, LevelData] = {}
        self._walks: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_components(self) -> int:
        return self.h.n_components

    def level(self, n: int) -> LevelData:
        """Cache entry of level ``n``; its address count is checked before
        anything of it is computed."""
        data = self._levels.get(n)
        if data is None:
            level_address_count(self.spec, n)
            data = LevelData(self.spec, n)
            self._levels[n] = data
        return data

    def evict(self, n: int | None = None) -> None:
        """Drop cached level data, its profile included, and the corner walks
        of walk level ``n`` (all levels when ``n`` is None)."""
        if n is None:
            self._levels.clear()
            self._walks.clear()
        else:
            self._levels.pop(n, None)
            self._walks = {key: W for key, W in self._walks.items() if key[0] != n}

    def vertex_id(self, ref: VertexRef, n: int) -> int:
        return self.level(n).lg.vertex_id(ref)

    def coords(self, n: int) -> np.ndarray:
        """Embedding coordinates of every level-``n`` vertex, shape [nv, N].

        Scatter of the per-cell values of each block of :func:`_cell_blocks`,
        one corner at a time; identified corners receive identical values,
        making the table independent of the scatter order.
        """
        lg = self.level(n).lg
        T = np.empty((lg.num_vertices, self.n_components))
        for start, values in _cell_blocks(self.hs, self.h, n):
            part = lg.cells[start:start + len(values)]
            for a in range(lg.cells.shape[1]):
                T[part[:, a]] = values[:, a]
        return T


def edge_arrays(ctx: MetricContext, n: int):
    """Within-cell edge list ``(u, v, w)`` of the level-``n`` graph; one entry
    per unordered corner pair per cell, weights = embedded Euclidean lengths,
    a read-only view of ``corner_walks(ctx, n, n)``."""
    return (*cell_pairs(ctx.level(n).lg), corner_walks(ctx, n, n).ravel())


def _walk_graph(lg: LevelGraph, W: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR walk graph on the vertices of ``lg``, with weight
    ``W[p, c]`` between the corners of pair ``p`` of cell ``c`` (``W`` laid
    out as :func:`corner_walks`).

    Where cells share a vertex pair the shorter weight is kept: the COO to
    CSR conversion sums such entries, so only when it stores fewer entries
    than doubled edges are the weights reduced again, by their minimum over
    each sorted key, which is the CSR's own order.  The edge columns are
    released before the conversion because the deepest levels run close to
    the memory budget.
    """
    nv = lg.num_vertices
    u, v = cell_pairs(lg)
    w = W.ravel()
    doubled = sp.coo_matrix((np.concatenate([w, w]),
                             (np.concatenate([u, v]), np.concatenate([v, u]))),
                            shape=(nv, nv))
    del u, v, w
    graph = doubled.tocsr()
    if graph.nnz < doubled.nnz:
        key = doubled.row.astype(np.int64) * nv + doubled.col
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        graph.data = np.minimum.reduceat(doubled.data[order], first)
    return graph


def weighted_level_graph(ctx: MetricContext, n: int) -> sp.csr_matrix:
    """Symmetric CSR adjacency of the level-``n`` walk graph: :func:`_walk_graph`
    on the level's cells, weighted by their embedded corner lengths.  It
    serves the ``graph`` export; no product route runs on it.  Built on
    each call.
    """
    return _walk_graph(ctx.level(n).lg, corner_walks(ctx, n, n))


def _dijkstra(graph: sp.csr_matrix, sources):
    # the stored matrix is already symmetrized, so row-only traversal suffices
    return _csgraph_dijkstra(graph, indices=sources, directed=True)


@dataclass
class GeodesicResult:
    """Shortest level-``n`` walk between two vertices."""

    value: float
    path: list[int]
    level: int


def _checked_level(ctx: MetricContext, n: int, *refs: VertexRef) -> LevelData:
    """The record of level ``n``, once its address count is checked and each
    of ``refs`` is lifted to it (``ValueError`` for a bad letter or label, or
    a ref deeper than ``n``): before any work on the level."""
    data = ctx.level(n)
    for ref in refs:
        lift(ctx.spec, ref, n)
    return data


def geodesic_profile(ctx: MetricContext, x: VertexRef, n: int) -> np.ndarray:
    """Single-source shortest walk lengths from ``x`` to every level-``n``
    vertex, without the level-``n`` graph unless ``x`` lies on level ``n``.

    The level keeps its last profile (``LevelData.profile``), keyed by the
    level of ``x`` and its canonical vertex id there, so two addresses of
    one vertex share it; a repeated request returns that array, which is
    read-only, since every caller shares it.  A request from another source
    replaces it.  Otherwise the profile is computed by :func:`_profile`.
    """
    data = _checked_level(ctx, n, x)
    src_lg = ctx.level(x.level).lg
    key = (x.level, src_lg.vertex_id(x))
    if data.profile is None or data.profile[0] != key:
        data.profile = None  # the replaced profile is not held while the next is built
        phi = _profile(ctx, src_lg, key[1], n)
        phi.flags.writeable = False
        data.profile = (key, phi)
    return data.profile[1]


def _profile(ctx: MetricContext, src_lg: LevelGraph, src: int, n: int) -> np.ndarray:
    """The profile of :func:`geodesic_profile` from vertex ``src`` of the
    source level ``src_lg``.

    The level's corner lengths and tuple measures are measured in one pass,
    one block of cells at a time (:func:`tuple_cell_measures`); the measures
    become ``LevelData.mu``.  The lengths are not cached: they are reduced
    up the cell tree to the source level ``m`` (:func:`_reduce_cells`),
    keeping each level's elimination table, and freed after the first step;
    each level's corner walks are the last rows of its table, read in place.
    Dijkstra runs on the level-``m`` skeleton, as in
    :func:`geodesic_converge`; the tables are then run backwards down the
    tree (:func:`_fill_patterns`), each freed once its level is filled.
    Each level's ``[nodes, P]`` table is made once, with its corner rows
    written straight from the parents' nodes, and the level-``n`` cells'
    corners are scattered to their vertex ids.  Every vertex is a node of
    one parent's pattern, or a skeleton vertex, and takes its value there;
    identified corners copy it, so the profile does not depend on the
    scatter order.
    """
    schedule = ctx.spec.schedule
    pairs = len(schedule.corners)
    W = np.empty((pairs, ctx.spec.letters ** n))
    ctx.level(n).mu = tuple_cell_measures(ctx.hs, ctx.h, n, W)
    tables = []
    for _ in range(n - src_lg.level):
        tables.append(_reduce_cells(W, schedule))
        W = tables[-1][-pairs:]
    d = _dijkstra(_walk_graph(src_lg, W), src)
    del W  # a view that would keep the last table through the fill
    if not tables:
        return d
    k, q = schedule.cells.shape
    size = len(schedule.boundary_ids) + len(schedule.eliminated)
    nodes = np.empty((size, len(src_lg.cells)))
    for a, node in enumerate(schedule.boundary_ids):
        nodes[node] = d[src_lg.cells[:, a]]
    while True:
        _fill_patterns(nodes, tables.pop(), schedule)
        if not tables:
            break
        # corner a of child j of parent P is node cells[j, a] of P's pattern:
        # column P * k + j of the children's node table
        parents, nodes = nodes, np.empty((size, nodes.shape[1] * k))
        by_child = nodes.reshape(size, -1, k)
        for (j, a), node in np.ndenumerate(schedule.cells):
            by_child[schedule.boundary_ids[a], :, j] = parents[node]
        del parents
    lg = ctx.level(n).lg
    phi = np.empty(lg.num_vertices)
    # each node is written once, through its first (child, corner) address,
    # whose ids over a block of parents are one column of the level's cell
    # table; the blocks of _fill_patterns keep a block's rows in cache
    first = np.unique(schedule.cells, return_index=True)[1]
    addresses = lg.cells.reshape(-1, k * q)
    block = max(1, _REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, len(addresses), block):
        ids = addresses[s:s + block]
        for slot, row in zip(first, nodes[:, s:s + block]):
            phi[ids[:, slot]] = row
    return phi


def discrete_geodesic(ctx: MetricContext, x: VertexRef, y: VertexRef, n: int) -> GeodesicResult:
    """Shortest walk between ``x`` and ``y`` at level ``n``.

    The value is read from :func:`geodesic_profile`.  The path is walked back
    from ``y`` along the cell edges of :func:`edge_arrays`, taken both ways,
    that the profile holds tight, ``phi[a] + w <= phi[b]`` up to ``PATH_RTOL``
    of the value: a breadth-first search, so it ends on zero-weight edges too.
    Where cells share a vertex pair, a longer edge is tight only when the
    shortest is, so the walk graph's minimum need not be taken.
    """
    _checked_level(ctx, n, x, y)
    phi = geodesic_profile(ctx, x, n)
    src = ctx.vertex_id(x, n)
    dst = ctx.vertex_id(y, n)
    value = float(phi[dst])
    if not math.isfinite(value):
        raise FractalDistError(f"level-{n} graph is disconnected between {x} and {y}")
    u, v, w = edge_arrays(ctx, n)
    slack = PATH_RTOL * value
    # each cell edge both ways: a tight a -> b is walked back from b to a
    fwd = phi[u] + w <= phi[v] + slack
    rev = phi[v] + w <= phi[u] + slack
    rows = np.concatenate([v[fwd], u[rev]])
    cols = np.concatenate([u[fwd], v[rev]])
    back = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(phi),) * 2)
    _, pred = breadth_first_order(back, dst, return_predecessors=True)
    if src != dst and pred[src] < 0:
        raise FractalDistError(f"no tight level-{n} walk from {x} to {y}")
    path = [src]
    while path[-1] != dst:
        path.append(int(pred[path[-1]]))
    return GeodesicResult(value, path, n)


@dataclass
class ConvergenceHistory:
    """Shortest-walk values over increasing levels with the final estimate.

    ``stop_reason`` says why the levels ended short of both ``n_max`` and
    the tolerance (a level whose streamed table is past the address limit),
    or is None.
    """

    entries: list[tuple[int, float]]
    estimate: float
    last_gap: float
    converged: bool
    monotone: bool
    extrapolated: float | None = None
    stop_reason: str | None = None


def geodesic_converge(ctx: MetricContext, x: VertexRef, y: VertexRef,
                      n_max: int, rtol: float = CONVERGENCE_RTOL) -> ConvergenceHistory:
    """Track the shortest-walk value from ``m = max(level(x), level(y))`` up to
    ``n_max`` or until the relative step falls below ``rtol``.

    Level ``n`` is read from the level-``m`` skeleton weighted by the reduced
    corner walks of level ``n`` (:func:`corner_walks`), by one single-source
    Dijkstra; the level-``n`` vertex graph is never built, nor are its cell
    values held at once.  The first level whose table :func:`corner_walks`
    refuses for the address limit ends the history there, unconverged, with
    the limit as its ``stop_reason`` (the error is raised when even level
    ``m`` is past it).
    ``n_max`` below ``m``, or an ``rtol`` that is negative or not finite,
    raises ``ValueError``.

    The last value is the reported estimate (a lower approximation of the
    limit); a Richardson-style extrapolation is attached for diagnostics only.
    """
    n0 = max(x.level, y.level)
    if n_max < n0:
        raise ValueError(f"n_max {n_max} is below the references' level {n0}")
    if not 0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and nonnegative, got {rtol}")
    src_lg = build_level(ctx.spec, n0)
    src, dst = src_lg.vertex_id(x), src_lg.vertex_id(y)
    entries: list[tuple[int, float]] = []
    monotone = True
    converged = False
    stop_reason = None
    for n in range(n0, n_max + 1):
        try:
            W = corner_walks(ctx, n, n0)
        except ResourceLimitError as exc:
            if not entries:
                raise
            stop_reason = f"level {n} is streamed from level {exc.level}: {exc}"
            break
        value = float(_dijkstra(_walk_graph(src_lg, W), src)[dst])
        if entries and value < entries[-1][1] - MONOTONE_TOL:
            monotone = False
        entries.append((n, value))
        # one rule stops the levels and sets `converged`; zero counts as settled
        converged = len(entries) >= 2 and (
            value == 0.0 or (value - entries[-2][1]) / value < rtol)
        if converged:
            break
    estimate = entries[-1][1]
    last_gap = entries[-1][1] - entries[-2][1] if len(entries) >= 2 else 0.0
    extrapolated = None
    if len(entries) >= 3:
        d1 = entries[-2][1] - entries[-3][1]
        d2 = entries[-1][1] - entries[-2][1]
        if d1 > d2 > 0:
            extrapolated = estimate + d2 * d2 / (d1 - d2)
    return ConvergenceHistory(entries, estimate, last_gap, converged, monotone,
                              extrapolated, stop_reason)


def default_cap(ctx: MetricContext) -> float:
    """Heuristic cap: twice the oscillation bound ``sqrt(c * mu_h(K) / 2)``
    with ``c`` estimated as the largest boundary-pair effective resistance."""
    a, b = np.triu_indices(len(ctx.hs.D), 1)
    pinv = -np.linalg.pinv(ctx.hs.D)  # of the boundary Laplacian
    c = float(np.max((pinv[a, a] - pinv[b, a]) - (pinv[a, b] - pinv[b, b])))
    # mu_h(K): the level-0 entry of tuple_cell_measures, from the boundary rows
    total = float(cell_form(ctx.hs.D, 1.0, ctx.h.alphas.T[None])[0])
    return 2.0 * math.sqrt(c * total / 2.0)


@dataclass
class Certificate:
    """Capped distance profile with its domination slack table.

    When the slack table is feasible (depths ``0..n``), ``certified_value``
    is at most the optimum of the level-``n`` intrinsic program, which bounds
    the intrinsic distance from above, not below.  When the cap caps nothing,
    ``values`` is the level's read-only profile itself (``LevelData.profile``),
    shared with every caller of :func:`geodesic_profile`; otherwise it is a
    new array, ``np.minimum(profile, cap)``.
    """

    level: int
    cap: float
    values: np.ndarray
    slack: SlackTable
    certified_value: float

    @property
    def feasible(self) -> bool:
        return self.slack.feasible


def intrinsic_certificate(ctx: MetricContext, x: VertexRef, y: VertexRef, n: int,
                          cap: float | None = None, *,
                          tolerance: float = FEASIBILITY_RTOL) -> Certificate:
    """Build the capped profile ``min(distance-from-x, cap)`` on level ``n``
    and check cell domination at every depth up to ``n``.

    The certified value is ``min(shortest-walk(x, y), cap)`` by construction.
    A ``tolerance`` or ``cap`` that is negative or not finite raises
    ``ValueError``.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if cap is None:
        cap = default_cap(ctx)
    if not 0 <= cap < math.inf:
        raise ValueError(f"cap must be finite and nonnegative, got {cap}")
    data = _checked_level(ctx, n, x, y)
    phi = geodesic_profile(ctx, x, n)
    # uncapped, the certificate shares the level's read-only profile
    f = phi if phi.max() <= cap else np.minimum(phi, cap)
    slack = check_domination(ctx.hs, data.lg, f, data.mu, tolerance=tolerance)
    x_id = ctx.vertex_id(x, n)
    y_id = ctx.vertex_id(y, n)
    return Certificate(n, float(cap), f, slack, float(f[y_id] - f[x_id]))


@dataclass
class EstimateResult:
    """Diagnostic ascent result for the discrete intrinsic-distance program."""

    value: float
    certificate_value: float
    iterations: int
    converged: bool
    constraint_depth: int
    history: list[float] = field(default_factory=list)


def intrinsic_estimate(ctx: MetricContext, x: VertexRef, y: VertexRef, n: int,
                       budget: int = ASCENT_BUDGET) -> EstimateResult:
    """Maximize ``f(y) - f(x)`` over vertex values subject to the per-cell
    domination constraints at level ``n``.

    Diagnostic solver: penalty-weighted ascent direction, exact per-cell
    feasibility line search, step at most 0.05.  It stops at the first
    direction that cannot move ``f``; ``converged`` says it stopped so within
    ``budget``, and ``iterations`` counts the directions, that one included.
    Start point is the certificate profile, so the reported value never drops
    below it; values are nondecreasing across iterations.  Constraints are
    imposed on the level-``n`` cells; sums over subtrees then dominate every
    coarser cell, so depths ``0..n`` are all covered.  A negative ``budget``
    raises ``ValueError``.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    data = _checked_level(ctx, n, x, y)
    cells = data.lg.cells
    cert = intrinsic_certificate(ctx, x, y, n)
    x_id = ctx.vertex_id(x, n)
    y_id = ctx.vertex_id(y, n)
    mu = data.mu
    scale = float(mu.sum())

    f = cert.values  # may be the shared profile: f is only ever rebound
    best = float(f[y_id] - f[x_id])
    history = [best]

    D, rw = ctx.hs.D, renorm_products(ctx.hs.r, n)
    u, v = cell_pairs(data.lg)
    # the pair form's derivative (see cell_form): (2 / r_w) 2 D[a, b] (f_a - f_b)
    # on corner a of each pair, its negative on corner b
    pair_grad = 4.0 * D[np.triu_indices(len(D), 1)][:, None]
    obj_grad = np.zeros(len(f))
    obj_grad[y_id] = 1.0
    obj_grad[x_id] = -1.0

    iterations = 0
    converged = False
    eps = 1e-9 * scale / max(len(mu), 1)
    slack = cert.slack.values[-1]  # mu minus the cell energies of f
    for iterations in range(1, budget + 1):
        if iterations > 1:
            slack = mu - cell_form(D, rw, f, cells=cells)
        # reciprocal-slack penalty steers mass away from nearly tight cells
        wpen = 1.0 / np.maximum(slack, eps)
        wpen *= 0.25 * 0.05 / wpen.max()
        coef = f[u]
        coef -= f[v]
        coef *= (pair_grad * (wpen / rw)).ravel()
        d = obj_grad - np.bincount(u, coef, len(f)) + np.bincount(v, coef, len(f))
        gain = d[y_id] - d[x_id]
        # largest feasible step: per-cell quadratic e(f + t d) <= mu
        a = cell_form(D, rw, d, cells=cells)
        b = 2.0 * cell_form(D, rw, f, d, cells=cells)
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b + 4.0 * a * slack
            tq = np.where(a > 1e-300, (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a),
                          np.inf)
            tl = np.where((a <= 1e-300) & (b > 0), slack / b, np.inf)
        t_max = float(min(np.min(tq), np.min(tl)))
        t = min(0.05, 0.995 * t_max)
        if t <= 0 or not math.isfinite(t) or t * gain < 1e-16 * max(best, 1.0):
            converged = True
            break
        f = f + t * d
        val = float(f[y_id] - f[x_id])
        if val > best:
            best = val
        history.append(best)
    return EstimateResult(best, cert.certified_value, iterations, converged, n, history)


# ---------------------------------------------------------------------------
# cell-tree reductions and multi-source distance matrices
# ---------------------------------------------------------------------------

# parents closed at once by _reduce_cells: its [slots, parents] work array
# stays at 2**18 entries (2 MiB), which keeps the row operations in cache;
# _fill_patterns and the scatter of _profile run over the same blocks
_REDUCE_BLOCK_ENTRIES = 1 << 18


def _reduce_cells(W: np.ndarray, schedule: ReductionSchedule) -> np.ndarray:
    """One step up the cell tree in the (min, +) semiring.

    ``W[p, c]`` is the shortest walk inside child cell ``c`` between the
    corners of pair ``p`` (pairs ``a < b`` in ``np.triu_indices(q, 1)``
    order, cells in big-endian code order, so the ``k`` children of a parent
    are contiguous).  Each parent is a copy of the level-1 pattern with every
    child's weights on its corners; the ``schedule`` runs on the parents'
    ``[slots, P]`` elimination table, one row operation over all parents of
    a block at a time; a slot's first write is an assignment, so the table
    is never filled with ``inf``.  Returns that table; its last ``pairs``
    rows (``schedule.corners``) are the parents' ``[pairs, P]`` corner walks,
    laid out as ``W``: ``G[-pairs:]`` reads them without a copy, and keeps
    the whole table alive.
    """
    pairs = W.shape[0]
    children = W.reshape(pairs, -1, len(schedule.cells))
    P = children.shape[1]
    G = np.empty((schedule.slots, P))
    block = max(1, _REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, P, block):
        part, g = children[:, s:s + block], G[:, s:s + block]
        for dst, first, p, i in schedule.seeds:
            g[dst] = part[p, :, i] if first else np.minimum(g[dst], part[p, :, i])
        via = np.empty(g.shape[1])
        for dst, first, u, v in schedule.updates:
            np.add(g[u], g[v], out=g[dst] if first else via)
            if not first:
                np.minimum(g[dst], via, out=g[dst])
    return G


def _fill_patterns(nodes: np.ndarray, G: np.ndarray, schedule: ReductionSchedule) -> None:
    """One step down the cell tree in the (min, +) semiring: the back
    substitution of the elimination that :func:`_reduce_cells` ran forwards.

    ``nodes`` is the parents' ``[nodes, P]`` table of distances from the
    source, one row per pattern node, whose corner rows
    (``schedule.boundary_ids``) the caller has set; its other rows, one per
    eliminated node, are written here.  ``G`` is the parents' ``[slots, P]``
    elimination table.  The source
    lies in no parent's interior, so a shortest walk to a pattern node enters
    its parent last through a corner.  The nodes are filled in reverse
    elimination order, ``d(x) = min_u d(u) + G[slot(x, u)]`` over the
    neighbours ``u`` that ``x`` had when it was eliminated: they are filled
    before ``x``, and ``G`` holds the shortest walks to them through the
    nodes eliminated before ``x``.  The first neighbour's sum is written to
    ``x`` and each other one taken by a minimum, whose bits do not depend on
    the neighbours' order.
    """
    P = G.shape[1]
    block = max(1, _REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, P, block):
        part, g = nodes[:, s:s + block], G[:, s:s + block]
        via = np.empty(part.shape[1])
        for x, around, slots, _ in reversed(schedule.eliminated):
            np.add(part[around[0]], g[slots[0]], out=part[x])
            for u, t in zip(around[1:], slots[1:]):
                np.minimum(part[x], np.add(part[u], g[t], out=via), out=part[x])


def corner_walks(ctx: MetricContext, n: int, m: int) -> np.ndarray:
    """Shortest level-``n`` walk inside each level-``m`` cell between its
    corners, as a ``[pairs, k**m]`` table (pairs and cells ordered as in
    :func:`_reduce_cells`), for ``0 <= m <= n``: at ``m == n`` the embedded
    corner-to-corner lengths of the level's cells.

    Built by :func:`_streamed_walks`, which holds no more than one block of
    level-``n`` cells' values, and cached on the context, keyed by ``(n,
    m)``; read-only, since every caller shares it.  Its callers are
    :func:`edge_arrays`, :func:`weighted_level_graph`, :func:`distance_matrix`
    and :func:`geodesic_converge`; profiles measure their own lengths.
    """
    if not 0 <= m <= n:
        raise ValueError(f"cell level {m} must lie between 0 and the walk level {n}")
    W = ctx._walks.get((n, m))
    if W is None:
        W = ctx._walks[(n, m)] = _streamed_walks(ctx, n, m)
        W.flags.writeable = False
    return W


def _streamed_walks(ctx: MetricContext, n: int, m: int) -> np.ndarray:
    """The one builder of :func:`corner_walks`.  With ``p = max(m,
    _prefix_level(k, n))``, whose address count is checked first, each block
    of :func:`_cell_blocks` is measured and reduced ``n - p`` levels, into
    one level-``p`` table; the prefix values are freed with the last block,
    and that table is reduced ``p - m`` more levels.  At ``m == n`` nothing
    is reduced.  Each reduction's corner walks, the last rows of its
    elimination table (:func:`_reduce_cells`), are copied out of it as one
    contiguous slice, so no table outlives its reduction and the cached
    walks keep none alive."""
    k = ctx.spec.letters
    schedule = ctx.spec.schedule
    pairs = len(schedule.corners)
    p = max(m, _prefix_level(k, n))
    level_address_count(ctx.spec, p)
    W = None
    for start, values in _cell_blocks(ctx.hs, ctx.h, n):
        part = corner_products(values)
        del values  # not held through the block's reductions
        np.sqrt(part, out=part)
        for _ in range(n - p):
            part = _reduce_cells(part, schedule)[-pairs:].copy()
        W = _put_block(W, part, start // k ** (n - p), k ** p)
    for _ in range(p - m):
        W = _reduce_cells(W, schedule)[-pairs:].copy()
    return W


def distance_matrix(ctx: MetricContext, source_level: int, n: int,
                    workers: int = 1) -> np.ndarray:
    """All-pairs shortest-walk matrix between the level-``source_level``
    vertices, measured on the level-``n`` graph; rows and columns follow the
    source-level vertex ids.

    The entries are level-``n`` shortest-walk lengths, but the level-``n``
    graph is never built and no Dijkstra runs on it.  A walk enters
    and leaves a cell only through its corners, so the walk graph between the
    level-``m`` vertices is a skeleton with one weight per corner pair of each
    level-``m`` cell: the shortest walk between those corners inside the
    cell, read from the level's reduced corner walks (:func:`corner_walks`,
    which :func:`geodesic_converge` reads too).  Dijkstra then runs on the
    source-level skeleton.  The address count of level ``n`` is checked
    first: the streamed reduction holds little, but its time grows with it.

    With ``workers > 1`` the sources are split into contiguous chunks handled
    by forked worker processes.  Each chunk's task carries the skeleton graph
    with it; the workers share no state.  Each source's run is independent,
    so the result is identical to the serial one regardless of the worker
    count.
    """
    if n < source_level:
        raise ValueError("graph level must be at least the source level")
    level_address_count(ctx.spec, n)
    W = corner_walks(ctx, n, source_level)
    src_lg = build_level(ctx.spec, source_level)
    graph = _walk_graph(src_lg, W)
    sources = np.arange(src_lg.num_vertices)
    if workers <= 1:
        return _dijkstra(graph, sources)
    chunks = [c for c in np.array_split(sources, workers) if len(c)]
    mp = multiprocessing.get_context("fork")
    with mp.Pool(processes=len(chunks)) as pool:
        parts = pool.map(functools.partial(_dijkstra, graph), chunks)
    return np.vstack(parts)
