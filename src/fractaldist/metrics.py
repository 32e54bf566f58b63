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
semiring by a schedule fixed per spec (:func:`reduction_schedule`), and
Dijkstra runs on the graph of the references' own level, weighted by those
reductions.  Walk lengths between fixed references
(:func:`geodesic_converge`, :func:`distance_matrix`) stop there.  One
builder serves every depth (:func:`corner_walks`): the level-``n`` cells are
expanded and reduced one block of subtrees at a time, so the references'
walks never hold a whole level.  Profiles and
certificates, which need every vertex, read the level's unreduced corner
lengths from it, keep each level's elimination table on the way up and run
the elimination backwards on the way down (:func:`geodesic_profile`); the
path of :func:`discrete_geodesic` is walked back over the level's cell edges
that its profile holds tight.  They hold per-cell numbers of the whole level
(corner lengths, measures), never its cells' corner values: every reader of
those runs over one block of cells at a time (:func:`_cell_blocks`).  A
profile from a source on level ``n`` itself (and so a certificate or an
estimate from one) runs Dijkstra on its skeleton, the whole level-``n`` walk
graph.  Otherwise the level-``n`` graph (:func:`weighted_level_graph`) is
built on demand, for the ``graph`` export and the tests' Dijkstra oracles.

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
    corner_products,
    default_tuple,
    tuple_cell_measures,
)
from .structure import (
    FractalSpec,
    LevelGraph,
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
    """Cached arrays of one whole level, each built on its first request: the
    vertex graph, and the tuple's cell measures, filled block by block from
    :func:`_cell_blocks`.  No array holds the corner values of the whole
    level; its corner lengths are :func:`corner_walks` at ``m == n``."""

    hs: HarmonicStructure
    h: HarmonicTuple
    level: int

    @functools.cached_property
    def lg(self) -> LevelGraph:
        """Vertex graph of the level, as :func:`build_level`."""
        return build_level(self.hs.spec, self.level)

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """Tuple measures of the level cells, :func:`tuple_cell_measures`."""
        return tuple_cell_measures(self.hs, self.h, self.level)


class MetricContext:
    """Immutable bundle of (spec, structure, harmonic tuple) with per-level
    caches used by all distance computations: whole levels, and the corner
    walks of :func:`corner_walks` keyed by ``(n, m)``, the level's own corner
    lengths at ``m == n``.  Each array is built on its first request.  Reads
    are thread-safe once built; building is not."""

    def __init__(self, hs: HarmonicStructure, h: HarmonicTuple | None = None):
        self.hs = hs
        self.spec: FractalSpec = hs.spec
        self.h = h if h is not None else default_tuple(hs)
        self._levels: dict[int, LevelData] = {}
        self._walks: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_components(self) -> int:
        return self.h.n_components

    @functools.cached_property
    def schedule(self) -> ReductionSchedule:
        """Min-plus elimination schedule of the spec's level-1 pattern."""
        return reduction_schedule(build_level(self.spec, 1))

    def level(self, n: int) -> LevelData:
        """Cache entry of level ``n``; its address count is checked before
        anything of it is computed."""
        data = self._levels.get(n)
        if data is None:
            level_address_count(self.spec, n)
            data = LevelData(self.hs, self.h, n)
            self._levels[n] = data
        return data

    def evict(self, n: int | None = None) -> None:
        """Drop cached level data and the corner walks of walk level ``n``
        (all levels when ``n`` is None)."""
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


def _corner_lengths(cell_values: np.ndarray) -> np.ndarray:
    """Embedded Euclidean length between corners ``a < b`` of every cell:
    the square root of :func:`corner_products`, laid out ``[pairs, cells]``."""
    lengths = corner_products(cell_values)
    return np.sqrt(lengths, out=lengths)


def edge_arrays(ctx: MetricContext, n: int):
    """Within-cell edge list ``(u, v, w)`` of the level-``n`` graph; one entry
    per unordered corner pair per cell, weights = embedded Euclidean lengths,
    a read-only view of ``corner_walks(ctx, n, n)``."""
    return (*cell_pairs(ctx.level(n).lg), corner_walks(ctx, n, n).ravel())


def _walk_graph(lg: LevelGraph, W: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR walk graph on the vertices of ``lg``, with weight
    ``W[p, c]`` between the corners of pair ``p`` of cell ``c`` (``W`` laid
    out as :func:`_corner_lengths`).

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


def geodesic_profile(ctx: MetricContext, x: VertexRef, n: int) -> np.ndarray:
    """Single-source shortest walk lengths from ``x`` to every level-``n``
    vertex, without the level-``n`` graph unless ``x`` lies on level ``n``.

    The level's corner lengths (``corner_walks(ctx, n, n)``, measured one
    block of cells at a time and shared with :func:`edge_arrays`) are
    reduced up the cell tree to the level
    ``m`` of ``x`` (:func:`_reduce_cells`), keeping each level's elimination
    table; Dijkstra runs on the level-``m`` skeleton, as in
    :func:`geodesic_converge`; the tables are then run backwards down the
    tree (:func:`_fill_patterns`), and the level-``n`` cells' corners are
    scattered to their vertex ids.  Every vertex is a node of one parent's
    pattern, or a skeleton vertex, and takes its value there; identified
    corners copy it, so the profile does not depend on the scatter order.
    """
    data = ctx.level(n)
    lift(ctx.spec, x, n)  # x must name a vertex of level n
    m = x.level
    schedule = ctx.schedule
    W = corner_walks(ctx, n, n)
    tables = []
    for _ in range(n - m):
        tables.append(_reduce_cells(W, schedule))
        W = tables[-1][schedule.corners]
    src_lg = ctx.level(m).lg
    d = _dijkstra(_walk_graph(src_lg, W), src_lg.vertex_id(x))
    if not tables:
        return d
    corners = d[src_lg.cells.T]
    while True:
        nodes = _fill_patterns(corners, tables.pop(), schedule)
        if not tables:
            break
        # corner a of child j of parent P is node cells[j, a] of P's pattern
        corners = nodes[schedule.cells.T].swapaxes(1, 2).reshape(len(corners), -1)
    phi = np.empty(data.lg.num_vertices)
    # each node is written once, through its first (child, corner) address;
    # that address's ids over all parents are gathered into one row
    first = np.unique(schedule.cells, return_index=True)[1]
    ids = data.lg.cells.reshape(-1, schedule.cells.size)[:, first].T.copy()
    for node_ids, row in zip(ids, nodes):
        phi[node_ids] = row
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
    total = float(tuple_cell_measures(ctx.hs, ctx.h, 0)[0])
    return 2.0 * math.sqrt(c * total / 2.0)


@dataclass
class Certificate:
    """Capped distance profile with its domination slack table.

    When the slack table is feasible (depths ``0..n``), ``certified_value``
    is at most the optimum of the level-``n`` intrinsic program, which bounds
    the intrinsic distance from above, not below.
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
    data = ctx.level(n)
    phi = geodesic_profile(ctx, x, n)
    f = np.minimum(phi, cap)
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
    coarser cell, so depths ``0..n`` are all covered.
    """
    data = ctx.level(n)
    cells = data.lg.cells
    cert = intrinsic_certificate(ctx, x, y, n)
    x_id = ctx.vertex_id(x, n)
    y_id = ctx.vertex_id(y, n)
    mu = data.mu
    scale = float(mu.sum())

    f = cert.values.astype(float)
    best = float(f[y_id] - f[x_id])
    history = [best]
    if budget <= 0:
        return EstimateResult(best, cert.certified_value, 0, False, n, history)

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
# stays at 2**18 entries (2 MiB), which keeps the row operations in cache
_REDUCE_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ReductionSchedule:
    """Min-plus elimination of the level-1 glue pattern, fixed per spec.

    ``cells`` is the pattern's ``[k, q]`` vertex table and ``boundary_ids``
    its corner nodes.  A *slot* holds the weight of one unordered pair of
    pattern nodes.  ``seeds`` lists ``(slot, first, pair, child)``: the slot
    takes the smallest child weight laid on it.  ``updates`` lists ``(dst,
    first, a, b)`` row operations ``G[dst] = min(G[dst], G[a] + G[b])``.
    ``first`` marks each slot's one first write, a copy of the seed or the
    sum ``G[a] + G[b]``, and no write reads a slot before it, so no table is
    filled with the semiring's zero.  ``corners`` holds the slot of each
    parent corner pair in ``np.triu_indices(q, 1)`` order.  ``eliminated``
    lists the interior nodes in elimination order, each as ``(node,
    neighbours, slots)``: the neighbours it had when it was eliminated (at
    least one) and the slots of its pairs with them, which
    :func:`_fill_patterns` reads to run the elimination backwards.
    """

    cells: np.ndarray
    boundary_ids: np.ndarray
    slots: int
    seeds: tuple[tuple[int, bool, int, int], ...]
    updates: tuple[tuple[int, bool, int, int], ...]
    corners: np.ndarray
    eliminated: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


def reduction_schedule(pattern: LevelGraph) -> ReductionSchedule:
    """Eliminate the interior nodes of the level-1 ``pattern`` in min-degree
    order, then close its ``q`` corners.

    Eliminating node ``x`` relaxes every pair ``(u, v)`` of its remaining
    neighbours through ``x``; closing the corners does the same with each
    corner as the pivot, since a route between two parent corners may pass
    through a third.  Both are Floyd-Warshall steps restricted to the pairs
    that carry a finite weight, so the result is the closure of the pattern
    on its corners for any nonnegative child weights.
    """
    q = pattern.spec.boundary
    a, b = np.triu_indices(q, 1)
    slot: dict[tuple[int, int], int] = {}

    def slot_of(u: int, v: int) -> int:
        return slot.setdefault((min(u, v), max(u, v)), len(slot))

    def write(u: int, v: int) -> tuple[int, bool]:
        fresh = len(slot)  # a slot is numbered at its first write
        return slot_of(u, v), len(slot) > fresh

    adjacent: dict[int, set[int]] = {v: set() for v in range(pattern.num_vertices)}
    seeds = []
    for i, cell in enumerate(pattern.cells.tolist()):
        for p, (ca, cb) in enumerate(zip(a, b)):
            u, v = cell[ca], cell[cb]
            seeds.append((*write(u, v), p, i))
            adjacent[u].add(v)
            adjacent[v].add(u)

    updates = []

    def pivot(x: int, alive: set[int]) -> list[int]:
        around = sorted(adjacent[x] & alive)
        for s, u in enumerate(around):
            for v in around[s + 1:]:
                updates.append((*write(u, v), slot_of(u, x), slot_of(x, v)))
                adjacent[u].add(v)
                adjacent[v].add(u)
        return around

    corners = [int(c) for c in pattern.boundary_ids]
    alive = set(adjacent)
    interior = alive - set(corners)
    eliminated = []
    while interior:
        x = min(interior, key=lambda v: (len(adjacent[v] & alive), v))
        interior.remove(x)
        alive.remove(x)
        around = pivot(x, alive)
        eliminated.append((x, tuple(around), tuple(slot_of(x, u) for u in around)))
    for c in corners:
        pivot(c, alive - {c})
    closed = np.array([slot_of(corners[i], corners[j]) for i, j in zip(a, b)])
    return ReductionSchedule(pattern.cells, np.array(corners), len(slot), tuple(seeds),
                             tuple(updates), closed, tuple(eliminated))


def _reduce_cells(W: np.ndarray, schedule: ReductionSchedule) -> np.ndarray:
    """One step up the cell tree in the (min, +) semiring.

    ``W[p, c]`` is the shortest walk inside child cell ``c`` between the
    corners of pair ``p`` (pairs ``a < b`` in ``np.triu_indices(q, 1)``
    order, cells in big-endian code order, so the ``k`` children of a parent
    are contiguous).  Each parent is a copy of the level-1 pattern with every
    child's weights on its corners; the ``schedule`` runs on the parents'
    ``[slots, P]`` elimination table, one row operation over all parents of
    a block at a time; a slot's first write is an assignment, so the table
    is never filled with ``inf``.  Returns that table; its
    ``schedule.corners`` rows are the parents' ``[pairs, P]`` corner walks,
    laid out as ``W``.
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


def _fill_patterns(corner_d: np.ndarray, G: np.ndarray,
                   schedule: ReductionSchedule) -> np.ndarray:
    """One step down the cell tree in the (min, +) semiring: the back
    substitution of the elimination that :func:`_reduce_cells` ran forwards.

    ``corner_d[a, P]`` is the distance from the source to corner ``a`` of
    parent ``P``, and ``G`` the parents' ``[slots, P]`` table.  The source
    lies in no parent's interior, so a shortest walk to a pattern node enters
    its parent last through a corner.  The nodes are filled in reverse
    elimination order, ``d(x) = min_u d(u) + G[slot(x, u)]`` over the
    neighbours ``u`` that ``x`` had when it was eliminated: they are filled
    before ``x``, and ``G`` holds the shortest walks to them through the
    nodes eliminated before ``x``.  The first neighbour's sum is written to
    ``x`` and each other one taken by a minimum, whose bits do not depend on
    the neighbours' order.  Returns ``[nodes, P]`` distances at every
    pattern node of each parent.
    """
    P = G.shape[1]
    # every pattern node is a corner or was eliminated
    nodes = np.empty((len(schedule.boundary_ids) + len(schedule.eliminated), P))
    nodes[schedule.boundary_ids] = corner_d
    block = max(1, _REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, P, block):
        part, g = nodes[:, s:s + block], G[:, s:s + block]
        via = np.empty(part.shape[1])
        for x, around, slots in reversed(schedule.eliminated):
            np.add(part[around[0]], g[slots[0]], out=part[x])
            for u, t in zip(around[1:], slots[1:]):
                np.minimum(part[x], np.add(part[u], g[t], out=via), out=part[x])
    return nodes


def corner_walks(ctx: MetricContext, n: int, m: int) -> np.ndarray:
    """Shortest level-``n`` walk inside each level-``m`` cell between its
    corners, as a ``[pairs, k**m]`` table (pairs and cells ordered as in
    :func:`_reduce_cells`), for ``0 <= m <= n``: at ``m == n`` the embedded
    corner-to-corner lengths of the level's cells.

    Built by :func:`_streamed_walks`, which holds no more than one block of
    level-``n`` cells' values, and cached on the context, keyed by ``(n,
    m)``; read-only, since every caller shares it.
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
    is reduced."""
    k = ctx.spec.letters
    p = max(m, _prefix_level(k, n))
    level_address_count(ctx.spec, p)
    W = None
    for start, values in _cell_blocks(ctx.hs, ctx.h, n):
        part = _corner_lengths(values)
        del values  # not held through the block's reductions
        for _ in range(n - p):
            part = _reduce_cells(part, ctx.schedule)[ctx.schedule.corners]
        W = _put_block(W, part, start // k ** (n - p), k ** p)
    for _ in range(p - m):
        W = _reduce_cells(W, ctx.schedule)[ctx.schedule.corners]
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
