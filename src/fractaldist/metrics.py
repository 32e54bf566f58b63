"""Discrete geodesics through a harmonic embedding, and intrinsic-distance
certificates.

Vertices of the level-``n`` graph are joined inside every cell; the edge
weight is the Euclidean distance of the endpoints' coordinates under the
harmonic tuple.  Shortest walk lengths are nondecreasing in ``n`` and their
limit is the geodesic distance through the embedding.

Every Dijkstra runs on a walk graph built by :func:`_walk_graph`: the
vertices of one level, joined inside each of its cells with one weight per
corner pair.  Where cells share a vertex pair, the shorter weight is kept.
Profiles and certificates, which need every vertex, weight the level-``n``
graph by its own corner lengths (:func:`weighted_level_graph`).  Walk
lengths between fixed references (:func:`geodesic_converge`,
:func:`distance_matrix`) never build the level-``n`` graph: a walk crosses a
cell only through its corners, so the corner-to-corner lengths of the
level-``n`` cells are reduced up the cell tree in the (min, +) semiring by a
schedule fixed per spec (:func:`reduction_schedule`), and Dijkstra runs on
the small graph of the references' own level, weighted by those reductions.
The level-``n`` cells are expanded and reduced one block of subtrees at a
time (:func:`corner_walks`), so these routes never hold a whole level.

A *certificate* is the capped single-source distance profile: its
interpolant's energy measure is dominated cell-by-cell by the tuple's
measure, so its increment between two vertices is a certified
intrinsic-distance lower bound at the checked depth.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import FractalDistError, ResourceLimitError
from .harmonic import HarmonicStructure, renorm_products
from .measures import (
    HarmonicTuple,
    SlackTable,
    cell_boundary_values,
    cell_form,
    child_values,
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
)

MONOTONE_TOL = 1e-12


@dataclass
class LevelData:
    """Cached arrays of one whole level, each built on its first request:
    each cell's tuple boundary values, the vertex graph, the tuple's cell
    measures and the weighted walk graph (see :func:`weighted_level_graph`)."""

    hs: HarmonicStructure
    h: HarmonicTuple
    level: int

    @functools.cached_property
    def cell_values(self) -> np.ndarray:
        """``[ncells, q, N]`` corner values, as :func:`cell_boundary_values`."""
        return cell_boundary_values(self.hs, self.h, self.level)

    @functools.cached_property
    def lg(self) -> LevelGraph:
        """Vertex graph of the level, as :func:`build_level`."""
        return build_level(self.hs.spec, self.level)

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """Tuple measures of the level cells, as :func:`tuple_cell_measures`."""
        return cell_form(self.hs.D, renorm_products(self.hs.r, self.level), self.cell_values)

    @functools.cached_property
    def graph(self) -> sp.csr_matrix:
        """Corner-length walk graph of the level, as :func:`weighted_level_graph`."""
        return _walk_graph(self.lg, _corner_lengths(self.cell_values))


class MetricContext:
    """Immutable bundle of (spec, structure, harmonic tuple) with per-level
    caches used by all distance computations: whole levels, and the reduced
    corner walks of :func:`corner_walks` keyed by ``(n, m)``.  Each array is
    built on its first request.  Reads are thread-safe once built; building
    is not."""

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
        """Drop cached level data, graphs and corner walks of walk level ``n``
        included (all levels when ``n`` is None)."""
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

        Scatter of the per-cell values, one corner at a time; identified
        corners receive identical values, making the table independent of the
        scatter order.
        """
        data = self.level(n)
        T = np.empty((data.lg.num_vertices, self.n_components))
        for a in range(data.lg.cells.shape[1]):
            T[data.lg.cells[:, a]] = data.cell_values[:, a]
        return T


def _corner_lengths(cell_values: np.ndarray) -> np.ndarray:
    """Embedded Euclidean length between corners ``a < b`` of every cell:
    the square root of :func:`corner_products`, laid out ``[pairs, cells]``."""
    lengths = corner_products(cell_values)
    return np.sqrt(lengths, out=lengths)


def edge_arrays(ctx: MetricContext, n: int):
    """Within-cell edge list ``(u, v, w)`` of the level-``n`` graph; one entry
    per unordered corner pair per cell, weights = embedded Euclidean lengths."""
    data = ctx.level(n)
    return (*cell_pairs(data.lg), _corner_lengths(data.cell_values).ravel())


def _walk_graph(lg: LevelGraph, W: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR walk graph on the vertices of ``lg``, with weight
    ``W[p, c]`` between the corners of pair ``p`` of cell ``c`` (``W`` laid
    out as :func:`_corner_lengths`).

    Where cells share a vertex pair the shorter weight is kept: the COO to
    CSR conversion sums such entries, so only when it stores fewer entries
    than doubled edges are the weights reduced again, by their minimum over
    each sorted key, which is the CSR's own order.  ``W`` and the edge
    columns are released before the conversion because the deepest levels
    run close to the memory budget.
    """
    nv = lg.num_vertices
    u, v = cell_pairs(lg)
    w = W.ravel()
    doubled = sp.coo_matrix((np.concatenate([w, w]),
                             (np.concatenate([u, v]), np.concatenate([v, u]))),
                            shape=(nv, nv))
    del u, v, w, W
    graph = doubled.tocsr()
    if graph.nnz < doubled.nnz:
        key = doubled.row.astype(np.int64) * nv + doubled.col
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        graph.data = np.minimum.reduceat(doubled.data[order], first)
    return graph


def weighted_level_graph(ctx: MetricContext, n: int) -> sp.csr_matrix:
    """Symmetric CSR adjacency of the level-``n`` walk graph: :func:`_walk_graph`
    on the level's cells, weighted by their embedded corner lengths.

    Built on the first request for the level and kept on its
    :class:`LevelData` until ``ctx.evict(n)``; like the level itself, building
    it is not thread-safe.
    """
    return ctx.level(n).graph


def _dijkstra(graph: sp.csr_matrix, sources, *, predecessors: bool = False):
    # the stored matrix is already symmetrized, so row-only traversal suffices
    return _csgraph_dijkstra(graph, indices=sources, directed=True,
                             return_predecessors=predecessors)


@dataclass
class GeodesicResult:
    """Shortest level-``n`` walk between two vertices."""

    value: float
    path: list[int]
    level: int


def geodesic_profile(ctx: MetricContext, x: VertexRef, n: int) -> np.ndarray:
    """Single-source shortest walk lengths from ``x`` on the level-``n`` graph."""
    graph = weighted_level_graph(ctx, n)
    src = ctx.vertex_id(x, n)
    return np.asarray(_dijkstra(graph, src))


def discrete_geodesic(ctx: MetricContext, x: VertexRef, y: VertexRef, n: int) -> GeodesicResult:
    """Exact shortest walk between ``x`` and ``y`` at level ``n``."""
    graph = weighted_level_graph(ctx, n)
    src = ctx.vertex_id(x, n)
    dst = ctx.vertex_id(y, n)
    dist, pred = _dijkstra(graph, src, predecessors=True)
    if not np.isfinite(dist[dst]):
        raise FractalDistError(f"level-{n} graph is disconnected between {x} and {y}")
    path = [dst]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return GeodesicResult(float(dist[dst]), path, n)


@dataclass
class ConvergenceHistory:
    """Shortest-walk values over increasing levels with the final estimate.

    ``stop_reason`` says why the levels ended short of both ``n_max`` and
    the tolerance (a level whose prefix cells are past the address limit),
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
                      n_max: int, rtol: float = 1e-9) -> ConvergenceHistory:
    """Track the shortest-walk value from ``m = max(level(x), level(y))`` up to
    ``n_max`` or until the relative step falls below ``rtol``.

    Level ``n`` is read from the level-``m`` skeleton weighted by the reduced
    corner walks of level ``n`` (:func:`corner_walks`), by one single-source
    Dijkstra; the level-``n`` vertex graph is never built, nor are its cell
    values held at once.  Before each level the address count of the prefix
    level that :func:`corner_walks` holds is checked: the first level past
    the limit ends the history there, unconverged, with the limit as its
    ``stop_reason`` (the error is raised when even level ``m`` is past it).
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
        p = _prefix_level(ctx.spec.letters, n, n0)
        try:
            level_address_count(ctx.spec, p)
        except ResourceLimitError as exc:
            if not entries:
                raise
            stop_reason = f"level {n} is streamed from level {p}: {exc}"
            break
        graph = _walk_graph(src_lg, corner_walks(ctx, n, n0))
        value = float(_dijkstra(graph, src)[dst])
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

    When the slack table is feasible, ``certified_value`` is a valid
    intrinsic-distance lower bound at the checked depth range.
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
                          tolerance: float = 1e-9) -> Certificate:
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
                       budget: int = 200) -> EstimateResult:
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
    slack = cert.slack.slack[-1]  # mu minus the cell energies of f
    for iterations in range(1, budget + 1):
        if iterations > 1:
            slack = mu - cell_form(D, rw, f[cells])
        # reciprocal-slack penalty steers mass away from nearly tight cells
        wpen = 1.0 / np.maximum(slack, eps)
        wpen *= 0.25 * 0.05 / wpen.max()
        coef = f[u]
        coef -= f[v]
        coef *= (pair_grad * (wpen / rw)).ravel()
        d = obj_grad - np.bincount(u, coef, len(f)) + np.bincount(v, coef, len(f))
        gain = d[y_id] - d[x_id]
        if gain <= 0:
            converged = True
            break
        # largest feasible step: per-cell quadratic e(f + t d) <= mu
        a = cell_form(D, rw, d[cells])
        b = 2.0 * cell_form(D, rw, f[cells], d[cells])
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
# leaf cells expanded at once by corner_walks: a block's [cells, q, N] values
# and [pairs, cells] lengths stay at a few MiB, whatever the walk level
_STREAM_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ReductionSchedule:
    """Min-plus elimination of the level-1 glue pattern, fixed per spec.

    A *slot* holds the weight of one unordered pair of pattern nodes.
    ``seeds`` lists ``(slot, pair, child)``: the slot takes the smallest
    child weight laid on it.  ``updates`` lists ``(dst, a, b)`` row
    operations ``G[dst] = min(G[dst], G[a] + G[b])``, and ``corners`` holds
    the slot of each parent corner pair in ``np.triu_indices(q, 1)`` order.
    """

    letters: int
    slots: int
    seeds: tuple[tuple[int, int, int], ...]
    updates: tuple[tuple[int, int, int], ...]
    corners: tuple[int, ...]


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

    adjacent: dict[int, set[int]] = {v: set() for v in range(pattern.num_vertices)}
    seeds = []
    for i, cell in enumerate(pattern.cells.tolist()):
        for p, (ca, cb) in enumerate(zip(a, b)):
            u, v = cell[ca], cell[cb]
            seeds.append((slot_of(u, v), p, i))
            adjacent[u].add(v)
            adjacent[v].add(u)

    updates = []

    def pivot(x: int, alive: set[int]) -> None:
        around = sorted(adjacent[x] & alive)
        for s, u in enumerate(around):
            for v in around[s + 1:]:
                updates.append((slot_of(u, v), slot_of(u, x), slot_of(x, v)))
                adjacent[u].add(v)
                adjacent[v].add(u)

    corners = [int(c) for c in pattern.boundary_ids]
    alive = set(adjacent)
    interior = alive - set(corners)
    while interior:
        x = min(interior, key=lambda v: (len(adjacent[v] & alive), v))
        interior.remove(x)
        alive.remove(x)
        pivot(x, alive)
    for c in corners:
        pivot(c, alive - {c})
    closed = tuple(slot_of(corners[i], corners[j]) for i, j in zip(a, b))
    return ReductionSchedule(pattern.spec.letters, len(slot), tuple(seeds),
                             tuple(updates), closed)


def _reduce_cells(W: np.ndarray, schedule: ReductionSchedule) -> np.ndarray:
    """One step up the cell tree in the (min, +) semiring.

    ``W[p, c]`` is the shortest walk inside child cell ``c`` between the
    corners of pair ``p`` (pairs ``a < b`` in ``np.triu_indices(q, 1)``
    order, cells in big-endian code order, so the ``k`` children of a parent
    are contiguous).  Each parent is a copy of the level-1 pattern with every
    child's weights on its corners; the ``schedule`` runs on a ``[slots,
    parents]`` array, one row operation over all parents of a block at a
    time.  Returns the same ``[pairs, P]`` table for the parents.
    """
    pairs = W.shape[0]
    children = W.reshape(pairs, -1, schedule.letters)
    P = children.shape[1]
    out = np.empty((pairs, P))
    block = max(1, _REDUCE_BLOCK_ENTRIES // schedule.slots)
    for s in range(0, P, block):
        part = children[:, s:s + block]
        G = np.full((schedule.slots, part.shape[1]), np.inf)
        for dst, p, i in schedule.seeds:
            np.minimum(G[dst], part[p, :, i], out=G[dst])
        via = np.empty(part.shape[1])
        for dst, u, v in schedule.updates:
            np.add(G[u], G[v], out=via)
            np.minimum(G[dst], via, out=G[dst])
        out[:, s:s + block] = G[list(schedule.corners)]
    return out


def _prefix_level(k: int, n: int, m: int) -> int:
    """Level ``p`` whose cells :func:`corner_walks` expands to level ``n``:
    ``n - s`` for the deepest ``s <= n - m`` with ``k**s`` leaves at most
    ``_STREAM_BLOCK_CELLS``."""
    s = 0
    while s < n - m and k ** (s + 1) <= _STREAM_BLOCK_CELLS:
        s += 1
    return n - s


def corner_walks(ctx: MetricContext, n: int, m: int) -> np.ndarray:
    """Shortest level-``n`` walk inside each level-``m`` cell between its
    corners, as a ``[pairs, k**m]`` table (pairs and cells ordered as in
    :func:`_reduce_cells`), for ``0 <= m <= n``.

    At ``m == n`` these are the embedded corner-to-corner lengths of the
    whole level.  Below, level ``n`` is streamed: the values of the cells of
    the prefix level ``p`` (:func:`_prefix_level`) are built once, and each
    block of them is expanded by ``n - p`` letters (:func:`child_values`),
    measured and reduced back to level ``p``, so no more than one block of
    level-``n`` cells is held.  The level-``p`` table is then reduced to
    level ``m``.  Each cell's arithmetic is that of the whole level, so the
    bits do not depend on the blocks.  The result is cached on the context,
    keyed by ``(n, m)``.
    """
    if not 0 <= m <= n:
        raise ValueError(f"cell level {m} must lie between 0 and the walk level {n}")
    if m == n:
        return _corner_lengths(ctx.level(n).cell_values)
    W = ctx._walks.get((n, m))
    if W is None:
        W = ctx._walks[(n, m)] = _streamed_walks(ctx, n, m)
    return W


def _streamed_walks(ctx: MetricContext, n: int, m: int) -> np.ndarray:
    """The reduction of :func:`corner_walks` below the walk level."""
    p = _prefix_level(ctx.spec.letters, n, m)
    prefixes = cell_boundary_values(ctx.hs, ctx.h, p)
    q = ctx.spec.boundary
    block = max(1, _STREAM_BLOCK_CELLS // ctx.spec.letters ** (n - p))
    W = np.empty((q * (q - 1) // 2, len(prefixes)))
    for start in range(0, len(prefixes), block):
        part = _corner_lengths(child_values(ctx.hs, prefixes[start:start + block], n - p))
        for _ in range(n - p):
            part = _reduce_cells(part, ctx.schedule)
        W[:, start:start + block] = part
    for _ in range(p - m):
        W = _reduce_cells(W, ctx.schedule)
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
