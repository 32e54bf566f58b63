"""Cell-wise energy measures of harmonic and piecewise-harmonic functions.

The energy measure of a function distributes twice its energy over the set;
for harmonic pieces the mass of a cell is computable exactly from the cell's
boundary values.  Measures are represented only through their values on cells
(additive over subdivision, atomless), never through densities.

Every per-depth table of a cell function is one :class:`CellMeasureTable`,
built from its deepest depth by subtree sums: the tuple's measures and the
domination slack ``mu_h - mu_f`` (a signed cell measure, :class:`SlackTable`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .harmonic import HarmonicStructure, renorm_products
from .structure import (
    LevelGraph,
    Word,
    csv_rows,
    encode_word,
    float_chars,
    int_chars,
    level_address_count,
    row_blocks,
    word_column,
)

FEASIBILITY_RTOL = 1e-9
# cells held at once: the leaf cells _cell_blocks expands and the cells whose
# values and corner_products table cell_form gathers; a block's [cells, q, N]
# values and [pairs, cells] tables stay at a few MiB, whatever the level
_STREAM_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class HarmonicTuple:
    """A tuple of harmonic functions given by their boundary-value rows.

    ``alphas`` has shape ``[N, q]``; component ``j`` is the harmonic function
    with boundary values ``alphas[j]``.
    """

    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("expected a nonempty [N, q] array of boundary rows")
        if not np.all(np.isfinite(a)):
            raise ValueError("tuple boundary values must be finite")
        object.__setattr__(self, "alphas", a)
        if np.max(np.abs(a - a.mean(axis=1, keepdims=True))) < 1e-15:
            warnings.warn("all components are constant: every induced cell "
                          "measure vanishes and distances collapse to zero",
                          stacklevel=2)

    @property
    def n_components(self) -> int:
        return self.alphas.shape[0]


def default_tuple(hs: HarmonicStructure) -> HarmonicTuple:
    """Canonical mean-zero tuple: project the first ``q-1`` unit vectors off
    the constants and orthonormalize them in the boundary energy product."""
    q = hs.spec.boundary
    P = np.eye(q) - np.ones((q, q)) / q
    rows = []
    for a in range(q - 1):
        v = P[:, a].copy()
        for w in rows:
            v -= hs.energy0(w, v) * w
        norm = hs.energy0(v, v)
        if norm <= 1e-24:
            continue
        rows.append(v / np.sqrt(norm))
    return HarmonicTuple(np.stack(rows))


def child_values(hs: HarmonicStructure, C: np.ndarray, s: int) -> np.ndarray:
    """Corner values of the cells ``s`` letters below each cell of ``C``.

    ``C`` is ``[cells, q, N]``; the result is ``[cells * k**s, q, N]`` in
    big-endian order, the ``k**s`` descendants of each cell contiguous.  Built
    by the one-letter recursion ``C[prefix*k + i] = A_i @ C[prefix]``, run on
    a cells-last ``[q, N, P]`` array ``T``: each step is one broadcast
    ``np.matmul`` with ``M[a, 0, b, i] = A_i[a, b]``, a ``[P, q] @ [q, k]``
    product for each corner ``a`` and component ``j`` that covers all ``k``
    letters, written straight into a ``[q, N, P, k]`` array that becomes
    ``[q, N, P * k]``.  The result is a ``[cells, q, N]`` view of that array,
    so each ``result[:, a, j]`` is a contiguous row.  A product from one cell
    would be computed by numpy as a vector-matrix product, whose rounding
    differs from the matrix-matrix one, so it is padded to two cells: every
    cell then gets the same bits whichever block of cells it is expanded in.
    """
    k = hs.spec.letters
    q, N = C.shape[1], C.shape[2]
    M = np.stack(hs.A, axis=-1)[:, None]  # M[a, 0, b, i] = A_i[a, b]
    T = np.ascontiguousarray(C.transpose(1, 2, 0))
    for _ in range(s):
        P = T.shape[2]
        X = np.repeat(T, 2, axis=2) if P == 1 else T
        out = np.empty((q, N, X.shape[2], k))
        np.matmul(X.transpose(1, 2, 0)[None], M, out=out)
        T = out[:, :, :P].reshape(q, N, P * k)
    return T.transpose(2, 0, 1)


def cell_boundary_values(hs: HarmonicStructure, h: HarmonicTuple, n: int) -> np.ndarray:
    """Boundary values of every component on every level-``n`` cell.

    Returns ``C`` of shape ``[k**n, q, N]`` in big-endian cell-code order:
    ``C[w, :, j]`` are the values of component ``j`` along the corners of cell
    ``w``, expanded from the tuple's boundary rows by :func:`child_values`
    with one matrix product per level.  ``C`` is a view of a cells-last
    ``[q, N, k**n]`` array: ``C[:, a, j]`` is contiguous, ``C[w]`` is not.
    The level's address count is checked first (:func:`level_address_count`):
    a negative ``n`` raises ``ValueError`` and an oversized one
    :class:`ResourceLimitError`, before anything is allocated; so does a
    tuple whose rows do not hold one value per boundary point (``ValueError``).
    """
    level_address_count(hs.spec, n)
    if h.alphas.shape[1] != hs.spec.boundary:
        raise ValueError(f"tuple rows hold {h.alphas.shape[1]} boundary values, "
                         f"the spec has {hs.spec.boundary} boundary points")
    return child_values(hs, h.alphas.T[None, :, :].astype(float), n)


def _prefix_level(k: int, n: int) -> int:
    """Level ``p`` whose cells :func:`_cell_blocks` expands to level ``n``:
    ``max(n - s, min(n, s))`` for the deepest ``s`` with ``k**s`` cells at
    most ``_STREAM_BLOCK_CELLS``: the deepest level that fits in one block,
    or ``n`` itself if it does.  Past level ``2 * s`` that is ``n - s``, and
    each prefix cell is expanded by ``s`` letters."""
    s = 0
    while k ** (s + 1) <= _STREAM_BLOCK_CELLS:
        s += 1
    return max(n - s, min(n, s))


def _cell_blocks(hs: HarmonicStructure, h: HarmonicTuple, n: int):
    """Yield ``(start, values)`` blocks of the level-``n`` cells' corner
    values, as :func:`cell_boundary_values`, in cell order.

    The prefix level ``p = _prefix_level(k, n)`` is built once, and each
    block of its cells is expanded by ``n - p`` letters (:func:`child_values`)
    to at most ``_STREAM_BLOCK_CELLS`` cells; the bits do not depend on the
    blocks.  A consumer that keeps working on a block after measuring it
    drops ``values`` first, so that the block is freed before the next one.
    """
    p = _prefix_level(hs.spec.letters, n)
    span = hs.spec.letters ** (n - p)
    block = max(1, _STREAM_BLOCK_CELLS // span)
    prefixes = cell_boundary_values(hs, h, p)
    for start in range(0, len(prefixes), block):
        yield start * span, child_values(hs, prefixes[start:start + block], n - p)


def _put_block(out: np.ndarray | None, part: np.ndarray, start: int, total: int) -> np.ndarray:
    """Write ``part`` into columns ``start:`` of the last axis of ``out``, a
    ``total``-column table made on the first block; a block of all ``total``
    columns is returned as it is."""
    if part.shape[-1] == total:
        return part
    if out is None:
        out = np.empty(part.shape[:-1] + (total,))
    out[..., start:start + part.shape[-1]] = part
    return out


def corner_products(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """``[pairs, cells]`` table of corner-difference products ``sum_j (X[c, a,
    j] - X[c, b, j]) * (Y[c, a, j] - Y[c, b, j])``, corner pairs ``a < b`` in
    ``np.triu_indices(q, 1)`` order.  ``X`` and ``Y`` are ``[cells, q]`` or
    ``[cells, q, N]``; ``Y`` defaults to ``X``: squared corner distances."""
    X = X.reshape(X.shape[0], X.shape[1], -1)
    Y = X if Y is None else Y.reshape(X.shape)
    a, b = np.triu_indices(X.shape[1], 1)
    # a square is never -0.0 and 0.0 + p is p bit for bit for p >= +0.0, so a
    # squared row starts as its first component's square; a cross product
    # may be -0.0, and its rows start at 0.0
    squared = Y is X and X.shape[2] > 0
    table = np.empty((len(a), len(X))) if squared else np.zeros((len(a), len(X)))
    dx, dy = np.empty(len(X)), np.empty(len(X))
    for row, i, j in zip(table, a, b):
        # one component at a time, in the order a sum over the component axis
        # adds them; each X[:, i, c] of a child_values array is contiguous
        for c in range(X.shape[2]):
            d = row if squared and c == 0 else dx
            np.subtract(X[:, i, c], X[:, j, c], out=d)
            d *= d if Y is X else np.subtract(Y[:, i, c], Y[:, j, c], out=dy)
            if d is dx:
                row += dx
    return table


def cell_form(D: np.ndarray, rw: np.ndarray | float, X: np.ndarray,
              Y: np.ndarray | None = None, cells: np.ndarray | None = None) -> np.ndarray:
    """Per-cell energy pairing ``(2 / r_w) * sum_j (-D X[c, :, j], Y[c, :, j])``.

    A valid ``D`` has the constants as its kernel, so this is ``(2 / r_w) *
    sum_p D[a, b] * corner_products(X, Y)[p]`` (:func:`pair_form`): corner
    differences, which keep their digits on small cells where the raw O(1)
    values cancel.  With a ``[cells, q]`` vertex table ``cells``, ``X`` and
    ``Y`` hold vertex values and cell ``c`` reads ``X[cells[c]]``, gathered
    one block of cells at a time.
    """
    energy = np.empty(len(X) if cells is None else len(cells))
    rw = np.broadcast_to(rw, energy.shape)
    for s in range(0, len(energy), _STREAM_BLOCK_CELLS):
        part = slice(s, s + _STREAM_BLOCK_CELLS)
        at = part if cells is None else cells[part]
        pair_form(D, rw[part], corner_products(X[at], None if Y is None else Y[at]),
                  energy[part])
    return energy


def pair_form(D: np.ndarray, rw: np.ndarray, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``(2 / r_w) * sum_p D[a, b] * table[p]`` to ``out`` and return
    it, for a ``[pairs, cells]`` :func:`corner_products` table, which is
    overwritten: the pair weighting of :func:`cell_form` and of the profile's
    one pass over a level (``metrics._measure_level``)."""
    table *= D[np.triu_indices(len(D), 1)][:, None]
    table.sum(axis=0, out=out)
    out *= 2.0
    return np.divide(out, rw, out=out)


def tuple_cell_measures(hs: HarmonicStructure, h: HarmonicTuple, n: int) -> np.ndarray:
    """Vector of measures of all level-``n`` cells (big-endian code order),
    by :func:`cell_form` on each block of :func:`_cell_blocks`."""
    level_address_count(hs.spec, n)  # before rw, the first whole-level array
    rw = renorm_products(hs.r, n)
    mu = None
    for start, values in _cell_blocks(hs, h, n):
        part = cell_form(hs.D, rw[start:start + len(values)], values)
        mu = _put_block(mu, part, start, len(rw))
    return mu


def cell_energies(hs: HarmonicStructure, lg: LevelGraph, f: np.ndarray) -> np.ndarray:
    """Per-cell measure of the piecewise-harmonic interpolant of ``f``:
    ``(2 / r_w) * E0(f restricted to the cell)`` for every level cell, by
    :func:`cell_form` on the values ``f[cells]``."""
    return cell_form(hs.D, renorm_products(hs.r, lg.level), np.asarray(f, dtype=float),
                     cells=lg.cells)


@dataclass
class CellMeasureTable:
    """An additive cell function tabulated down to a depth: ``values[m]`` is
    indexed by big-endian cell code at depth ``m``, and each cell's value is
    the sum of its ``k`` children's."""

    spec_letters: int
    values: list[np.ndarray]
    column = "value"  # header of the value column in to_csv

    @classmethod
    def from_deepest(cls, k: int, deepest: np.ndarray, *rest):
        """The table whose deepest depth is ``deepest``; every coarser depth
        sums the subtrees below it.  ``rest`` are a subclass's own fields."""
        values = [deepest]
        while values[-1].size > 1:
            values.append(values[-1].reshape(-1, k).sum(axis=1))
        return cls(k, values[::-1], *rest)

    def value(self, word: Word) -> float:
        depth = len(self.values) - 1
        if len(word) > depth:
            raise ValueError(f"cell word of length {len(word)} is deeper than depth {depth}")
        return float(self.values[len(word)][encode_word(word, self.spec_letters)])

    def to_csv(self) -> Iterator[str]:
        """Rows ``word,depth,<column>`` of every cell, by depth and then by
        code, one string per block of rows.  The header and depth 0 go out
        with the first block of depth 1, so a word that cannot be spelled
        raises before the first string is yielded."""
        k = self.spec_letters
        blocks = (csv_rows(word_column(np.arange(b.start, b.stop), m, k),
                           int_chars(np.full(b.stop - b.start, m)), float_chars(vals[b]))
                  for m, vals in enumerate(self.values) for b in row_blocks(vals.size))
        yield f"word,depth,{self.column}\n" + next(blocks) + next(blocks, "")
        yield from blocks


@dataclass
class SlackTable(CellMeasureTable):
    """Per-cell domination slack ``mu_h(cell) - mu_f(cell)``, a signed cell
    measure, down to a depth.

    Feasibility means every checked slack is above ``-tol * mu_h(whole set)``;
    only the recorded depth range was checked.
    """

    scale: float
    tolerance: float
    column = "slack"
    # its own entry, so that bench/tracer.py can wrap the slack writer alone
    to_csv = CellMeasureTable.to_csv

    slack = property(lambda self: self.values)

    @property
    def checked_depth(self) -> int:
        return len(self.values) - 1

    @property
    def min_slack(self) -> float:
        return min(float(s.min()) for s in self.values)

    @property
    def feasible(self) -> bool:
        return self.min_slack >= -self.tolerance * self.scale


def cell_measure_table(hs: HarmonicStructure, h: HarmonicTuple, depth: int) -> CellMeasureTable:
    """Tabulate the tuple's cell measures for all words up to ``depth``."""
    return CellMeasureTable.from_deepest(hs.spec.letters, tuple_cell_measures(hs, h, depth))


def check_domination(hs: HarmonicStructure, lg: LevelGraph, f: np.ndarray,
                     mu: np.ndarray, *,
                     tolerance: float = FEASIBILITY_RTOL) -> SlackTable:
    """Slack table of the cell-domination constraints for vertex values ``f``.

    ``mu`` holds the tuple's measures of the level-``lg.level`` cells (see
    :func:`tuple_cell_measures`).  For every word with ``len(word) <=
    lg.level`` the slack is the tuple's cell measure minus the
    piecewise-harmonic interpolant's cell measure; the deepest level is
    computed directly, ``mu`` minus the cell energies written over the
    energies, and coarser levels by subtree sums.
    """
    slack = cell_energies(hs, lg, f)
    np.subtract(mu, slack, out=slack)
    return SlackTable.from_deepest(hs.spec.letters, slack, float(mu.sum()), tolerance)
