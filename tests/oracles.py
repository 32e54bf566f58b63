"""Reference implementations that the tests compare the library against.

No library code calls them: the level-1 form as a sparse matrix (the
library eliminates it through the reduction schedule, see
``harmonic._eliminate``), the canonical address of a vertex by a search
of its glue orbit (the library numbers vertices by the rank tables of
``build_level``), a harmonic function's value at one address and a cell's
measure by the quadratic form of that one cell (the library expands whole
levels, ``measures.cell_boundary_values``, and weighs their corner
differences, ``measures.cell_form``).
"""

import math
from collections import deque

import numpy as np
import scipy.sparse as sp

from fractaldist.measures import CellMeasureTable, cell_energies
from fractaldist.structure import FractalSpec, VertexRef, check_ref


def assemble_discrete_form(D, cell_weights, lg):
    """Sparse matrix of the level form: sum over cells of ``w_c * (-D)``
    scattered along each cell's corner tuple."""
    q = lg.spec.boundary
    cells = lg.cells
    w = np.broadcast_to(np.asarray(cell_weights, dtype=float), (cells.shape[0],))
    rows = np.repeat(cells, q, axis=1).ravel()
    cols = np.tile(cells, (1, q)).ravel()
    data = (w[:, None] * (-D).ravel()[None, :]).ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(lg.num_vertices, lg.num_vertices))


def canonicalize(spec: FractalSpec, ref: VertexRef) -> VertexRef:
    """Lexicographically smallest address equivalent to ``ref`` at its level.

    Two addresses of the same level are equivalent when they are connected by
    rewriting steps of the form ``u + (i,) + (f_a,)*r : a  ->  u + (j,) + (f_b,)*r : b``
    for a glue rule identifying corner ``a`` of cell ``i`` with corner ``b``
    of cell ``j``.
    """
    check_ref(spec, ref)
    by_corner: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, a, j, b in spec.glue:
        by_corner.setdefault((i, a), []).append((j, b))
        by_corner.setdefault((j, b), []).append((i, a))
    n = ref.level
    start = (ref.word, ref.label)
    seen = {start}
    queue = deque([start])
    while queue:
        word, label = queue.popleft()
        fa = spec.fixed_letters[label]
        for m in range(n - 1, -1, -1):
            # positions m+1..n-1 must all carry the fixed letter of `label`
            if m < n - 1 and word[m + 1] != fa:
                break
            for j, b in by_corner.get((word[m], label), ()):
                cand = (word[:m] + (j,) + (spec.fixed_letters[b],) * (n - 1 - m), b)
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
    word, label = min(seen)
    return VertexRef(word, label)


def harmonic_eval(hs, alpha, ref):
    """Value of the harmonic function with boundary values ``alpha`` at the
    point addressed by ``ref`` (well defined across glued addresses)."""
    return float(hs.values_on_cell(ref.word, np.asarray(alpha, dtype=float))[ref.label])


def harmonic_cell_measure(hs, h, word):
    """Measure of cell ``word`` under the tuple's summed energy measure:
    ``sum_j (2 / r_w) * E0(values of h_j on the cell)``, by the quadratic
    form itself."""
    vals = hs.values_on_cell(word, h.alphas.T.astype(float))[None]  # [1, q, N]
    return float((2.0 / math.prod(hs.r[list(word)]))
                 * np.einsum("cqj,qp,cpj->c", vals, -hs.D, vals)[0])


def piecewise_cell_measure(hs, lg, f, word):
    """Measure of cell ``word`` for the level-``lg.level`` harmonic
    interpolant of vertex values ``f``: its entry in the table of
    ``cell_energies``; ``len(word) <= lg.level``."""
    return CellMeasureTable.from_deepest(hs.spec.letters, cell_energies(hs, lg, f)).value(word)


def trace_coefficients(hs, word):
    """Pairwise conductances across a cell: ``b[p, q] = 2 * D[p, q] / r_w``
    (symmetric, nonnegative off-diagonal, zero diagonal)."""
    b = 2.0 * np.asarray(hs.D, dtype=float) / math.prod(hs.r[list(word)])
    np.fill_diagonal(b, 0.0)
    return b
