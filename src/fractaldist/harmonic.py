"""Boundary energy forms, harmonic extension, and structure condition checks.

The pair ``(D, r)`` consists of a symmetric boundary matrix ``D`` (the
quadratic form is ``E0(u) = (-D u, u)``) and per-cell contraction weights
``r``.  The level-``n`` energy sums ``E0`` over all level-``n`` cells with
weights ``1/r_w``; the pair is *regular* when all ``r_i`` lie in (0, 1) and
eliminating the interior of the one-cell network reproduces ``E0`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import BrokenStructureError, DegenerateFormError, NoEqualWeightStructureError
from .structure import FractalSpec, LevelGraph, VertexRef, Word, build_level, cell_pairs

SYM_TOL = 1e-12
EIG_TOL = 1e-12
REGULARITY_TOL = 1e-10
PROPORTIONALITY_RTOL = 1e-9
EIGENVALUE_MATCH_TOL = 1e-8
EIGEN_RESIDUAL_TOL = 1e-10
DET_TOL = 1e-12
CONNECTIVITY_LEVEL = 3


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    residual: float
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name:<28s} {status}  residual={self.residual:.3e}"
        return line + (f"  [{self.detail}]" if self.detail else "")


@dataclass
class ConditionReport:
    """Pass/fail results with residual witnesses for every checked condition."""

    checks: list[ConditionCheck] = field(default_factory=list)

    def add(self, name, passed, residual, detail=""):
        self.checks.append(ConditionCheck(name, bool(passed), float(residual), detail))

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [str(c) for c in self.checks]


def default_boundary_matrix(q: int) -> np.ndarray:
    """Unit-conductance matrix: off-diagonal 1, diagonal -(q-1)."""
    return np.ones((q, q)) - q * np.eye(q)


def check_dirichlet_matrix(D: np.ndarray) -> ConditionReport:
    """Validate the boundary matrix: symmetric, nonpositive definite, kernel =
    constants, nonnegative off-diagonal."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"boundary matrix must be square, got shape {D.shape}")
    asym = float(np.max(np.abs(D - D.T)))
    if asym > SYM_TOL:
        raise ValueError(f"boundary matrix not symmetric (max asymmetry {asym:.3e})")
    rep = ConditionReport()
    w = np.linalg.eigvalsh(D)
    rep.add("nonpositive_definite", w.max() <= EIG_TOL, max(w.max(), 0.0),
            f"largest eigenvalue {w.max():.3e}")
    # kernel must be exactly the constants
    near_zero = np.abs(w) <= max(1e-10, 1e-12 * np.abs(w).max())
    ones = np.ones(D.shape[0]) / math.sqrt(D.shape[0])
    const_resid = float(np.linalg.norm(D @ ones))
    kernel_ok = int(near_zero.sum()) == 1 and const_resid <= 1e-10
    rep.add("kernel_is_constants", kernel_ok, const_resid,
            f"{int(near_zero.sum())} near-zero eigenvalue(s)")
    off = D - np.diag(np.diag(D))
    worst = float(off.min())
    witness = ""
    if worst < -SYM_TOL:
        a, b = np.unravel_index(int(np.argmin(off)), off.shape)
        witness = f"entry ({a},{b}) = {off[a, b]:.3e}"
    rep.add("offdiag_nonnegative", worst >= -SYM_TOL, max(-worst, 0.0) + 0.0, witness)
    return rep


def assemble_discrete_form(D: np.ndarray, cell_weights: np.ndarray,
                           lg: LevelGraph) -> sp.csr_matrix:
    """Sparse matrix of the level form: sum over cells of ``w_c * (-D)``
    scattered along each cell's corner tuple."""
    q = lg.spec.boundary
    cells = lg.cells
    nc = cells.shape[0]
    w = np.broadcast_to(np.asarray(cell_weights, dtype=float), (nc,))
    rows = np.repeat(cells, q, axis=1).ravel()
    cols = np.tile(cells, (1, q)).ravel()
    data = (w[:, None] * (-D).ravel()[None, :]).ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(lg.num_vertices, lg.num_vertices))


def renorm_products(r: np.ndarray, n: int) -> np.ndarray:
    """Weight products ``r_w`` of all level-``n`` cells in big-endian cell-code order."""
    r = np.asarray(r, dtype=float)
    rw = np.ones(1)
    for _ in range(n):
        rw = (rw[:, None] * r[None, :]).ravel()
    return rw


def trace_form(M, keep: np.ndarray):
    """Eliminate all vertices outside ``keep`` from the quadratic form ``M``.

    Returns ``(traced, extend)`` where ``traced`` is the dense form on the kept
    vertices, in ``keep`` order, realizing the minimum over extensions, and
    ``extend(values)`` reconstructs the minimizing extension on all vertices,
    placing ``values`` at ``keep``.
    """
    M = sp.csr_matrix(M).toarray()
    n = M.shape[0]
    keep = np.asarray(keep, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    elim = np.nonzero(~mask)[0]
    B = M[np.ix_(keep, elim)]
    try:
        solve_C = np.linalg.solve(M[np.ix_(elim, elim)], B.T)
    except np.linalg.LinAlgError:
        raise DegenerateFormError("eliminated block is singular") from None
    if not np.all(np.isfinite(solve_C)):
        raise DegenerateFormError("eliminated block is numerically singular")
    traced = M[np.ix_(keep, keep)] - B @ solve_C

    def extend(values):
        v = np.asarray(values, dtype=float)
        u = np.empty(n)
        u[keep] = v
        u[elim] = -solve_C @ v
        return u

    return traced, extend


def _one_cell_trace(spec: FractalSpec, D: np.ndarray, cell_weights):
    """The level-1 form of ``spec`` (cell ``i`` weighted by ``cell_weights[i]``)
    traced onto its boundary: ``(lg, traced, extend)``, as :func:`trace_form`."""
    lg = build_level(spec, 1)
    M = assemble_discrete_form(D, cell_weights, lg)
    return (lg, *trace_form(M, np.array(lg.boundary_ids)))


def check_regularity(spec: FractalSpec, D: np.ndarray, r: np.ndarray) -> float:
    """Max-norm residual between the traced one-level form and ``-D``."""
    _, traced, _ = _one_cell_trace(spec, D, 1.0 / np.asarray(r, dtype=float))
    return float(np.max(np.abs(traced - (-np.asarray(D, dtype=float)))))


def solve_equal_renormalization(spec: FractalSpec, D: np.ndarray) -> float:
    """Single contraction weight making ``(D, r)`` regular, if one exists.

    Traces the unweighted one-cell sum onto the boundary; when the result is a
    positive multiple ``c`` of ``-D`` the weight is ``r = c``.  Raises
    :class:`NoEqualWeightStructureError` otherwise, reporting the deviation
    from proportionality.
    """
    D = np.asarray(D, dtype=float)
    _, traced, _ = _one_cell_trace(spec, D, np.ones(spec.letters))
    target = -D
    num = float(np.sum(traced * target))
    den = float(np.sum(target * target))
    if den == 0.0:
        raise DegenerateFormError("boundary matrix is zero to working precision")
    c = num / den
    dev = float(np.max(np.abs(traced - c * target)))
    scale = float(np.max(np.abs(target)))
    if dev > PROPORTIONALITY_RTOL * max(scale, abs(c) * scale):
        raise NoEqualWeightStructureError(
            f"traced one-cell sum is not proportional to the boundary form "
            f"(deviation {dev:.3e})", dev)
    if not 0.0 < c < 1.0:
        raise NoEqualWeightStructureError(
            f"proportionality constant {c} outside (0, 1)", dev)
    return c


def extension_matrices(spec: FractalSpec, D: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-cell matrices mapping boundary values to sub-cell boundary values.

    Row ``b`` of ``A[i]`` holds the coefficients expressing the value of the
    energy-minimizing one-level extension at corner ``b`` of cell ``i``.
    """
    lg, _, extend = _one_cell_trace(spec, D, 1.0 / np.asarray(r, dtype=float))
    U = np.stack([extend(col) for col in np.eye(spec.boundary).T], axis=1)  # [nv, q]
    return np.stack([U[lg.cells[i]] for i in range(spec.letters)])


def fixed_point_eigendata(spec: FractalSpec, D: np.ndarray, r: np.ndarray,
                          A: np.ndarray, letter: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpair ``(v, u)`` of a boundary-fixing cell.

    ``u`` is the column of ``D`` at the fixed boundary point (a left
    eigenvector of ``A[letter]`` for the eigenvalue ``r[letter]``); ``v`` is
    the right eigenvector, zero at the fixed point, nonnegative, and scaled so
    that ``(u, v) = 1``.
    """
    label = spec.label_of_fixed_cell(letter)
    q = spec.boundary
    D = np.asarray(D, dtype=float)
    ri = float(np.asarray(r, dtype=float)[letter])
    Ai = A[letter]
    u = D[:, label].copy()
    others = [x for x in range(q) if x != label]
    B = Ai[np.ix_(others, others)]
    # the fixed coordinate is deflated: v is zero there, so the eigenproblem
    # lives on the remaining block
    lams, vecs = np.linalg.eig(B)
    nearest = int(np.argmin(np.abs(lams - ri)))
    lam = lams[nearest]
    if abs(lam - ri) > EIGENVALUE_MATCH_TOL:
        raise BrokenStructureError(
            f"cell {letter}: nearest eigenvalue {lam:.12g} does not match weight {ri:.12g}")
    v = np.zeros(q)
    v[others] = vecs[:, nearest].real
    denom = float(u @ v)
    if abs(denom) < 1e-14:
        raise BrokenStructureError(f"cell {letter}: eigenvector orthogonal to D-column")
    v = v / denom
    resid = float(np.max(np.abs(Ai @ v - ri * v)))
    if resid > EIGEN_RESIDUAL_TOL:
        raise BrokenStructureError(
            f"cell {letter}: eigen residual {resid:.3e} exceeds {EIGEN_RESIDUAL_TOL}")
    return v, u


@dataclass
class HarmonicStructure:
    """A validated ``(D, r)`` pair with its derived extension data."""

    spec: FractalSpec
    D: np.ndarray
    r: np.ndarray
    A: np.ndarray                       # [letters, q, q] extension matrices
    eigen: dict[int, tuple[np.ndarray, np.ndarray]]  # letter -> (v, u)

    @classmethod
    def build(cls, spec: FractalSpec, D: np.ndarray | None = None,
              r: np.ndarray | float | None = None) -> "HarmonicStructure":
        """Assemble the structure; ``r`` defaults to the equal-weight solve."""
        if D is None:
            D = default_boundary_matrix(spec.boundary)
        D = np.asarray(D, dtype=float)
        if D.shape != (spec.boundary, spec.boundary):
            raise ValueError(f"boundary matrix shape {D.shape} does not match q={spec.boundary}")
        if not np.all(np.isfinite(D)):
            raise ValueError("boundary matrix entries must be finite")
        if r is None:
            r = solve_equal_renormalization(spec, D)
        r_arr = np.broadcast_to(np.asarray(r, dtype=float), (spec.letters,)).copy()
        if not (np.all(r_arr > 0.0) and np.all(r_arr < 1.0)):
            raise ValueError(f"contraction weights must lie in (0, 1), got {r_arr}")
        A = extension_matrices(spec, D, r_arr)
        eigen = {}
        for letter in spec.fixed_letters:
            eigen[letter] = fixed_point_eigendata(spec, D, r_arr, A, letter)
        return cls(spec, D, r_arr, A, eigen)

    def values_on_cell(self, word: Word, values: np.ndarray) -> np.ndarray:
        """Corner values on cell ``word`` of the harmonic function(s) with
        boundary values ``values`` (corner axis first):
        ``A[w_m] @ ... @ A[w_1] @ values`` for ``word = (w_1, ..., w_m)``."""
        for letter in word:
            values = self.A[letter] @ values
        return values

    def energy0(self, alpha: np.ndarray, beta: np.ndarray | None = None) -> float:
        """Boundary form ``(-D a, b)``."""
        b = alpha if beta is None else beta
        return float(alpha @ (-self.D) @ b)


def check_structure_conditions(hs: HarmonicStructure) -> ConditionReport:
    """Full condition report: boundary matrix, regularity, and the structural
    conditions needed for the two-sided distance comparison.

    The punctured-connectivity condition is checked on the finite level-
    ``CONNECTIVITY_LEVEL`` graph only (a documented heuristic; the continuum
    statement is not decidable from combinatorial data).
    """
    spec = hs.spec
    rep = check_dirichlet_matrix(hs.D)
    rmin, rmax = float(hs.r.min()), float(hs.r.max())
    rep.add("weights_in_unit_interval", 0.0 < rmin and rmax < 1.0, 0.0,
            f"r in [{rmin:.12g}, {rmax:.12g}]")
    resid = check_regularity(spec, hs.D, hs.r)
    rep.add("regularity", resid <= REGULARITY_TOL, resid)

    rep.add("boundary_is_three_points", spec.boundary == 3, abs(spec.boundary - 3),
            f"q = {spec.boundary}")

    lg = build_level(spec, CONNECTIVITY_LEVEL)
    all_connected = True
    witness = ""
    for a in range(spec.boundary):
        vid = lg.boundary_ids[a]
        if not _connected_without(lg, vid):
            all_connected = False
            witness = f"deleting boundary point {a} disconnects level {CONNECTIVITY_LEVEL}"
            break
    rep.add("punctured_connectivity", all_connected, 0.0 if all_connected else 1.0,
            witness or f"checked at level {CONNECTIVITY_LEVEL}")

    sign_ok = True
    sign_worst = 0.0
    witness = ""
    for label in range(spec.boundary):
        letter = spec.fixed_letters[label]
        v, _ = hs.eigen[letter]
        dv = hs.D @ v
        for qq in range(spec.boundary):
            if qq == label:
                continue
            if dv[qq] >= 0.0:
                sign_ok = False
                witness = f"(D v)({qq}) = {dv[qq]:.3e} for cell {letter}"
            sign_worst = max(sign_worst, float(dv[qq]))
    rep.add("fixed_points_cover_boundary", len(set(spec.fixed_letters)) == spec.boundary,
            0.0, f"{len(set(spec.fixed_letters))} boundary-fixing cells")
    rep.add("eigenvector_sign_condition", sign_ok, max(sign_worst, 0.0), witness)

    det_min = min(abs(float(np.linalg.det(hs.A[letter]))) for letter in spec.fixed_letters)
    rep.add("extension_matrices_invertible", det_min > DET_TOL, det_min,
            f"min |det| over boundary-fixing cells = {det_min:.3e}")
    return rep


def _connected_without(lg: LevelGraph, removed: int) -> bool:
    """Whether the level graph stays connected once vertex ``removed`` and
    its within-cell edges are deleted."""
    u, v = cell_pairs(lg)
    kept = (u != removed) & (v != removed)
    graph = sp.coo_matrix((np.ones(kept.sum()), (u[kept], v[kept])),
                          shape=(lg.num_vertices, lg.num_vertices))
    _, label = connected_components(graph, directed=False)
    return np.unique(np.delete(label, removed)).size == 1


def harmonic_eval(hs: HarmonicStructure, alpha: np.ndarray, ref: VertexRef) -> float:
    """Value of the harmonic function with boundary values ``alpha`` at the
    point addressed by ``ref`` (well defined across glued addresses)."""
    return float(hs.values_on_cell(ref.word, np.asarray(alpha, dtype=float))[ref.label])


def separation_constant(hs: HarmonicStructure, letter_i: int, letter_j: int) -> float:
    """Positive lower bound ``min_u max(|(u_i,u)|, |(u_j,u)|)`` over unit
    mean-zero ``u``; solved from the trigonometric crossing equations.

    Requires a three-point boundary so the mean-zero subspace is a plane.
    """
    q = hs.spec.boundary
    if q != 3:
        raise ValueError("separation constant is defined for a three-point boundary")
    if letter_i == letter_j:
        raise ValueError("needs two distinct boundary-fixing cells")
    _, ui = hs.eigen[letter_i]
    _, uj = hs.eigen[letter_j]
    b1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    b2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    ci, si = float(ui @ b1), float(ui @ b2)
    cj, sj = float(uj @ b1), float(uj @ b2)
    cross = float(ci * sj - si * cj)
    if abs(cross) < 1e-12 * (np.linalg.norm(ui) * np.linalg.norm(uj)):
        raise DegenerateFormError("the two left eigenvectors are parallel")

    def g(theta, c, s):
        return abs(c * math.cos(theta) + s * math.sin(theta))

    candidates = []
    # |g_i| = |g_j| crossings: (ci -+ cj) cos t + (si -+ sj) sin t = 0
    for sign in (+1.0, -1.0):
        cc = ci - sign * cj
        ss = si - sign * sj
        theta = math.atan2(-cc, ss) if (cc, ss) != (0.0, 0.0) else 0.0
        candidates.extend([theta, theta + math.pi / 2])
    vals = [max(g(t, ci, si), g(t, cj, sj)) for t in candidates]
    return min(vals)
