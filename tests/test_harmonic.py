"""Boundary form checks, regularity, extension matrices, eigendata."""

import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fractaldist.errors import (
    BrokenStructureError,
    DegenerateFormError,
    FractalDistError,
    NoEqualWeightStructureError,
    ResourceLimitError,
)
from fractaldist import harmonic
from fractaldist.harmonic import (
    HarmonicStructure,
    check_dirichlet_matrix,
    check_regularity,
    check_structure_conditions,
    default_boundary_matrix,
    extension_matrices,
    _connected_without,
    renorm_products,
    separation_constant,
    solve_equal_renormalization,
)
from fractaldist.structure import FractalSpec, VertexRef, build_level, generate_spec

from conftest import (
    SKEW_GASKET_D,
    SKEW_GASKET_R,
    TWO_CORNER_FIELDS,
    UNIT_TRIANGLE_D,
    chain_spec,
    tetra_spec,
)
from oracles import assemble_discrete_form, harmonic_eval


# ---------------------------------------------------------------------------
# boundary matrix conditions
# ---------------------------------------------------------------------------

def test_reference_matrix_passes_all():
    rep = check_dirichlet_matrix(UNIT_TRIANGLE_D)
    assert rep.ok


def test_identity_fails_nonpositive():
    rep = check_dirichlet_matrix(np.eye(3))
    assert not rep["nonpositive_definite"].passed


def test_negative_offdiagonal_detected():
    D = np.array([[-1.0, 2.0, -1.0], [2.0, -3.0, 1.0], [-1.0, 1.0, 0.0]])
    rep = check_dirichlet_matrix(D)
    check = rep["offdiag_nonnegative"]
    assert not check.passed
    assert "(0,2)" in check.detail.replace(" ", "")


def test_nonsymmetric_rejected():
    D = np.array([[-1.0, 1.0], [0.5, -1.0]])
    with pytest.raises(ValueError):
        check_dirichlet_matrix(D)


# ---------------------------------------------------------------------------
# discrete forms
# ---------------------------------------------------------------------------

def test_level_zero_form_is_boundary_form(sg2_spec, sg2_hs):
    lg = build_level(sg2_spec, 0)
    M = assemble_discrete_form(sg2_hs.D, np.ones(1), lg)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.normal(size=3)
        assert np.isclose(u @ M @ u, u @ (-UNIT_TRIANGLE_D) @ u, atol=1e-12)


def test_constant_functions_have_zero_energy(sg2_spec, sg2_hs):
    for n in range(4):
        lg = build_level(sg2_spec, n)
        M = assemble_discrete_form(sg2_hs.D, 1.0 / renorm_products(sg2_hs.r, lg.level), lg)
        u = np.full(lg.num_vertices, 3.7)
        assert abs(u @ M @ u) < 1e-10


def test_restriction_energies_nondecreasing(sg2_spec, sg2_hs):
    # minimizing extensions make coarse energies lower bounds for fine ones
    rng = np.random.default_rng(1)
    for m in range(4):
        coarse = build_level(sg2_spec, m)
        fine = build_level(sg2_spec, m + 1)
        Mc = assemble_discrete_form(sg2_hs.D, 1.0 / renorm_products(sg2_hs.r, m), coarse)
        Mf = assemble_discrete_form(sg2_hs.D, 1.0 / renorm_products(sg2_hs.r, m + 1), fine)
        emb = coarse.embed_into(fine)
        for _ in range(6):
            u = rng.normal(size=fine.num_vertices)
            uc = u[emb]
            assert uc @ Mc @ uc <= u @ Mf @ u + 1e-10


def product_table(r, n):
    """``r_w`` of every level-``n`` cell, one letter at a time."""
    rw = np.ones(1)
    for _ in range(n):
        rw = (rw[:, None] * np.asarray(r, dtype=float)[None, :]).ravel()
    return rw


def test_equal_weight_products_are_one_number(sg2_hs, sg3_hs, hexa_hs):
    for hs, n in ((sg2_hs, 12), (sg3_hs, 8), (hexa_hs, 8)):
        rw = renorm_products(hs.r, n)
        assert rw.shape == (hs.spec.letters ** n,) and rw.strides == (0,)
        assert not rw.flags.writeable
        assert np.ascontiguousarray(rw).tobytes() == product_table(hs.r, n).tobytes()


def test_per_letter_products_are_a_table():
    for n in range(7):
        rw = renorm_products(SKEW_GASKET_R, n)
        assert rw.strides == (8,) and not rw.flags.writeable
        assert rw.tobytes() == product_table(SKEW_GASKET_R, n).tobytes()


# ---------------------------------------------------------------------------
# regularity and the equal-weight solve
# ---------------------------------------------------------------------------

def test_regularity_residuals(sg2_spec, sg3_spec):
    assert check_regularity(sg2_spec, UNIT_TRIANGLE_D, np.full(3, 0.6)) < 1e-12
    assert check_regularity(sg2_spec, UNIT_TRIANGLE_D, np.full(3, 0.5)) > 0.1
    assert check_regularity(sg3_spec, UNIT_TRIANGLE_D, np.full(6, 7 / 15)) < 1e-12


def test_equal_weight_solutions(sg2_spec, sg3_spec, hexa_spec, nona_spec):
    assert abs(solve_equal_renormalization(sg2_spec, UNIT_TRIANGLE_D) - Fraction(3, 5)) < 1e-12
    # golden values, independently confirmed by the regularity residual
    golden = [(sg3_spec, Fraction(7, 15)), (hexa_spec, Fraction(3, 7)),
              (nona_spec, Fraction(1, 3))]
    for spec, expected in golden:
        r = solve_equal_renormalization(spec, default_boundary_matrix(3))
        assert abs(r - expected) < 1e-12
        assert 0 < r < 1
        assert check_regularity(spec, default_boundary_matrix(3),
                                np.full(spec.letters, float(expected))) < 1e-10


def test_no_equal_weight_structure_error():
    # a chain of three cells breaks the symmetry between boundary pairs, so
    # the traced sum cannot be proportional to the unit-conductance form
    spec = FractalSpec("chain", 3, 3, (0, 1, 2), ((0, 1, 1, 0), (1, 2, 2, 1)))
    with pytest.raises(NoEqualWeightStructureError):
        solve_equal_renormalization(spec, default_boundary_matrix(3))


def test_equal_weight_solve_of_an_underflowing_form(sg2_spec):
    # the squared entries of D underflow to zero, so the form has no
    # measurable size to be proportional to
    with pytest.raises(DegenerateFormError):
        solve_equal_renormalization(sg2_spec, 1e-200 * default_boundary_matrix(3))


def dense_exact_trace(spec, D, r):
    """Independent reference for the exact build: the level-1 Laplacian of
    the conductances ``D_ab / r_i`` (unit weights when ``r`` is None) as a
    dense ``Fraction`` matrix, its interior solved by Gauss-Jordan with row
    pivoting.  Returns the traced ``q x q`` form and each level-1 vertex's
    values of the ``q`` boundary unit vectors' harmonic extensions."""
    lg = build_level(spec, 1)
    q, nv = spec.boundary, lg.num_vertices
    L = [[Fraction(0)] * nv for _ in range(nv)]
    for i, cell in enumerate(lg.cells.tolist()):
        weight = 1 if r is None else 1 / Fraction(r[i])
        for a, b in itertools.combinations(range(q), 2):
            c = Fraction(D[a][b]) * weight
            u, v = cell[a], cell[b]
            L[u][v] -= c
            L[v][u] -= c
            L[u][u] += c
            L[v][v] += c
    B = list(lg.boundary_ids)
    interior = [x for x in range(nv) if x not in B]
    n = len(interior)
    rows = [[L[x][y] for y in interior + B] for x in interior]
    for col in range(n):
        pivot = next(k for k in range(col, n) if rows[k][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for k in range(n):
            if k != col and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[col])]
    values = {b: [Fraction(int(a == j)) for a in range(q)] for j, b in enumerate(B)}
    for k, x in enumerate(interior):
        values[x] = [-rows[k][n + a] for a in range(q)]
    traced = [[L[B[a]][B[b]] + sum(L[B[a]][x] * values[x][b] for x in interior)
               for b in range(q)] for a in range(q)]
    return traced, values


def exact_case(name):
    """``(spec, D, r)`` of one structure checked against the dense reference."""
    if name == "skew gasket:2":
        return generate_spec("gasket", 2), SKEW_GASKET_D, SKEW_GASKET_R
    if name == "two-corner":
        return FractalSpec.from_json_dict(TWO_CORNER_FIELDS), default_boundary_matrix(3), None
    kind, param = name.split(":")
    return generate_spec(kind, int(param)), default_boundary_matrix(3), None


@pytest.mark.parametrize("name", [f"gasket:{side}" for side in range(2, 10)]
                         + ["polygasket:6", "polygasket:9", "skew gasket:2", "two-corner"])
def test_structure_is_the_exact_elimination_rounded_once(name):
    spec, D, r = exact_case(name)
    hs = HarmonicStructure.build(spec, D, r)
    traced, values = dense_exact_trace(spec, D.tolist(), r)
    q = spec.boundary
    if r is None:
        # the unit-weight trace is c * (-D), and r is c rounded once
        c = traced[0][1] / -Fraction(D[0, 1])
        assert all(traced[a][b] == -c * Fraction(D[a, b]) for a in range(q) for b in range(q))
        assert np.array_equal(hs.r, np.full(spec.letters, float(c)))
        # equal weights 1 / r scale every conductance alike
        traced = [[t / Fraction(hs.r[0]) for t in row] for row in traced]
    residual = max(abs(traced[a][b] + Fraction(D[a, b])) for a in range(q) for b in range(q))
    assert check_regularity(spec, D, hs.r) == float(residual)
    A = [[[float(v) for v in values[x]] for x in cell] for cell in build_level(spec, 1).cells.tolist()]
    assert np.array_equal(hs.A, A)


def test_builtin_and_spec_file_build_the_same_structure(sg2_spec):
    # README's spec file: the unit-conductance gasket:2 with r = 0.6 per cell
    from_file = HarmonicStructure.build(sg2_spec, UNIT_TRIANGLE_D, [0.6, 0.6, 0.6])
    builtin = HarmonicStructure.build(sg2_spec)
    assert np.array_equal(builtin.r, from_file.r)
    assert np.array_equal(builtin.A, from_file.A)


def test_long_chain_builds_in_little_memory():
    # a chain of n unit conductances in series traces to 1/n; no array of
    # the level-1 vertices squared is allocated
    spec = chain_spec(4000)
    tracemalloc.start()
    try:
        hs = HarmonicStructure.build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(hs.r == 1 / 4000)
    assert peak < 32 * 2 ** 20


def test_asymmetric_matrix_rejected_before_the_elimination(sg2_spec):
    D = np.array([[-2.0, 1.0, 1.0], [1.5, -2.0, 0.5], [1.0, 1.0, -2.0]])
    for r in (None, np.full(3, 0.6)):
        with pytest.raises(ValueError, match="not symmetric"):
            HarmonicStructure.build(sg2_spec, D, r)


def test_zero_pivot_is_a_degenerate_form(sg2_spec):
    # -I has no conductances: every interior node has total conductance 0
    with pytest.raises(DegenerateFormError):
        HarmonicStructure.build(sg2_spec, -np.eye(3), np.full(3, 0.6))


def test_unrepresentable_extension_entry_is_a_degenerate_form(sg2_spec):
    # with D_12 = 0 the interior block of these conductances is singular;
    # the smallest subnormal makes it invertible, with extension
    # coefficients of order 2**1074, past the largest double
    D = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 5e-324], [1.0, 5e-324, 0.0]])
    with pytest.raises(DegenerateFormError, match="finite double"):
        HarmonicStructure.build(sg2_spec, D, np.full(3, 0.5))


def test_exact_elimination_stops_at_the_bit_limit(sg2_spec, monkeypatch):
    # each distinct weight's odd part multiplies into the exact denominators:
    # 210 cells with eleven weights pass the limit early in the elimination
    spec = generate_spec("gasket", 20)
    r = 0.2 * (1 + (np.arange(spec.letters) % 11) / 100)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"limit {harmonic.MAX_EXACT_BITS} bits"):
        HarmonicStructure.build(spec, default_boundary_matrix(3), r)
    assert time.perf_counter() - t0 < 10.0
    # the limit is read at call time; below it the same spec builds
    r = np.array([0.5, 0.6, 0.7])
    assert np.all(np.isfinite(extension_matrices(sg2_spec, UNIT_TRIANGLE_D, r)))
    monkeypatch.setattr(harmonic, "MAX_EXACT_BITS", 8)
    with pytest.raises(ResourceLimitError, match="limit 8 bits") as exc:
        extension_matrices(sg2_spec, UNIT_TRIANGLE_D, r)
    assert exc.value.attempted_size > 8 and exc.value.level == 1


# ---------------------------------------------------------------------------
# extension matrices and eigendata
# ---------------------------------------------------------------------------

def test_sg2_extension_matrix_values(sg2_hs):
    expected = np.array([[1.0, 0.0, 0.0], [0.4, 0.4, 0.2], [0.4, 0.2, 0.4]])
    assert np.max(np.abs(sg2_hs.A[0] - expected)) < 1e-12
    v0, _ = sg2_hs.eigen[0]
    assert np.max(np.abs(sg2_hs.A[0] @ v0 - 0.6 * v0)) < 1e-12


def test_extension_matrices_row_stochastic():
    for kind, param in [("gasket", 2), ("gasket", 3), ("polygasket", 6),
                        ("polygasket", 9)]:
        hs = HarmonicStructure.build(generate_spec(kind, param))
        ones = np.ones(3)
        for i in range(hs.spec.letters):
            assert np.max(np.abs(hs.A[i] @ ones - ones)) < 1e-12
            assert hs.A[i].min() > -1e-12 and hs.A[i].max() < 1 + 1e-12


def test_sg2_eigendata_values(sg2_hs):
    v0, u0 = sg2_hs.eigen[0]
    assert np.allclose(u0, [-2.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(v0, [0.0, 0.5, 0.5], atol=1e-12)  # (u0, (0,1,1)) = 2
    dv = UNIT_TRIANGLE_D @ (v0 * 2.0)
    assert np.allclose(dv, [2.0, -1.0, -1.0], atol=1e-12)
    for label, letter in enumerate(sg2_hs.spec.fixed_letters):
        v, u = sg2_hs.eigen[letter]
        assert abs(u @ np.ones(3)) < 1e-12
        assert abs(u @ v - 1.0) < 1e-12
        assert v[label] == 0.0
        assert v.min() >= 0.0


def test_eigen_residuals_all_builtins(sg2_hs, sg3_hs, hexa_hs, nona_hs):
    for hs in (sg2_hs, sg3_hs, hexa_hs, nona_hs):
        for letter in hs.spec.fixed_letters:
            v, u = hs.eigen[letter]
            ri = hs.r[letter]
            assert np.max(np.abs(hs.A[letter] @ v - ri * v)) < 1e-10
            assert np.max(np.abs(hs.A[letter].T @ u - ri * u)) < 1e-10


def random_boundary_matrix(data, q):
    """A finite ``q x q`` matrix of one drawn kind: asymmetric, symmetric,
    symmetric with zero row sums, or a zero-row-sum one with integer
    conductances."""
    kind = data.draw(st.sampled_from(["asymmetric", "symmetric", "zero-row-sum", "integer"]))
    entries = (st.integers(0, 3) if kind == "integer"
               else st.floats(-10, 10, allow_subnormal=False))
    M = data.draw(arrays(np.float64, (q, q), elements=entries))
    if kind == "asymmetric":
        return M
    S = np.triu(M, 1) + np.triu(M, 1).T
    if kind == "symmetric":
        return S + np.diag(np.diag(M))
    return S - np.diag(S.sum(axis=1))


@pytest.mark.parametrize("kind, param", [("gasket", 2), ("gasket", 3), ("polygasket", 6)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_build_random_matrix_and_weights(kind, param, data):
    # build either returns a structure or fails with the library's own
    # errors; numpy's LinAlgError is a ValueError too, so it is ruled out
    spec = generate_spec(kind, param)
    D = random_boundary_matrix(data, spec.boundary)
    weights = st.floats(-0.5, 1.5, allow_subnormal=False)
    r = data.draw(st.one_of(st.none(), weights,
                            arrays(np.float64, (spec.letters,), elements=weights)))
    try:
        hs = HarmonicStructure.build(spec, D, r)
    except (FractalDistError, ValueError) as exc:
        assert not isinstance(exc, np.linalg.LinAlgError), exc
        return
    assert np.all(np.isfinite(hs.A))
    try:
        check_structure_conditions(hs)
    except (FractalDistError, ValueError) as exc:
        assert not isinstance(exc, np.linalg.LinAlgError), exc


def test_broken_structure_error(sg2_spec):
    with pytest.raises(BrokenStructureError):
        # wrong weights: the eigenvalue of the true extension matrices is 3/5
        A = extension_matrices(sg2_spec, UNIT_TRIANGLE_D, np.full(3, 0.6))
        from fractaldist.harmonic import fixed_point_eigendata
        fixed_point_eigendata(sg2_spec, UNIT_TRIANGLE_D, np.full(3, 0.3), A, 0)


# ---------------------------------------------------------------------------
# harmonic evaluation
# ---------------------------------------------------------------------------

def test_harmonic_eval_basics(sg2_hs):
    alpha = np.array([0.0, 1.0, 1.0])
    assert harmonic_eval(sg2_hs, alpha, VertexRef((), 1)) == 1.0
    assert abs(harmonic_eval(sg2_hs, alpha, VertexRef((0,), 1)) - 0.6) < 1e-12
    const = np.full(3, 2.5)
    for word in [(), (0,), (1, 2), (2, 1, 0)]:
        for lab in range(3):
            assert abs(harmonic_eval(sg2_hs, const, VertexRef(word, lab)) - 2.5) < 1e-12


def test_harmonic_eval_consistent_across_glued_addresses(hexa_hs):
    rng = np.random.default_rng(3)
    spec = hexa_hs.spec
    alpha = rng.normal(size=3)
    for i, a, j, b in spec.glue:
        left = harmonic_eval(hexa_hs, alpha, VertexRef((i,), a))
        right = harmonic_eval(hexa_hs, alpha, VertexRef((j,), b))
        assert abs(left - right) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.integers(0, 2), max_size=6), st.integers(0, 2))
def test_maximum_principle(alpha, word, label):
    hs = _SG2_CACHE[0]
    a = np.asarray(alpha)
    val = harmonic_eval(hs, a, VertexRef(tuple(word), label))
    assert a.min() - 1e-9 <= val <= a.max() + 1e-9


_SG2_CACHE = [HarmonicStructure.build(generate_spec("gasket", 2), UNIT_TRIANGLE_D)]


def test_energy_identity_boundary_vs_extension(sg2_spec, sg2_hs):
    lg = build_level(sg2_spec, 1)
    M = assemble_discrete_form(sg2_hs.D, 1.0 / renorm_products(sg2_hs.r, lg.level), lg)
    rng = np.random.default_rng(4)
    for _ in range(10):
        alpha = rng.normal(size=3)
        u = np.empty(lg.num_vertices)
        for i, cell in enumerate(lg.cells):
            u[cell] = sg2_hs.A[i] @ alpha
        assert abs(alpha @ (-UNIT_TRIANGLE_D) @ alpha - u @ M @ u) < 1e-10


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

def test_conditions_pass_on_builtins(sg2_hs, hexa_hs, nona_hs, sg3_hs):
    for hs in (sg2_hs, hexa_hs, nona_hs, sg3_hs):
        rep = check_structure_conditions(hs)
        assert rep.ok, "\n".join(rep.lines())


def test_four_point_boundary_fails_b1():
    hs = HarmonicStructure.build(tetra_spec())
    rep = check_structure_conditions(hs)
    assert not rep["boundary_is_three_points"].passed
    assert not rep.ok


def test_connected_without_detects_cut_point(sg2_spec):
    # cell 2 hangs on boundary point 0 alone, so deleting that point cuts it off
    cut = FractalSpec("cut", 3, 3, (0, 1, 2), ((0, 1, 1, 0), (0, 0, 2, 0)))
    for spec, expected in [(cut, [False, True, True]), (sg2_spec, [True, True, True])]:
        lg = build_level(spec, 3)
        assert [_connected_without(lg, vid) for vid in lg.boundary_ids] == expected


# ---------------------------------------------------------------------------
# convergence of rescaled iterates (diagnostic)
# ---------------------------------------------------------------------------

def test_rescaled_iterates_converge(sg2_hs):
    q = 3
    P = np.eye(q) - np.ones((q, q)) / q
    rng = np.random.default_rng(5)
    letter = 0
    v, u = sg2_hs.eigen[letter]
    ri = sg2_hs.r[letter]
    Ai = sg2_hs.A[letter]
    for _ in range(5):
        alpha = rng.normal(size=q)
        alpha /= np.linalg.norm(P @ alpha)
        target = (u @ alpha) * (P @ v)
        errors = []
        vec = alpha.copy()
        for n in range(1, 41):
            vec = Ai @ vec
            errors.append(np.linalg.norm(P @ vec / ri ** n - target))
        below = [e <= 1e-6 for e in errors]
        assert any(below), "no error dropped below 1e-6 by n=40"
        first = below.index(True)
        for s in range(first):
            assert errors[s + 1] <= errors[s] * (1 + 1e-9)


# ---------------------------------------------------------------------------
# separation constants
# ---------------------------------------------------------------------------

def separation_scan_oracle(hs, li, lj, points=100_001):
    _, ui = hs.eigen[li]
    _, uj = hs.eigen[lj]
    b1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    b2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
    th = np.linspace(0.0, np.pi, points)
    uu = np.outer(np.cos(th), b1) + np.outer(np.sin(th), b2)
    return float(np.maximum(np.abs(uu @ ui), np.abs(uu @ uj)).min())


def test_separation_constant_sg2(sg2_hs):
    val = separation_constant(sg2_hs, 0, 1)
    assert abs(val - np.sqrt(1.5)) < 1e-9
    # the scan minimum can only overshoot, by at most slope * grid spacing
    scan = separation_scan_oracle(sg2_hs, 0, 1)
    assert val <= scan + 1e-12
    assert scan - val < 1e-4


def test_separation_symmetry_and_positivity(sg2_hs, hexa_hs, nona_hs, sg3_hs):
    for hs in (sg2_hs, hexa_hs, nona_hs, sg3_hs):
        letters = hs.spec.fixed_letters
        for s in range(3):
            for t in range(s + 1, 3):
                d1 = separation_constant(hs, letters[s], letters[t])
                d2 = separation_constant(hs, letters[t], letters[s])
                assert d1 > 0
                assert abs(d1 - d2) < 1e-12
                scan = separation_scan_oracle(hs, letters[s], letters[t])
                assert d1 <= scan + 1e-12
                assert scan - d1 < 1e-4 * max(1.0, d1)


def test_separation_homogeneity(sg2_spec):
    base = HarmonicStructure.build(sg2_spec, UNIT_TRIANGLE_D, np.full(3, 0.6))
    scaled = HarmonicStructure.build(sg2_spec, 2.5 * UNIT_TRIANGLE_D, np.full(3, 0.6))
    d1 = separation_constant(base, 0, 1)
    d2 = separation_constant(scaled, 0, 1)
    assert abs(d2 - 2.5 * d1) < 1e-10
