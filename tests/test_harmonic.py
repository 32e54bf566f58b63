"""Boundary form checks, regularity, extension matrices, eigendata."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldist.errors import (
    BrokenStructureError,
    DegenerateFormError,
    NoEqualWeightStructureError,
)
from fractaldist.harmonic import (
    HarmonicStructure,
    assemble_discrete_form,
    check_dirichlet_matrix,
    check_regularity,
    check_structure_conditions,
    default_boundary_matrix,
    extension_matrices,
    _connected_without,
    harmonic_eval,
    renorm_products,
    separation_constant,
    solve_equal_renormalization,
    trace_form,
)
from fractaldist.structure import FractalSpec, VertexRef, build_level, generate_spec

from conftest import UNIT_TRIANGLE_D


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
# discrete forms and the traced boundary form
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


def sg2_extension_oracle(alpha):
    """Closed-form one-level minimizer on the three-cell gasket: each midpoint
    takes (2 * adjacent + 2 * adjacent + opposite) / 5."""
    a0, a1, a2 = alpha
    return {
        (0, 1): (2 * a0 + 2 * a1 + a2) / 5,
        (0, 2): (2 * a0 + 2 * a2 + a1) / 5,
        (1, 2): (2 * a1 + 2 * a2 + a0) / 5,
    }


def test_trace_identity_against_closed_form(sg2_spec):
    lg = build_level(sg2_spec, 1)
    M = assemble_discrete_form(UNIT_TRIANGLE_D, np.full(3, 1 / Fraction(3, 5)), lg)
    traced, extend = trace_form(M, np.array(lg.boundary_ids))
    assert np.max(np.abs(traced - (-UNIT_TRIANGLE_D))) < 1e-12
    rng = np.random.default_rng(2)
    alpha = rng.normal(size=3)
    u = extend(alpha)
    oracle = sg2_extension_oracle(alpha)
    for (a, b), val in oracle.items():
        mid = lg.vertex_id(VertexRef((a,), b))
        assert np.isclose(u[mid], val, atol=1e-12)
    # the traced value at the boundary equals the full form at the minimizer
    assert np.isclose(alpha @ traced @ alpha, u @ M @ u, atol=1e-12)


def test_trace_keep_all_is_identity(sg2_spec, sg2_hs):
    lg = build_level(sg2_spec, 1)
    M = assemble_discrete_form(sg2_hs.D, np.ones(3), lg)
    traced, extend = trace_form(M, np.arange(lg.num_vertices))
    assert np.max(np.abs(traced - M.toarray())) < 1e-14
    v = np.arange(float(lg.num_vertices))
    assert np.array_equal(extend(v), v)


def test_trace_degenerate_block():
    import scipy.sparse as sp
    M = sp.csr_matrix(np.zeros((3, 3)))
    with pytest.raises(DegenerateFormError):
        trace_form(M, np.array([0]))


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
    _, extend = trace_form(M, np.array(lg.boundary_ids))
    rng = np.random.default_rng(4)
    for _ in range(10):
        alpha = rng.normal(size=3)
        u = extend(alpha)
        assert abs(alpha @ (-UNIT_TRIANGLE_D) @ alpha - u @ M @ u) < 1e-10


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

def test_conditions_pass_on_builtins(sg2_hs, hexa_hs, nona_hs, sg3_hs):
    for hs in (sg2_hs, hexa_hs, nona_hs, sg3_hs):
        rep = check_structure_conditions(hs)
        assert rep.ok, "\n".join(rep.lines())


def tetra_spec():
    rules = tuple((i, a, a, i) for i in range(4) for a in range(i + 1, 4))
    return FractalSpec("tetra", 4, 4, (0, 1, 2, 3), rules)


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
