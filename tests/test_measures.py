"""Cell measures: additivity, trace coefficients, domination slack."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fractaldist import measures
from fractaldist.harmonic import check_dirichlet_matrix
from fractaldist.measures import (
    CellMeasureTable,
    HarmonicTuple,
    cell_boundary_values,
    cell_energies,
    cell_form,
    cell_measure_table,
    check_domination,
    child_values,
    default_tuple,
    tuple_cell_measures,
)
from fractaldist.structure import VertexRef, build_level, decode_word, encode_word

from conftest import UNIT_TRIANGLE_D, builtin_hs
from oracles import harmonic_cell_measure, piecewise_cell_measure, trace_coefficients


def random_tuple(rng, n_components=2):
    return HarmonicTuple(rng.normal(size=(n_components, 3)))


def test_constant_tuple_measures_vanish(sg2_hs):
    with pytest.warns(UserWarning):
        h = HarmonicTuple(np.ones((1, 3)))
    for word in [(), (0,), (1, 2), (0, 1, 2)]:
        assert harmonic_cell_measure(sg2_hs, h, word) == 0.0


def exact_form(D, rw, X, Y):
    """``(2 / rw) * sum_j (-D X[:, j], Y[:, j])`` in rational arithmetic, for
    one cell's ``[q, N]`` corner values, every float taken as exact."""
    q, N = len(X), len(X[0])
    total = sum(-Fraction(D[a][b]) * X[a][j] * Y[b][j]
                for a in range(q) for b in range(q) for j in range(N))
    return 2 * total / Fraction(rw)


def test_tuple_measures_match_exact_values_on_small_cells(nona_hs):
    # a deep cell's measure is O(diameter**2) while its corner values are
    # O(1): the 50 smallest cells of nonagasket level 6, against the values
    # of the float A_i, r and D evaluated exactly
    hs, n = nona_hs, 6
    alphas = np.array([[1.0, 0.0, -1.0], [0.5, -1.0, 0.5]])
    mu = tuple_cell_measures(hs, HarmonicTuple(alphas), n)
    A = [[[Fraction(x) for x in row] for row in Ai] for Ai in hs.A.tolist()]
    for code in np.argsort(mu)[:50].tolist():
        word = decode_word(code, n, hs.spec.letters)
        X = [[Fraction(x) for x in row] for row in alphas.T.tolist()]  # [q, N]
        rw = Fraction(1)
        for letter in word:
            X = [[sum(A[letter][a][b] * X[b][j] for b in range(len(X)))
                  for j in range(len(X[0]))] for a in range(len(X))]
            rw *= Fraction(hs.r[letter])
        exact = exact_form(hs.D.tolist(), rw, X, X)
        assert abs(Fraction(mu[code]) - exact) <= Fraction(1e-9) * exact, word


@settings(max_examples=100)
@given(data=st.data())
def test_cell_form_matches_exact_quadratic_form(data):
    # pair form of any valid D: (-D X, Y) = sum_{a<b} D_ab (X_a - X_b)(Y_a - Y_b)
    q = data.draw(st.integers(3, 6))
    cells, N = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    a, b = np.triu_indices(q, 1)
    # eighths keep the row sums exact, so the constants are D's exact kernel
    off = data.draw(arrays(np.float64, len(a), elements=st.integers(0, 40).map(lambda i: i / 8)))
    D = np.zeros((q, q))
    D[a, b] = D[b, a] = off
    D -= np.diag(D.sum(axis=1))
    assume(check_dirichlet_matrix(D).ok)
    rw = data.draw(arrays(np.float64, cells, elements=st.floats(1e-6, 1.0)))
    # no value so small that its products underflow
    values = arrays(np.float64, (cells, q, N),
                    elements=st.integers(-2 ** 30, 2 ** 30).map(lambda i: i / 2 ** 30))
    # corner values close together, as on small cells, make a quadratic form
    # in the raw values cancel
    offset = data.draw(st.floats(-10, 10))
    spread = data.draw(st.sampled_from([1.0, 1e-4, 1e-8]))
    X = offset + spread * data.draw(values)
    Y = offset + spread * data.draw(values)
    energy, pairing = cell_form(D, rw, X).tolist(), cell_form(D, rw, X, Y).tolist()
    for c in range(cells):
        Xc = [[Fraction(x) for x in row] for row in X[c].tolist()]
        Yc = [[Fraction(x) for x in row] for row in Y[c].tolist()]
        xx, yy = exact_form(D.tolist(), rw[c], Xc, Xc), exact_form(D.tolist(), rw[c], Yc, Yc)
        assert abs(Fraction(energy[c]) - xx) <= Fraction(1e-12) * xx
        # a pairing is bounded by the geometric mean of the two energies
        xy = exact_form(D.tolist(), rw[c], Xc, Yc)
        assert (Fraction(pairing[c]) - xy) ** 2 <= Fraction(1e-24) * xx * yy


def test_cell_form_independent_of_block(monkeypatch):
    # blocks of 7 cells put seams inside the table; every cell keeps its bits
    rng = np.random.default_rng(50)
    X, Y = rng.normal(size=(2, 1000, 3, 2))
    rw = rng.uniform(0.1, 1.0, size=1000)
    whole = [cell_form(UNIT_TRIANGLE_D, rw, X), cell_form(UNIT_TRIANGLE_D, rw, X, Y)]
    monkeypatch.setattr(measures, "_STREAM_BLOCK_CELLS", 7)
    assert np.array_equal(cell_form(UNIT_TRIANGLE_D, rw, X), whole[0])
    assert np.array_equal(cell_form(UNIT_TRIANGLE_D, rw, X, Y), whole[1])


def test_whole_set_measure_single_component(sg2_hs):
    h = HarmonicTuple(np.array([[1.0, 0.0, 0.0]]))
    # boundary energy of (1,0,0) is 2, measure of the whole set is twice that
    assert abs(harmonic_cell_measure(sg2_hs, h, ()) - 4.0) < 1e-14


def test_additivity_brute_force(sg2_hs):
    rng = np.random.default_rng(10)
    spec = sg2_hs.spec
    for _ in range(5):
        h = random_tuple(rng)
        words = [(), (0,), (2,), (0, 1), (1, 2, 0)]
        for w in words:
            total = harmonic_cell_measure(sg2_hs, h, w)
            parts = sum(harmonic_cell_measure(sg2_hs, h, w + (i,))
                        for i in range(spec.letters))
            scale = harmonic_cell_measure(sg2_hs, h, ())
            assert abs(total - parts) <= 1e-10 * scale


def test_additivity_deep_tables(sg2_hs, hexa_hs):
    # each depth is computed directly from its own cell boundary values, so
    # parent-vs-children comparisons test the one-step measure identity
    rng = np.random.default_rng(11)
    for hs, depth in [(sg2_hs, 8), (hexa_hs, 5)]:
        h = random_tuple(rng)
        k = hs.spec.letters
        per_level = [tuple_cell_measures(hs, h, m) for m in range(depth + 1)]
        scale = float(per_level[0][0])
        for m in range(depth):
            children = per_level[m + 1].reshape(k ** m, k).sum(axis=1)
            assert np.max(np.abs(per_level[m] - children)) <= 1e-10 * scale
        assert all(v.min() >= -1e-12 * scale for v in per_level)


@pytest.mark.parametrize("k", range(2, 11))
def test_subtree_sums_add_children_left_to_right(k):
    rng = np.random.default_rng(k)
    size = k ** int(np.log(20000) / np.log(k))
    # signed values over a wide range of exponents, zeros of both signs,
    # subnormals, children that cancel and whole subtrees of -0.0
    deepest = rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-40, 40, size))
    deepest[rng.random(size) < 0.2] = 0.0
    deepest[rng.random(size) < 0.1] = -0.0
    tiny = rng.random(size) < 0.05
    deepest[tiny] = 5e-324 * rng.integers(-1000, 1000, tiny.sum())
    deepest[1::k] = np.where(rng.random(size // k) < 0.1, -deepest[0::k], deepest[1::k])
    for j in rng.choice(size // k, size // k // 10, replace=False).tolist():
        deepest[j * k:(j + 1) * k] = -0.0
    table = CellMeasureTable.from_deepest(k, deepest)
    assert table.values[-1] is deepest and table.values[0].size == 1
    v = deepest
    for depth in reversed(range(len(table.values) - 1)):
        total = np.zeros(v.size // k)  # a sum from +0.0, one child at a time
        for j in range(k):
            total += v[j::k]
        assert table.values[depth].tobytes() == total.tobytes(), depth
        if k <= 7:  # numpy's own order below 8 terms
            assert total.tobytes() == v.reshape(-1, k).sum(axis=1).tobytes(), depth
        v = total


def test_measure_table_consistent_with_direct_values(sg2_hs):
    rng = np.random.default_rng(15)
    h = random_tuple(rng)
    table = cell_measure_table(sg2_hs, h, 4)
    scale = table.value(())
    for word in [(), (0,), (1, 2), (2, 0, 1), (0, 0, 0, 0)]:
        assert abs(table.value(word) - harmonic_cell_measure(sg2_hs, h, word)) \
            <= 1e-10 * scale


def test_scaling_covariance(sg2_hs):
    rng = np.random.default_rng(12)
    h = random_tuple(rng)
    c = 3.25
    h_scaled = HarmonicTuple(c * h.alphas)
    for w in [(), (1,), (0, 2)]:
        assert np.isclose(harmonic_cell_measure(sg2_hs, h_scaled, w),
                          c * c * harmonic_cell_measure(sg2_hs, h, w), rtol=1e-12)


def test_piecewise_matches_harmonic_on_restrictions(sg2_ctx):
    hs = sg2_ctx.hs
    n = 4
    lg = sg2_ctx.level(n).lg
    coords = sg2_ctx.coords(n)
    scale = harmonic_cell_measure(hs, sg2_ctx.h, ())
    for j in range(sg2_ctx.n_components):
        h_j = HarmonicTuple(sg2_ctx.h.alphas[j:j + 1])
        f = coords[:, j]
        for w in [(), (0,), (1, 2), (2, 2, 0), (0, 1, 2, 1)]:
            direct = harmonic_cell_measure(hs, h_j, w)
            interp = piecewise_cell_measure(hs, lg, f, w)
            assert abs(direct - interp) <= 1e-10 * scale


def test_piecewise_constant_zero(sg2_ctx):
    lg = sg2_ctx.level(3).lg
    f = np.full(lg.num_vertices, 1.23)
    assert piecewise_cell_measure(sg2_ctx.hs, lg, f, ()) < 1e-12


def test_piecewise_rejects_deep_word(sg2_ctx):
    lg = sg2_ctx.level(2).lg
    with pytest.raises(ValueError):
        piecewise_cell_measure(sg2_ctx.hs, lg, np.zeros(lg.num_vertices), (0, 1, 2))


def test_words_deeper_than_the_table_are_rejected(sg2_ctx):
    # unchecked, both tables raised a bare IndexError from their depth list
    hs, n = sg2_ctx.hs, 2
    lg = sg2_ctx.level(n).lg
    f = np.arange(lg.num_vertices, dtype=float)
    slack = check_domination(hs, lg, f, tuple_cell_measures(hs, sg2_ctx.h, n))
    for table in (cell_measure_table(hs, sg2_ctx.h, n), slack):
        with pytest.raises(ValueError, match="deeper than depth 2"):
            table.value((0, 0, 0))
    # a piecewise measure is the entry of the cell energies' own table
    energies = CellMeasureTable.from_deepest(3, cell_energies(hs, lg, f))
    for word in [(), (0,), (1, 2)]:
        assert piecewise_cell_measure(hs, lg, f, word) == energies.value(word)


@pytest.mark.parametrize("word", [(0, 5), (0, -1), (3,)])
def test_out_of_range_letters_are_rejected(sg2_ctx, word):
    # unchecked, (0, 5) read cell (1, 2), (0, -1) read cell (2, 2), and a
    # piecewise measure of (3,) summed no cell and read 0.0
    hs, n = sg2_ctx.hs, 2
    lg = sg2_ctx.level(n).lg
    f = np.arange(lg.num_vertices, dtype=float)
    table = cell_measure_table(hs, sg2_ctx.h, n)
    slack = check_domination(hs, lg, f, tuple_cell_measures(hs, sg2_ctx.h, n))
    with pytest.raises(ValueError, match=r"not in range\(3\)"):
        encode_word(word, 3)
    for read in (table.value, slack.value, lambda w: piecewise_cell_measure(hs, lg, f, w)):
        with pytest.raises(ValueError):
            read(word)


def test_reharmonization_decreases_cell_measures(sg2_ctx):
    # replacing vertex values by the coarse-level minimizer cannot increase
    # any coarse cell's measure
    hs = sg2_ctx.hs
    rng = np.random.default_rng(13)
    n, m = 5, 3
    fine = sg2_ctx.level(n).lg
    coarse = sg2_ctx.level(m).lg
    emb = coarse.embed_into(fine)
    for _ in range(5):
        f = rng.normal(size=fine.num_vertices)
        f_coarse = f[emb]
        for w in [(), (0,), (1, 0), (2, 1, 0)]:
            fine_val = piecewise_cell_measure(hs, fine, f, w)
            coarse_val = piecewise_cell_measure(hs, coarse, f_coarse, w)
            assert coarse_val <= fine_val + 1e-10


def test_trace_coefficients_values(sg2_hs):
    b = trace_coefficients(sg2_hs, ())
    assert np.allclose(b - np.diag(np.diag(b)), 2.0 * (np.ones((3, 3)) - np.eye(3)))
    assert np.allclose(np.diag(b), 0.0)
    b1 = trace_coefficients(sg2_hs, (0,))
    assert np.allclose(b1[0, 1], 2.0 / 0.6)
    assert np.allclose(b1, b1.T)
    assert (b1 - np.diag(np.diag(b1))).min() >= 0.0


def test_trace_coefficients_reconstruct_cell_measure(sg2_ctx):
    hs = sg2_ctx.hs
    rng = np.random.default_rng(14)
    n = 3
    lg = sg2_ctx.level(n).lg
    f = rng.normal(size=lg.num_vertices)
    for code in [0, 5, 11, 26]:
        word = lg.cell_word(code)
        b = trace_coefficients(hs, word)
        vals = f[lg.cells[code]]
        quad = 0.5 * sum(b[p, q] * (vals[p] - vals[q]) ** 2
                         for p in range(3) for q in range(3) if p != q)
        assert abs(quad - piecewise_cell_measure(hs, lg, f, word)) < 1e-12


def test_domination_equality_case(sg2_ctx):
    hs = sg2_ctx.hs
    n = 4
    lg = sg2_ctx.level(n).lg
    h1 = HarmonicTuple(sg2_ctx.h.alphas[:1])
    f = sg2_ctx.coords(n)[:, 0]
    table = check_domination(hs, lg, f, tuple_cell_measures(hs, h1, n))
    assert table.feasible
    assert abs(table.min_slack) <= 1e-12 * table.scale
    assert table.checked_depth == n


def test_domination_quadratic_scaling_infeasible(sg2_ctx):
    hs = sg2_ctx.hs
    n = 3
    lg = sg2_ctx.level(n).lg
    h1 = HarmonicTuple(sg2_ctx.h.alphas[:1])
    f = 2.0 * sg2_ctx.coords(n)[:, 0]
    table = check_domination(hs, lg, f, tuple_cell_measures(hs, h1, n))
    assert not table.feasible
    # doubling f quadruples every cell measure: slack = -3 * measure everywhere
    deepest = tuple_cell_measures(hs, h1, n)
    assert np.allclose(table.slack[n], -3.0 * deepest, rtol=1e-12)
    assert np.isclose(table.min_slack, -3.0 * table.scale, rtol=1e-12)


def test_slack_csv_headers(sg2_ctx):
    lg = sg2_ctx.level(1).lg
    f = np.zeros(lg.num_vertices)
    table = check_domination(sg2_ctx.hs, lg, f, tuple_cell_measures(sg2_ctx.hs, sg2_ctx.h, 1))
    text = "".join(table.to_csv())
    lines = text.strip().split("\n")
    assert lines[0] == "word,depth,slack"
    assert lines[1].startswith("-,0,")
    assert len(lines) == 1 + 1 + 3


def test_cell_boundary_values_layout(sg2_ctx):
    hs = sg2_ctx.hs
    C = cell_boundary_values(hs, sg2_ctx.h, 2)
    lg = sg2_ctx.level(2).lg
    # C[cell, corner, component] must equal the harmonic value at that corner
    from oracles import harmonic_eval
    for code in [0, 3, 8]:
        word = lg.cell_word(code)
        for corner in range(3):
            for j in range(sg2_ctx.n_components):
                expected = harmonic_eval(hs, sg2_ctx.h.alphas[j],
                                         VertexRef(word, corner))
                assert abs(C[code, corner, j] - expected) < 1e-12


BUILTIN_HS = ["sg2_hs", "sg3_hs", "hexa_hs", "nona_hs"]


@pytest.mark.parametrize("n_components", [1, 2, 3])
@pytest.mark.parametrize("fixture", BUILTIN_HS)
def test_child_values_independent_of_block(request, fixture, n_components):
    # one-cell blocks of a one-component tuple expand a single column at
    # their first letter, the whole level many: the bits must still agree
    hs = request.getfixturevalue(fixture)
    k = hs.spec.letters
    rng = np.random.default_rng(30 + n_components)
    h = HarmonicTuple(rng.normal(size=(n_components, hs.spec.boundary)))
    for p, s in [(0, 3), (1, 2), (2, 1)]:
        prefixes = cell_boundary_values(hs, h, p)
        whole = child_values(hs, prefixes, s)
        assert np.array_equal(whole, cell_boundary_values(hs, h, p + s))
        for size in (1, 2, k):
            parts = [child_values(hs, prefixes[i:i + size], s)
                     for i in range(0, len(prefixes), size)]
            assert np.array_equal(np.concatenate(parts), whole), (p, size)


def per_letter_child_values(hs, C, s):
    """Reference for child_values: one product ``A_i @ T`` per letter over
    the cells-last table, scattered into slot ``i`` of the output."""
    k = hs.spec.letters
    q, N = C.shape[1], C.shape[2]
    T = np.ascontiguousarray(C.transpose(1, 2, 0))
    for _ in range(s):
        P = T.shape[2]
        flat = T.reshape(q, N * P)
        if N * P == 1:
            flat = np.repeat(flat, 2, axis=1)
        out = np.empty((q, N, P, k))
        for i in range(k):
            out[..., i] = (hs.A[i] @ flat)[:, :N * P].reshape(q, N, P)
        T = out.reshape(q, N, P * k)
    return T.transpose(2, 0, 1)


@pytest.mark.parametrize("n_components", [1, 2, 3])
@pytest.mark.parametrize("name", ["gasket:2", "gasket:3", "gasket:4", "polygasket:6",
                                  "polygasket:9"])
def test_child_values_matches_per_letter_products(name, n_components):
    # from one cell the first step multiplies a single row, which numpy
    # would run as a vector-matrix product if it were not padded
    hs = builtin_hs(name)
    rng = np.random.default_rng(50 + n_components)
    for cells, depth in ((1, 4), (2, 3), (37, 2)):
        C = rng.normal(size=(cells, hs.spec.boundary, n_components))
        for s in range(depth + 1):
            assert np.array_equal(child_values(hs, C, s),
                                  per_letter_child_values(hs, C, s)), (cells, s)


@pytest.mark.parametrize("fixture", BUILTIN_HS)
def test_cell_boundary_values_match_values_on_cell(request, fixture):
    hs = request.getfixturevalue(fixture)
    k = hs.spec.letters
    rng = np.random.default_rng(40)
    for n_components in (1, 2, 3):
        h = HarmonicTuple(rng.normal(size=(n_components, hs.spec.boundary)))
        for n in (0, 1, 2, 3, 5):
            C = cell_boundary_values(hs, h, n)
            assert C.shape == (k ** n, hs.spec.boundary, n_components)
            codes = {0, k ** n - 1, *rng.integers(0, k ** n, size=6).tolist()}
            for code in sorted(codes):
                expected = hs.values_on_cell(decode_word(code, n, k), h.alphas.T)
                assert np.max(np.abs(C[code] - expected)) < 1e-12, (n, code)


def test_default_tuple_orthonormal(sg2_hs, hexa_hs):
    for hs in (sg2_hs, hexa_hs):
        h = default_tuple(hs)
        assert h.n_components == 2
        for j in range(2):
            assert abs(h.alphas[j].sum()) < 1e-12
            for l in range(2):
                expect = 1.0 if j == l else 0.0
                assert abs(hs.energy0(h.alphas[j], h.alphas[l]) - expect) < 1e-12
