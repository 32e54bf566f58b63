"""Combinatorics of the builtin generators, level builds, and addressing."""

import itertools
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldist import metrics, structure
from fractaldist.errors import (
    FractalDistError,
    InvalidParameterError,
    NoEqualWeightStructureError,
    ResourceLimitError,
    SpecValidationError,
)
from fractaldist.harmonic import HarmonicStructure
from fractaldist.measures import SlackTable, cell_measure_table, default_tuple
from fractaldist.structure import (
    FractalSpec,
    VertexRef,
    _word_to_str,
    build_level,
    csv_rows,
    decode_word,
    encode_word,
    float_chars,
    generate_spec,
    int_chars,
    lift,
    reduction_schedule,
    row_blocks,
    vertex_rows,
    word_column,
)

from conftest import TWO_CORNER_FIELDS, chain_spec, shortest_pair_weights, tetra_spec
from oracles import canonicalize


# ---------------------------------------------------------------------------
# oracle: independent re-derivation of gasket contacts in exact coordinates
# ---------------------------------------------------------------------------

def gasket_contacts_oracle(side):
    """Enumerate level-1 upward-triangle contacts with exact rational
    barycentric coordinates and group addresses by position."""
    cells = []
    for a in range(side):
        for b in range(side - a):
            c = side - 1 - a - b
            corners = [
                (Fraction(a + 1, side), Fraction(b, side), Fraction(c, side)),
                (Fraction(a, side), Fraction(b + 1, side), Fraction(c, side)),
                (Fraction(a, side), Fraction(b, side), Fraction(c + 1, side)),
            ]
            cells.append(corners)
    groups = {}
    for i, corners in enumerate(cells):
        for lab, pt in enumerate(corners):
            groups.setdefault(pt, []).append((i, lab))
    rules = set()
    for addrs in groups.values():
        for (i, a), (j, b) in itertools.combinations(addrs, 2):
            key = ((i, a), (j, b)) if (i, a) < (j, b) else ((j, b), (i, a))
            rules.add(key)
    return len(cells), rules


def normalized_rules(spec):
    out = set()
    for i, a, j, b in spec.glue:
        key = ((i, a), (j, b)) if (i, a) < (j, b) else ((j, b), (i, a))
        out.add(key)
    return out


def relabel_cells_by_corner_sets(spec, side):
    """Map generator cell indices to oracle cell indices via exact geometry."""
    # the generator sorts origins by (-a, -b); the oracle iterates a then b
    origins_gen = sorted(((a, b) for a in range(side) for b in range(side - a)),
                         key=lambda t: (-t[0], -t[1]))
    origins_oracle = [(a, b) for a in range(side) for b in range(side - a)]
    return {g: origins_oracle.index(o) for g, o in enumerate(origins_gen)}


@pytest.mark.parametrize("side,k_expected,glue_expected",
                         [(2, 3, 3), (3, 6, 9), (4, 10, 18), (5, 15, 30), (9, 45, 108)])
def test_gasket_spec_against_exact_oracle(side, k_expected, glue_expected):
    spec = generate_spec("gasket", side)
    assert spec.letters == k_expected == side * (side + 1) // 2
    assert spec.boundary == 3
    k_oracle, rules_oracle = gasket_contacts_oracle(side)
    assert k_oracle == spec.letters
    remap = relabel_cells_by_corner_sets(spec, side)
    remapped = set()
    for (i, a), (j, b) in normalized_rules(spec):
        ri, rj = remap[i], remap[j]
        key = ((ri, a), (rj, b)) if (ri, a) < (rj, b) else ((rj, b), (ri, a))
        remapped.add(key)
    assert remapped == rules_oracle
    assert len(spec.glue) == glue_expected


def test_polygasket_specs():
    hexa = generate_spec("polygasket", 6)
    assert hexa.letters == 6 and hexa.boundary == 3
    assert hexa.fixed_letters == (0, 2, 4)
    assert hexa.glue == ((0, 1, 1, 2), (0, 2, 5, 1), (1, 1, 2, 0), (2, 2, 3, 2),
                         (3, 1, 4, 1), (4, 0, 5, 2))
    nona = generate_spec("polygasket", 9)
    assert nona.letters == 9 and nona.boundary == 3
    assert nona.fixed_letters == (0, 3, 6)
    assert nona.glue == ((0, 1, 1, 2), (0, 2, 8, 1), (1, 1, 2, 2), (2, 1, 3, 0), (3, 2, 4, 2),
                         (4, 1, 5, 2), (5, 1, 6, 1), (6, 0, 7, 2), (7, 1, 8, 2))


@pytest.mark.parametrize("cells, boundary", [
    ([(0, 1), (1, 2)], [0, 3]),
    ([(0, 1), (0, 2)], [0, 2]),
    ([(1, 0), (2, 3)], [0, 3]),
], ids=["no-corner", "two-owners", "other-corner"])
def test_spec_from_corners_needs_one_owner_per_boundary_point(cells, boundary):
    # boundary point a must be corner a of exactly one cell: point 3 is no
    # corner, point 0 is corner 0 of two cells, point 0 is corner 1, not 0
    with pytest.raises(InvalidParameterError, match="boundary point"):
        structure._spec_from_corners("chain", cells, boundary, lambda pt: pt)


def test_generate_spec_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        generate_spec("gasket", 1)
    with pytest.raises(InvalidParameterError):
        generate_spec("polygasket", 7)
    with pytest.raises(InvalidParameterError):
        generate_spec("carpet", 3)


# ---------------------------------------------------------------------------
# oracle: brute-force address enumeration + union-find
# ---------------------------------------------------------------------------

def brute_force_address_classes(spec, n):
    """Group the level-n addresses ``word + (label,)`` into vertices by
    enumerating them all and applying the glue identifications inside every
    coarser cell.  Each class lists its addresses in lexicographic order."""
    k, q = spec.letters, spec.boundary
    addresses = [w + (a,) for w in itertools.product(range(k), repeat=n)
                 for a in range(q)]
    index = {addr: t for t, addr in enumerate(addresses)}
    parent = list(range(len(addresses)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in range(1, n + 1):
        for u in itertools.product(range(k), repeat=m - 1):
            for i, a, j, b in spec.glue:
                left = u + (i,) + (spec.fixed_letters[a],) * (n - m) + (a,)
                right = u + (j,) + (spec.fixed_letters[b],) * (n - m) + (b,)
                ra, rb = find(index[left]), find(index[right])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for t, addr in enumerate(addresses):
        classes.setdefault(find(t), []).append(addr)
    return list(classes.values())


@pytest.mark.parametrize("kind,param,counts", [
    ("gasket", 2, [3, 6, 15, 42]),
    ("gasket", 3, [3, 10, 52]),
    ("polygasket", 6, [3, 12, 66]),
    ("polygasket", 9, [3, 18, 153]),
])
def test_vertex_counts_match_brute_force(kind, param, counts):
    spec = generate_spec(kind, param)
    for n, expected in enumerate(counts):
        assert build_level(spec, n).num_vertices == expected
        assert len(brute_force_address_classes(spec, n)) == expected
    for n in range(len(counts), 5):  # brute-force parity up to level 4
        assert build_level(spec, n).num_vertices == len(brute_force_address_classes(spec, n))


def minimum_at_addresses(lg):
    """Reference for LevelGraph.addresses: each id's first position in
    cells.ravel(), by an unbuffered minimum over every address."""
    flat = lg.cells.ravel()
    first = np.full(lg.num_vertices, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size, dtype=np.int64))
    return np.divmod(first, lg.spec.boundary)


@pytest.mark.parametrize("kind,param,n", [
    ("gasket", 2, 10),
    ("gasket", 3, 6),
    ("polygasket", 6, 5),
    ("polygasket", 9, 4),
])
def test_deep_levels_keep_the_builder_invariants(kind, param, n):
    # past the brute-force oracle's reach: the invariants that addresses,
    # embeddings and the deterministic ids rely on
    spec = generate_spec(kind, param)
    lg = build_level(spec, n)
    assert lg.cells.dtype == np.int32 and lg.cells.flags.c_contiguous
    assert lg.cells.shape == (spec.letters ** n, spec.boundary)
    # ids first appear in cells.ravel() in increasing order
    ids, first = np.unique(lg.cells.ravel(), return_index=True)
    assert np.array_equal(ids, np.arange(lg.num_vertices))
    assert np.all(np.diff(first) > 0)
    for got, ref in zip(lg.addresses, minimum_at_addresses(lg)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    if (kind, param) == ("gasket", 2):
        assert lg.num_vertices == (3 ** (n + 1) + 3) // 2
    assert lg.boundary_ids == [lg.vertex_id(VertexRef((), a)) for a in range(spec.boundary)]
    # every corner of every level-2 cell lands where its lift does
    coarse = build_level(spec, 2)
    emb = coarse.embed_into(lg)
    for code in range(coarse.num_cells):
        word = coarse.cell_word(code)
        for a in range(spec.boundary):
            assert emb[coarse.cells[code, a]] == lg.vertex_id(lift(spec, VertexRef(word, a), n))


@st.composite
def glue_spec_fields(draw):
    """Spec-file fields with 2-5 cells and 2-4 labels: a random tree of glue
    rules joining every cell to an earlier one, plus up to k random rules
    between distinct cells.  Some are invalid (a fixed letter out of range,
    coincident corners or boundary points at level 1)."""
    k = draw(st.integers(2, 5))
    q = draw(st.integers(2, 4))
    fixed = draw(st.permutations(range(max(k, q))))[:q]
    corner = st.integers(0, q - 1)
    glue = [[draw(st.integers(0, c - 1)), draw(corner), c, draw(corner)]
            for c in range(1, k)]
    for _ in range(draw(st.integers(0, k))):
        i = draw(st.integers(0, k - 1))
        glue.append([i, draw(corner), (i + draw(st.integers(1, k - 1))) % k, draw(corner)])
    return {"name": "fuzz", "letters": k, "boundary": q,
            "fixed_letters": list(fixed), "glue": glue}


@given(glue_spec_fields(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_level_builder_matches_brute_force_on_random_specs(fields, n, seed):
    try:
        spec = FractalSpec.from_json_dict(fields)
    except FractalDistError:
        return
    # every accepted spec builds every level
    levels = [build_level(spec, m) for m in range(n + 1)]
    fine = levels[n]
    # with q >= 3 cells often share a vertex pair; the walk graph keeps the
    # shorter of their weights
    q = spec.boundary
    W = np.random.default_rng(seed).uniform(0.5, 2.0, (q * (q - 1) // 2, fine.num_cells))
    graph = metrics._walk_graph(fine, W)
    best = shortest_pair_weights(fine, W)
    assert graph.nnz == 2 * len(best)
    for (u, v), w in best.items():
        assert graph[u, v] == graph[v, u] == w
    for m, lg in enumerate(levels):
        classes = brute_force_address_classes(spec, m)
        assert lg.num_vertices == len(classes)
        for cls in classes:
            ids = {int(lg.cells[encode_word(addr[:-1], spec.letters), addr[-1]])
                   for addr in cls}
            assert len(ids) == 1
            assert lg.address(ids.pop()) == VertexRef(cls[0][:-1], cls[0][-1])
        emb = lg.embed_into(fine)
        for vid in range(lg.num_vertices):
            assert fine.vertex_id(lift(spec, lg.address(vid), n)) == int(emb[vid])


def test_level_zero_has_boundary_only(sg2_spec):
    lg = build_level(sg2_spec, 0)
    assert lg.num_vertices == 3
    assert lg.boundary_ids == [0, 1, 2]
    assert lg.cells.shape == (1, 3)


def test_cell_clique_graph_connected_all_builtins():
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    for kind, param in [("gasket", 2), ("gasket", 3), ("polygasket", 6),
                        ("polygasket", 9)]:
        spec = generate_spec(kind, param)
        for n in range(1, 5 if spec.letters == 3 else 4):
            lg = build_level(spec, n)
            q = spec.boundary
            rows, cols = [], []
            for a in range(q):
                for b in range(q):
                    if a != b:
                        rows.append(lg.cells[:, a])
                        cols.append(lg.cells[:, b])
            g = sp.csr_matrix(
                (np.ones(lg.num_cells * q * (q - 1)),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(lg.num_vertices, lg.num_vertices))
            ncomp, _ = connected_components(g, directed=False)
            assert ncomp == 1


def test_repeated_and_reversed_glue_rules_build_the_same_levels(sg3_spec):
    # a spec built directly keeps its glue as given; a rule listed twice, or
    # with its two corners swapped, joins nothing new
    first, (i, a, j, b), *rest = sg3_spec.glue
    glue = (first, first, (j, b, i, a), *rest)
    raw = FractalSpec("raw", sg3_spec.letters, 3, sg3_spec.fixed_letters, glue)
    twin = FractalSpec("twin", sg3_spec.letters, 3, sg3_spec.fixed_letters,
                       structure._normalize_glue(glue))
    assert twin.glue == sg3_spec.glue
    for n in range(4):
        lg, expected = build_level(raw, n), build_level(twin, n)
        assert np.array_equal(lg.cells, expected.cells)
        assert lg.num_vertices == expected.num_vertices
        assert lg.boundary_ids == expected.boundary_ids


def full_scan_order(pattern):
    """Reference for the schedule's elimination order: every step scans all
    interior nodes for the fewest remaining neighbours, the smallest id
    among ties.  Returns ``(node, neighbours)`` per step."""
    adjacent = {v: set() for v in range(pattern.num_vertices)}
    for cell in pattern.cells.tolist():
        for u, v in itertools.combinations(cell, 2):
            adjacent[u].add(v)
            adjacent[v].add(u)
    alive = set(adjacent)
    interior = alive - set(pattern.boundary_ids)
    order = []
    while interior:
        x = min(interior, key=lambda v: (len(adjacent[v] & alive), v))
        interior.remove(x)
        alive.remove(x)
        around = adjacent[x] & alive
        for u in around:
            adjacent[u] |= around - {u}
        order.append((x, tuple(sorted(around))))
    return order


SCHEDULE_SPECS = {
    **{f"{kind}:{param}": generate_spec(kind, param)
       for kind, param in [("gasket", 2), ("gasket", 3), ("gasket", 9), ("gasket", 15),
                           ("polygasket", 6), ("polygasket", 9)]},
    "tetra": tetra_spec(),
    "two-corner": FractalSpec.from_json_dict(TWO_CORNER_FIELDS),
    "chain:1000": chain_spec(1000),
    "chain:2000": chain_spec(2000),
}


@pytest.mark.parametrize("name", list(SCHEDULE_SPECS))
def test_schedule_heap_picks_the_full_scan_order(name):
    spec = SCHEDULE_SPECS[name]
    schedule = reduction_schedule(build_level(spec, 1))
    assert [(x, around) for x, around, *_ in schedule.eliminated] == full_scan_order(
        build_level(spec, 1))
    # each pivot's writes are the updates between its predecessor's and its
    # successor's, and only the corners' closure follows the last
    stops = [0] + [writes.stop for *_, writes in schedule.eliminated]
    assert [writes.start for *_, writes in schedule.eliminated] == stops[:-1]
    for (x, around, _, writes) in schedule.eliminated:
        assert len(writes) == len(around) * (len(around) - 1) // 2
    assert spec.schedule is spec.schedule


def test_resource_limit(monkeypatch):
    spec = generate_spec("gasket", 2)
    monkeypatch.setattr(structure, "DEFAULT_MAX_ADDRESSES", 1000)
    with pytest.raises(ResourceLimitError) as err:
        build_level(spec, 8)
    assert err.value.attempted_size == 3 * 3 ** 8


@pytest.mark.parametrize("error, fields", [
    (ResourceLimitError("level 8 needs 19683 addresses (limit 1000)", 19683, 8),
     {"attempted_size": 19683, "level": 8}),
    (NoEqualWeightStructureError("traced one-cell sum deviates by 0.25", 0.25),
     {"deviation": 0.25}),
], ids=["resource-limit", "no-equal-weight"])
def test_errors_survive_a_pickle_round_trip(error, fields):
    # a worker process hands its error back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert {name: getattr(copy, name) for name in fields} == fields


# ---------------------------------------------------------------------------
# canonicalize / lift
# ---------------------------------------------------------------------------

def random_refs(spec, level, count, seed):
    rng = np.random.default_rng(seed)
    refs = []
    for _ in range(count):
        m = int(rng.integers(0, level + 1))
        word = tuple(int(x) for x in rng.integers(0, spec.letters, size=m))
        refs.append(VertexRef(word, int(rng.integers(0, spec.boundary))))
    return refs


@pytest.mark.parametrize("kind,param", [("gasket", 2), ("gasket", 3),
                                        ("polygasket", 6)])
def test_canonicalize_idempotent(kind, param):
    spec = generate_spec(kind, param)
    for ref in random_refs(spec, 5, 60, seed=7):
        c1 = canonicalize(spec, ref)
        assert canonicalize(spec, c1) == c1
        assert c1.level == ref.level


def test_boundary_refs_already_canonical(sg2_spec):
    for a in range(3):
        ref = VertexRef((), a)
        assert canonicalize(sg2_spec, ref) == ref


def test_glue_rule_endpoints_identified():
    for kind, param in [("gasket", 2), ("gasket", 3), ("polygasket", 6),
                        ("polygasket", 9)]:
        spec = generate_spec(kind, param)
        for i, a, j, b in spec.glue:
            left = canonicalize(spec, VertexRef((i,), a))
            right = canonicalize(spec, VertexRef((j,), b))
            assert left == right


@pytest.mark.parametrize("kind,param", [("gasket", 2), ("gasket", 3),
                                        ("polygasket", 6), ("polygasket", 9)])
def test_canonicalize_agrees_with_level_graph(kind, param):
    spec = generate_spec(kind, param)
    lg = build_level(spec, 3)
    for vid in range(lg.num_vertices):
        ref = lg.address(vid)
        assert canonicalize(spec, ref) == ref
    # every equivalent address resolves to the same id
    for ref in random_refs(spec, 3, 40, seed=11):
        lifted = lift(spec, ref, 3)
        vid = lg.vertex_id(lifted)
        assert lg.address(vid) == canonicalize(spec, lifted)


def test_lift_definition_and_identity(sg2_spec):
    ref = VertexRef((), 1)
    assert lift(sg2_spec, ref, 2) == VertexRef((1, 1), 1)
    deep = VertexRef((0, 2), 1)
    assert lift(sg2_spec, deep, 2) == deep
    with pytest.raises(ValueError):
        lift(sg2_spec, deep, 1)


@pytest.mark.parametrize("kind,param", [("gasket", 2), ("polygasket", 6)])
def test_lift_matches_embed_into(kind, param):
    spec = generate_spec(kind, param)
    for m, n in [(0, 1), (1, 2), (2, 3)]:
        coarse = build_level(spec, m)
        fine = build_level(spec, n)
        emb = coarse.embed_into(fine)
        assert len(set(int(e) for e in emb)) == coarse.num_vertices  # injective
        for vid in range(coarse.num_vertices):
            lifted = lift(spec, coarse.address(vid), n)
            assert fine.vertex_id(lifted) == int(emb[vid])


def test_boundary_ids_are_lifted_corners(sg2_spec):
    lg = build_level(sg2_spec, 4)
    for a in range(3):
        assert lg.vertex_id(VertexRef((), a)) == lg.boundary_ids[a]
        assert lg.address(lg.boundary_ids[a]) == VertexRef((a,) * 4, a)


# ---------------------------------------------------------------------------
# vertex refs and spec validation
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 14), max_size=8), st.integers(0, 2))
def test_vertex_ref_text_roundtrip(word, label):
    ref = VertexRef(tuple(word), label)
    assert VertexRef.parse(str(ref)) == ref


@pytest.mark.parametrize("k", [2, 3, 9, 11, 36])
def test_word_column_spells_every_code(k):
    for length in range(5):
        # 36**4 codes take seconds through the per-code reference; every 37th
        # still puts every letter in every position
        codes = range(0, k ** length, 37 if k ** length > 10 ** 6 else 1)
        expected = [_word_to_str(decode_word(c, length, k)) for c in codes]
        table = word_column(np.array(codes), length, k)
        assert [col.tobytes().decode("ascii") for col in table.T] == expected


def test_digits_past_32_bits_are_split():
    # a value that may need more than 32 bits is split into halves of its
    # digits before the 32-bit divisions: decimals from 2**32 up, and words
    # of more than 20 letters over three (3**20 < 2**32 < 3**21)
    rng = np.random.default_rng(34)
    values = np.concatenate([[2 ** 32 - 1, 2 ** 32, 10 ** 17 - 1, 10 ** 17, 2 ** 63 - 1],
                             rng.integers(2 ** 32, 2 ** 63 - 1, 500)])
    assert csv_rows(int_chars(values)).split("\n")[:-1] == [str(v) for v in values.tolist()]
    for length in (20, 21, 30, 39):
        codes = np.concatenate([[0, 3 ** length - 1], rng.integers(0, 3 ** length, 200)])
        expected = [_word_to_str(decode_word(c, length, 3)) for c in codes.tolist()]
        table = word_column(codes, length, 3)
        assert [col.tobytes().decode("ascii") for col in table.T] == expected


def test_word_column_rejects_letters_past_z():
    with pytest.raises(ValueError):
        word_column(np.arange(3), 1, 37)


def test_vertex_ref_parse_rejects_garbage():
    for bad in ["", "12", "!!:0", "0:notanumber"]:
        with pytest.raises(ValueError):
            VertexRef.parse(bad)


def test_spec_validation_errors():
    with pytest.raises(SpecValidationError):  # non-injective fixed letters
        FractalSpec("bad", 3, 3, (0, 0, 1), ((0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 2, 1)))
    with pytest.raises(SpecValidationError):  # self-gluing cell
        FractalSpec("bad", 3, 3, (0, 1, 2), ((0, 1, 0, 2),))
    with pytest.raises(SpecValidationError):  # disconnected contact graph
        FractalSpec("bad", 4, 3, (0, 1, 2), ((0, 1, 1, 0),))
    with pytest.raises(SpecValidationError):  # out-of-range label
        FractalSpec("bad", 3, 3, (0, 1, 2), ((0, 3, 1, 0),))
    with pytest.raises(SpecValidationError, match="boundary points 0 and 1 coincide"):
        FractalSpec("circle", 2, 2, (0, 1), ((0, 0, 1, 1), (0, 1, 1, 0)))
    with pytest.raises(SpecValidationError, match="a cell has coincident corners 1 and 2"):
        FractalSpec("pinch", 3, 3, (0, 1, 2), ((0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 2, 1)))


def test_json_dict_roundtrip(sg2_spec, hexa_spec):
    for spec in (sg2_spec, hexa_spec):
        again = FractalSpec.from_json_dict(spec.to_json_dict())
        assert again == spec


def test_canonicalize_rejects_out_of_range(sg2_spec):
    with pytest.raises(ValueError):
        canonicalize(sg2_spec, VertexRef((), 5))
    with pytest.raises(ValueError):
        canonicalize(sg2_spec, VertexRef((7,), 0))


def test_triple_point_orbit_collapses(sg3_spec):
    # the interior grid point of the side-3 gasket belongs to three cells;
    # all three addresses must canonicalize to one representative
    refs = set()
    for i, a, j, b in sg3_spec.glue:
        refs.add(canonicalize(sg3_spec, VertexRef((i,), a)))
        refs.add(canonicalize(sg3_spec, VertexRef((j,), b)))
    lg = build_level(sg3_spec, 1)
    # orbit classes of the glued corners must match the level graph exactly
    ids = {lg.vertex_id(r) for r in refs}
    assert len(ids) == len(refs)
    counts = {}
    for i, a, j, b in sg3_spec.glue:
        vid = lg.vertex_id(VertexRef((i,), a))
        counts[vid] = counts.get(vid, 0) + 1
    # one vertex carries three pairwise rules (the three-cell contact point)
    assert sorted(counts.values()) == [1, 1, 1, 1, 1, 1, 3]



# ---------------------------------------------------------------------------
# CSV tables: the float speller and the writers against per-row references
# ---------------------------------------------------------------------------

# doubles next to the speller's decisions: signed zeros, the smallest
# subnormal and normal, both ends of fixed notation, a value whose 17 digits
# round up to a power of ten, powers of ten that are and are not exact, 2**63
# just past the int64 range, and the non-finite values; each with its
# neighbours and its negative
_EDGE = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 9.9999999999999995e-5,
                  1e16, 1e17, 1e22, 1e23, 2.0 ** 63, np.inf, np.nan])
_EDGE = np.concatenate([_EDGE, np.nextafter(_EDGE, 0), np.nextafter(_EDGE, np.inf)])
EDGE_FLOATS = np.concatenate([_EDGE, -_EDGE])


def spelled(values):
    """Lines of the CSV kernel for one column of doubles."""
    return csv_rows(float_chars(np.asarray(values, dtype=np.float64))).split("\n")[:-1]


def formatted(values):
    return [format(v, ".17g") for v in np.asarray(values, dtype=np.float64).tolist()]


def test_float_chars_edge_values():
    assert spelled(EDGE_FLOATS) == formatted(EDGE_FLOATS)


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(deadline=None)
def test_float_chars_match_format(values):
    assert spelled(values) == formatted(values)


@given(st.binary(min_size=8, max_size=320))
@settings(deadline=None)
def test_float_chars_match_format_on_bit_patterns(raw):
    values = np.frombuffer(raw[:len(raw) // 8 * 8], dtype=np.float64)
    assert spelled(values) == formatted(values)


def test_float_chars_match_format_in_bulk():
    rng = np.random.default_rng(20)
    bits = np.frombuffer(rng.bytes(8 * 40_000), dtype=np.float64)
    scaled = rng.standard_normal(40_000) * 10.0 ** rng.integers(-300, 300, 40_000)
    powers = np.array([float(f"1e{x}") for x in range(-323, 309)])
    for values in (bits, scaled, np.concatenate([powers, np.nextafter(powers, 0),
                                                 np.nextafter(powers, np.inf)])):
        assert spelled(values) == formatted(values)


def test_float_chars_exact_ties():
    # ip + odd / 2**j with 18 significant digits, the last a 5: rounding to
    # 17 digits is an exact tie, which format breaks to even
    rng = np.random.default_rng(21)
    values = []
    for j in range(3, 18):
        ips = rng.integers(10 ** (17 - j), 10 ** (18 - j), 200).tolist()
        odds = (2 * rng.integers(0, 2 ** (j - 1), 200) + 1).tolist()
        values += [ip + odd / 2 ** j for ip, odd in zip(ips, odds)]
    for v in values:
        digits = str(Decimal(v)).replace(".", "")
        assert len(digits) == 18 and digits.endswith("5"), v
    assert spelled(values) == formatted(values)


def reference_vertex_rows(lg, values):
    """``vertex_rows`` text as written one f-string per row."""
    codes, labels = lg.addresses
    values = np.asarray(values).reshape(lg.num_vertices, -1)
    words = [_word_to_str(decode_word(code, lg.level, lg.spec.letters)) for code in codes.tolist()]
    return "".join([f"{vid},{word},{label},{','.join(f'{x:.17g}' for x in xs)}\n"
                    for vid, (word, label, xs) in
                    enumerate(zip(words, labels.tolist(), values.tolist()))])


def reference_depth_table_csv(column, per_depth, k):
    """``SlackTable.to_csv`` / ``CellMeasureTable.to_csv`` text as written
    one f-string per row."""
    lines = [f"word,depth,{column}\n"]
    for m, vals in enumerate(per_depth):
        lines += [f"{_word_to_str(decode_word(code, m, k))},{m},{val:.17g}\n"
                  for code, val in enumerate(vals.tolist())]
    return "".join(lines)


def values_with_edges(rng, size):
    """Doubles of every magnitude, with the edge values scattered among them."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    values[rng.choice(size, EDGE_FLOATS.size, replace=False)] = EDGE_FLOATS
    return values


@pytest.fixture(scope="module")
def sg5_level4():
    # 15 letters, so words use 'a'-'e'; 65,091 vertices in several blocks
    return build_level(generate_spec("gasket", 5), 4)


def test_vertex_rows_match_per_row_reference(sg5_level4):
    lg = sg5_level4
    blocks = row_blocks(lg.num_vertices)
    assert len(blocks) > 2
    assert any(b.start <= 9999 and b.stop > 10000 for b in blocks)
    rng = np.random.default_rng(22)
    for values in (values_with_edges(rng, lg.num_vertices),
                   values_with_edges(rng, 2 * lg.num_vertices).reshape(-1, 2)):
        text = list(vertex_rows(lg, values))
        assert len(text) == len(blocks)
        assert "".join(text) == reference_vertex_rows(lg, values)


def test_depth_tables_match_per_row_reference():
    hs = HarmonicStructure.build(generate_spec("gasket", 5))
    table = cell_measure_table(hs, default_tuple(hs), 4)
    assert len(row_blocks(table.values[-1].size)) > 2
    assert "".join(table.to_csv()) == reference_depth_table_csv("value", table.values, 15)
    rng = np.random.default_rng(23)
    slack = [values_with_edges(rng, 15 ** m) if m > 2 else rng.standard_normal(15 ** m)
             for m in range(5)]
    assert "".join(SlackTable(15, slack, 1.0, 1e-9).to_csv()) == reference_depth_table_csv("slack", slack, 15)


def test_depth_tables_stream_by_row_blocks(monkeypatch):
    # the header and depth 0 go out with depth 1's one block; every later
    # string is one block of rows
    monkeypatch.setattr(structure, "_CSV_BLOCK_ROWS", 7)
    hs = HarmonicStructure.build(generate_spec("gasket", 2))
    rng = np.random.default_rng(29)
    tables = [(cell_measure_table(hs, default_tuple(hs), 4), "value"),
              (SlackTable.from_deepest(3, rng.standard_normal(3 ** 4), 1.0, 1e-9), "slack")]
    for table, column in tables:
        text = list(table.to_csv())
        assert len(text) == 1 + sum(len(row_blocks(3 ** m)) for m in range(2, 5)) > 1
        assert text[0].count("\n") == 1 + 1 + 3
        assert all(block.endswith("\n") and block.count("\n") <= 7 for block in text[1:])
        assert "".join(text) == reference_depth_table_csv(column, table.values, 3)


def test_writers_call_format_only_for_exact_fallback_rows(sg5_level4, monkeypatch):
    # digits come from CPython only for near-tie and extreme-exponent rows
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(structure, "format", counting_format, raising=False)
    rng = np.random.default_rng(24)
    "".join(vertex_rows(sg5_level4, rng.standard_normal((sg5_level4.num_vertices, 2))))
    assert calls == []
    values = [1.5, 1e-300, 1e300, 1000000000000000.25]
    assert spelled(values) == formatted(values)
    assert calls == values[1:]
