"""Combinatorial self-similar structures and their vertex hierarchies.

A fractal here is described purely combinatorially: ``k`` cells (letters),
``q`` boundary points (labels), a fixed letter per boundary label (the cell
whose contraction fixes that point), and glue rules identifying cell corners.
Points of the level-``n`` vertex set are addressed as ``(word, label)`` pairs,
meaning "corner `label` of the cell named by `word`".  Addresses are
canonicalized to the lexicographically smallest member of their glue orbit.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
import string
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    InvalidParameterError,
    ResourceLimitError,
    SpecValidationError,
)

Word = tuple[int, ...]

_DIGITS = string.digits + string.ascii_lowercase

DEFAULT_MAX_ADDRESSES = 80_000_000


def _word_to_str(word: Word) -> str:
    if not word:
        return "-"
    return "".join(_DIGITS[w] for w in word)


def encode_word(word: Word, k: int) -> int:
    """Big-endian cell code of ``word`` over ``k`` letters; a letter outside
    ``range(k)`` raises ``ValueError``."""
    code = 0
    for w in word:
        if not 0 <= w < k:
            raise ValueError(f"letter {w} of word {tuple(word)} is not in range({k})")
        code = code * k + w
    return code


def decode_word(code: int, length: int, k: int) -> Word:
    """Letters of the length-``length`` word with big-endian cell code ``code``."""
    digits = []
    for _ in range(length):
        code, d = divmod(code, k)
        digits.append(d)
    return tuple(reversed(digits))


def word_column(codes: np.ndarray, length: int, k: int) -> np.ndarray:
    """``[max(length, 1), rows]`` ASCII character table of the length-``length``
    words with big-endian cell codes ``codes``, column ``i`` spelling word
    ``i`` as ``_word_to_str`` does (``'-'`` for the empty word).  The letters
    come from one array division per position."""
    rest = np.asarray(codes, dtype=np.int64)
    if length == 0:
        return np.full((1, rest.size), ord("-"), dtype=np.uint8)
    if k > len(_DIGITS):
        raise ValueError(f"cannot spell words over {k} letters with {len(_DIGITS)} digits")
    letters = _place_values(rest, length, k)
    # the _DIGITS: '0'-'9', then 'a'-'z' from letter 10
    letters += np.uint8(ord("0"))
    letters += np.uint8(ord("a") - ord("9") - 1) * (letters > np.uint8(ord("9")))
    return letters


def _word_from_str(text: str) -> Word:
    if text == "-" or text == "":
        return ()
    try:
        return tuple(_DIGITS.index(c) for c in text)
    except ValueError:
        raise ValueError(f"bad word digit string {text!r}") from None


@dataclass(frozen=True, order=True)
class VertexRef:
    """Address ``(word, label)`` of a vertex: corner `label` of cell `word`."""

    word: Word
    label: int

    @property
    def level(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return f"{_word_to_str(self.word)}:{self.label}"

    @classmethod
    def parse(cls, text: str) -> "VertexRef":
        """Parse ``word:label`` with the word as a digit string ('-' = empty)."""
        try:
            wtxt, ltxt = text.rsplit(":", 1)
            return cls(_word_from_str(wtxt), int(ltxt))
        except (ValueError, TypeError):
            raise ValueError(f"bad vertex ref {text!r}; expected 'word:label'") from None


@dataclass(frozen=True)
class FractalSpec:
    """Combinatorial description of a finitely ramified self-similar set.

    ``fixed_letters[a]`` is the cell whose map fixes boundary point ``a``;
    every boundary point must be such a fixed point.  ``glue`` holds unordered
    corner identifications ``(i, a, j, b)`` meaning corner ``a`` of cell ``i``
    coincides with corner ``b`` of cell ``j``.  Glue under which two corners
    of one cell, or two boundary points, meet at level 1 is rejected.
    """

    name: str
    letters: int
    boundary: int
    fixed_letters: tuple[int, ...]
    glue: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        k, q = self.letters, self.boundary
        if k < 2:
            raise SpecValidationError(f"need at least 2 cells, got {k}")
        if q < 2:
            raise SpecValidationError(f"need at least 2 boundary points, got {q}")
        if len(self.fixed_letters) != q:
            raise SpecValidationError(
                f"fixed_letters must list one cell per boundary label "
                f"(got {len(self.fixed_letters)}, boundary={q})")
        for a, i in enumerate(self.fixed_letters):
            if not 0 <= i < k:
                raise SpecValidationError(f"fixed_letters[{a}]={i} out of range")
        if len(set(self.fixed_letters)) != q:
            raise SpecValidationError("fixed_letters must be injective")
        for idx, (i, a, j, b) in enumerate(self.glue):
            if i == j:
                raise SpecValidationError(f"glue[{idx}]={(i, a, j, b)} joins a cell to itself")
            if not (0 <= i < k and 0 <= j < k and 0 <= a < q and 0 <= b < q):
                raise SpecValidationError(f"glue[{idx}]={(i, a, j, b)} out of range")
        level_address_count(self, 1)  # before the arrays of k cells below
        # the level-1 cell contact graph must be one piece
        glue = np.array(self.glue, dtype=np.int64).reshape(-1, 4)
        ones = np.ones(len(glue))
        contact = sp.coo_matrix((ones, (glue[:, 0], glue[:, 2])), shape=(k, k))
        count, _ = connected_components(contact, directed=False)
        if count != 1:
            raise SpecValidationError(
                f"level-1 cell contact graph is disconnected ({count} components)")
        # classes of the level-1 corners i * q + a; no class may hold two
        # corners of one cell or two boundary points
        corners = sp.coo_matrix((ones, (glue[:, 0] * q + glue[:, 1], glue[:, 2] * q + glue[:, 3])),
                                shape=(k * q, k * q))
        _, label = connected_components(corners, directed=False)
        meet = label.reshape(k, q)
        ends = meet[self.fixed_letters, range(q)]
        for a in range(q):
            for b in range(a + 1, q):
                if np.any(meet[:, a] == meet[:, b]):
                    raise SpecValidationError(f"level 1: a cell has coincident corners {a} and {b}")
                if ends[a] == ends[b]:
                    raise SpecValidationError(f"level 1: boundary points {a} and {b} coincide")
        # each corner's class root is its smallest-letter member: rows
        # (letter, corner, root letter, root corner) for every other corner
        _, first = np.unique(label, return_index=True)
        root = first[label]
        moved = np.flatnonzero(root != np.arange(k * q))
        object.__setattr__(self, "_glue_roots", np.stack(
            [*np.divmod(moved, q), *np.divmod(root[moved], q)], axis=1))

    @functools.cached_property
    def schedule(self) -> "ReductionSchedule":
        """Elimination schedule of the level-1 pattern
        (:func:`reduction_schedule`), built on first read."""
        return reduction_schedule(build_level(self, 1))

    def label_of_fixed_cell(self, letter: int) -> int:
        try:
            return self.fixed_letters.index(letter)
        except ValueError:
            raise ValueError(f"cell {letter} does not fix a boundary point") from None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "letters": self.letters,
            "boundary": self.boundary,
            "fixed_letters": list(self.fixed_letters),
            "glue": [list(rule) for rule in self.glue],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FractalSpec":
        try:
            name = str(data["name"])
            letters = int(data["letters"])
            boundary = int(data["boundary"])
            fixed = tuple(int(x) for x in data["fixed_letters"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecValidationError(f"bad spec file field: {exc}") from None
        glue = []
        for idx, rule in enumerate(data.get("glue", [])):
            if not isinstance(rule, (list, tuple)) or len(rule) != 4:
                raise SpecValidationError(
                    f"glue[{idx}] must be a quadruple [i,a,j,b], got {rule!r}")
            try:
                glue.append(tuple(int(x) for x in rule))
            except (TypeError, ValueError):
                raise SpecValidationError(f"glue[{idx}] has non-integer entry: {rule!r}")
        return cls(name, letters, boundary, fixed, _normalize_glue(glue))


def _normalize_glue(rules: Iterable[Sequence[int]]) -> tuple[tuple[int, int, int, int], ...]:
    out = set()
    for i, a, j, b in rules:
        if (j, b) < (i, a):
            i, a, j, b = j, b, i, a
        out.add((i, a, j, b))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# builtin generators
# ---------------------------------------------------------------------------

def _glue_rules(groups: Iterable[list[tuple[int, int]]]) -> list[tuple[int, int, int, int]]:
    """Glue rules ``(i, a, j, b)`` joining every two ``(cell, corner)``
    addresses of each group of addresses that land on one point."""
    return [(*s, *t) for addrs in groups for s, t in itertools.combinations(addrs, 2)]


def _spec_from_corners(name: str, cells: list, boundary: list, key) -> FractalSpec:
    """Spec of the cells whose corner ``a`` lies at ``cells[i][a]``: corners
    with one ``key(point)`` are glued, and boundary point ``a`` is fixed by the
    one cell whose corner ``a`` it is, else :class:`InvalidParameterError`."""
    groups: dict = {}
    for i, cell in enumerate(cells):
        for a, pt in enumerate(cell):
            groups.setdefault(key(pt), []).append((i, a))
    owners = [groups.get(key(pt), []) for pt in boundary]
    for a, addrs in enumerate(owners):
        if [b for _, b in addrs] != [a]:
            raise InvalidParameterError(f"{name} boundary point {a} is not corner {a} "
                                        f"of exactly one cell (owners {addrs})")
    return FractalSpec(name, len(cells), len(boundary), tuple(o[0][0] for o in owners),
                       _normalize_glue(_glue_rules(groups.values())))


def _gasket_spec(side: int) -> FractalSpec:
    """Level-``side`` triangular gasket: the upward subtriangles of the
    side-``side`` subdivision, with exact barycentric corners."""
    if side < 2:
        raise InvalidParameterError(f"gasket level must be >= 2, got {side}")
    origins = [(a, b, side - 1 - a - b)
               for a in reversed(range(side)) for b in reversed(range(side - a))]
    cells = [((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)) for (a, b, c) in origins]
    boundary = [(side, 0, 0), (0, side, 0), (0, 0, side)]
    return _spec_from_corners(f"gasket:{side}", cells, boundary, lambda pt: pt)


def _polygasket_spec(n: int) -> FractalSpec:
    """n-cell polygasket (n = 6 or 9) with three boundary points.

    The cells sit at the n-th roots of unity with contraction ratio
    ``2 / (3 + sqrt(3) * cot(pi/n))``, so that adjacent cells touch in exactly
    one point.  The cells at angles 0, 2*pi/3 and 4*pi/3 do not rotate, so each
    fixes its boundary point; the others rotate, so that the contact points
    land on images of the boundary points.  A point's key rounds its
    coordinates to 1e-9, far below their spacing (``+ 0.0`` folds -0.0).
    """
    if n not in (6, 9):
        raise InvalidParameterError(f"polygasket supports 6 or 9 cells, got {n}")
    beta = 2.0 / (3.0 + math.sqrt(3.0) / math.tan(math.pi / n))
    p = [cmath.exp(2j * math.pi * kk / n) for kk in range(n)]
    boundary_cells = (0, n // 3, 2 * n // 3)
    corners = [p[c] for c in boundary_cells]
    cells = [[beta * z + (1.0 - beta) * p[i] if i in boundary_cells
              else p[i] * (beta * (z - 1.0) + 1.0) for z in corners] for i in range(n)]
    spec = _spec_from_corners(f"polygasket:{n}", cells, corners,
                              lambda z: (round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0))
    if len(spec.glue) != n:
        raise InvalidParameterError(
            f"polygasket:{n} contact detection produced {len(spec.glue)} rules, expected {n}")
    return spec


def generate_spec(kind: str, param: int) -> FractalSpec:
    """Builtin spec generator.  ``kind`` is 'gasket' (param = side >= 2) or
    'polygasket' (param in {6, 9})."""
    if kind == "gasket":
        return _gasket_spec(param)
    if kind == "polygasket":
        return _polygasket_spec(param)
    raise InvalidParameterError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# addresses
# ---------------------------------------------------------------------------

def check_ref(spec: FractalSpec, ref: VertexRef) -> None:
    """Raise ``ValueError`` unless every letter of ``ref`` names a cell of
    ``spec`` and its label names a boundary point."""
    if not 0 <= ref.label < spec.boundary:
        raise ValueError(f"label {ref.label} of {ref} out of range ({spec.boundary} labels)")
    for w in ref.word:
        if not 0 <= w < spec.letters:
            raise ValueError(f"letter {w} of {ref} out of range ({spec.letters} cells)")


def lift(spec: FractalSpec, ref: VertexRef, n: int) -> VertexRef:
    """Re-address ``ref`` at level ``n`` by appending its fixed letter."""
    check_ref(spec, ref)
    if n < ref.level:
        raise ValueError(f"cannot lift level-{ref.level} ref down to level {n}")
    tail = (spec.fixed_letters[ref.label],) * (n - ref.level)
    return VertexRef(ref.word + tail, ref.label)


# ---------------------------------------------------------------------------
# level graphs
# ---------------------------------------------------------------------------

class LevelGraph:
    """Canonicalized vertex set of one refinement level.

    ``cells[c, a]``, the id of corner ``a`` of the cell with big-endian code
    ``c``, is the only record of which address is which vertex;
    ``boundary_ids`` holds the ids of the lifted boundary points.  A vertex's
    canonical address is its first occurrence in ``cells.ravel()`` (codes of
    equal-length words sort like the words); the public address table
    :attr:`addresses` holds it for every vertex as ``(codes, labels)``
    arrays and is built on first read.  :meth:`address`, :meth:`embed_into`
    and the CSV writers all read that table.  Instances are immutable and
    safe for concurrent reads; concurrent first reads only compute the table
    twice.
    """

    def __init__(self, spec: FractalSpec, level: int, num_vertices: int,
                 cells: np.ndarray, boundary_ids: list[int]):
        self.spec = spec
        self.level = level
        self.num_vertices = num_vertices
        self.cells = cells
        self.boundary_ids = boundary_ids

    @property
    def num_cells(self) -> int:
        return self.spec.letters ** self.level

    @functools.cached_property
    def addresses(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``[nv]`` cell codes and ``[nv]`` corner labels of the
        canonical addresses, indexed by vertex id: each vertex's first
        occurrence in ``cells``.  Ids first occur in increasing order, so
        those are where the running maximum of ``cells.ravel()`` rises."""
        flat = self.cells.ravel()
        rises = np.empty(flat.size, dtype=bool)
        rises[0] = True
        np.greater(flat[1:], np.maximum.accumulate(flat[:-1]), out=rises[1:])
        codes, labels = np.divmod(np.flatnonzero(rises), self.spec.boundary)
        codes.flags.writeable = labels.flags.writeable = False
        return codes, labels

    def cell_word(self, code: int) -> Word:
        """Decode a big-endian cell code of this level into its letter sequence."""
        return decode_word(code, self.level, self.spec.letters)

    def address(self, vertex_id: int) -> VertexRef:
        """Canonical (lexicographically smallest) address of a vertex."""
        codes, labels = self.addresses
        return VertexRef(self.cell_word(int(codes[vertex_id])), int(labels[vertex_id]))

    def vertex_id(self, ref: VertexRef) -> int:
        """Canonical id of a vertex given by any equivalent address."""
        lifted = lift(self.spec, ref, self.level)
        return int(self.cells[encode_word(lifted.word, self.spec.letters), lifted.label])

    def embed_into(self, finer: "LevelGraph") -> np.ndarray:
        """Ids in ``finer`` of every vertex of this graph (lift embedding)."""
        if finer.level < self.level:
            raise ValueError("target graph must be at least as deep")
        codes, labels = self.addresses
        fixed = np.asarray(self.spec.fixed_letters, dtype=np.int64)[labels]
        for _ in range(finer.level - self.level):
            codes = codes * self.spec.letters + fixed
        return finer.cells[codes, labels].astype(np.int64)


def level_address_count(spec: FractalSpec, n: int) -> int:
    """Number ``q * k**n`` of ``(cell, corner)`` addresses at level ``n``.

    Checked before anything of the level is allocated: a negative level
    raises ``ValueError`` and a count above ``DEFAULT_MAX_ADDRESSES`` raises
    :class:`ResourceLimitError`.
    """
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    total = spec.boundary * spec.letters ** n
    if total > DEFAULT_MAX_ADDRESSES:
        raise ResourceLimitError(
            f"level {n} needs {total} addresses (limit {DEFAULT_MAX_ADDRESSES})", total, n)
    return total


def build_level(spec: FractalSpec, n: int) -> LevelGraph:
    """Vertex hierarchy of ``spec`` at level ``n``.

    Vertices are equivalence classes of addresses under the glue rules applied
    inside every coarser cell.  Ids are deterministic: each refinement step
    numbers the candidates ``i * nv + v`` that no glue rule moves in
    increasing order, and each glued candidate takes its root's number.  The
    graph's address table is built lazily, on its first read (see
    :class:`LevelGraph`).
    """
    level_address_count(spec, n)
    k, q = spec.letters, spec.boundary
    fixed = np.array(spec.fixed_letters, dtype=np.int64)
    corners = np.arange(q)
    letter, corner, root_letter, root_corner = spec._glue_roots.T
    lifted = np.zeros(q, dtype=np.int64)  # cell code of each lifted boundary point

    nv = q
    cells = np.arange(q, dtype=np.int32)[None, :]  # level 0: the whole set

    for _ in range(n):
        # candidates at the next level are i * nv + v for a first letter i and
        # a vertex v; the lifted boundary points are distinct, so the corners
        # glued at level 1 meet again, each nonroot at its root's candidate
        ids = cells[lifted, corners]
        nonroots = letter * nv + ids[corner]
        # rank table: kept candidates are numbered in order, and each glued
        # one copies its root's number
        keep = np.ones(k * nv, dtype=bool)
        keep[nonroots] = False
        rank = np.empty(k * nv, dtype=np.int32)
        rank[keep] = np.arange(k * nv - len(nonroots), dtype=np.int32)
        rank[nonroots] = rank[root_letter * nv + ids[root_corner]]
        lifted = fixed * len(cells) + lifted
        cells = np.take(rank.reshape(k, nv), cells, axis=1).reshape(-1, q)
        nv = k * nv - len(nonroots)

    return LevelGraph(spec, n, nv, cells, cells[lifted, corners].tolist())


def cell_pairs(lg: LevelGraph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(u, v)`` of corner pair ``p`` of cell ``c`` at ``p * cells
    + c``: the raveled layout of a ``[pairs, cells]`` table, pairs ``a < b``
    in ``np.triu_indices(q, 1)`` order."""
    a, b = np.triu_indices(lg.cells.shape[1], 1)
    return lg.cells.T[a].ravel(), lg.cells.T[b].ravel()


@dataclass(frozen=True)
class ReductionSchedule:
    """Elimination of the level-1 glue pattern, fixed per spec, that
    ``metrics`` runs in the (min, +) semiring and ``harmonic`` in (+, x).

    ``cells`` is the pattern's ``[k, q]`` vertex table and ``boundary_ids``
    its corner nodes.  A *slot* holds the weight of one unordered pair of
    pattern nodes.  ``seeds`` lists ``(slot, first, pair, child)``: the
    weight of corner pair ``pair`` of child ``child`` goes to the slot.
    ``updates`` lists ``(dst, first, a, b)``: ``G[a]`` and ``G[b]`` combine
    into ``G[dst]``.  ``first`` marks each slot's one first write, an
    assignment, and no write reads a slot before it.  ``corners`` holds the
    slot of each parent corner pair in ``np.triu_indices(q, 1)`` order.
    ``eliminated`` lists the interior nodes in elimination order as ``(node,
    neighbours, slots, writes)``: the neighbours it had when it was
    eliminated (at least one), the slots of its pairs with them, and the
    ``range`` of the updates it wrote.  The updates after the last range
    close the corners.
    """

    cells: np.ndarray
    boundary_ids: np.ndarray
    slots: int
    seeds: tuple[tuple[int, bool, int, int], ...]
    updates: tuple[tuple[int, bool, int, int], ...]
    corners: np.ndarray
    eliminated: tuple[tuple[int, tuple[int, ...], tuple[int, ...], range], ...]


def reduction_schedule(pattern: LevelGraph) -> ReductionSchedule:
    """Eliminate the interior nodes of the level-1 ``pattern`` in min-degree
    order (fewest remaining neighbours, then smallest id, popped from a heap
    that skips outdated entries), then close its ``q`` corners.

    Eliminating node ``x`` relaxes every pair ``(u, v)`` of its remaining
    neighbours through ``x``; closing the corners does the same with each
    corner as the pivot, since a route between two parent corners may pass
    through a third.  In (min, +) both are Floyd-Warshall steps restricted
    to the pairs that carry a finite weight, so the result is the closure of
    the pattern on its corners for any nonnegative child weights.
    """
    a, b = np.triu_indices(pattern.spec.boundary, 1)
    slot: dict[tuple[int, int], int] = {}

    def slot_of(u: int, v: int) -> int:
        return slot.setdefault((min(u, v), max(u, v)), len(slot))

    def write(u: int, v: int) -> tuple[int, bool]:
        fresh = len(slot)  # a slot is numbered at its first write
        return slot_of(u, v), len(slot) > fresh

    # each node's neighbours that are not eliminated
    adjacent: dict[int, set[int]] = {v: set() for v in range(pattern.num_vertices)}
    seeds = []
    for i, cell in enumerate(pattern.cells.tolist()):
        for p, (ca, cb) in enumerate(zip(a, b)):
            u, v = cell[ca], cell[cb]
            seeds.append((*write(u, v), p, i))
            adjacent[u].add(v)
            adjacent[v].add(u)

    updates = []

    def pivot(x: int) -> list[int]:
        around = sorted(adjacent[x])
        for s, u in enumerate(around):
            for v in around[s + 1:]:
                updates.append((*write(u, v), slot_of(u, x), slot_of(x, v)))
                adjacent[u].add(v)
                adjacent[v].add(u)
        return around

    corners = list(pattern.boundary_ids)
    interior = set(adjacent) - set(corners)
    heap = sorted((len(adjacent[v]), v) for v in interior)
    eliminated = []
    while heap:
        degree, x = heapq.heappop(heap)
        if x in interior and degree == len(adjacent[x]):
            interior.remove(x)
            for u in adjacent[x]:
                adjacent[u].remove(x)
            start = len(updates)
            around = pivot(x)
            eliminated.append((x, tuple(around), tuple(slot_of(x, u) for u in around),
                               range(start, len(updates))))
            for u in interior.intersection(around):
                heapq.heappush(heap, (len(adjacent[u]), u))
    for c in corners:
        pivot(c)
    closed = np.array([slot_of(corners[i], corners[j]) for i, j in zip(a, b)])
    return ReductionSchedule(pattern.cells, np.array(corners), len(slot), tuple(seeds),
                             tuple(updates), closed, tuple(eliminated))


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

# rows spelled at once by the CSV writers: at 2**10 rows numpy's per-call
# overhead dominates, at 2**16 the block's character tables fall out of the
# cache; a block's tables stay near 1 MiB, so large tables do not raise a
# run's peak RSS
_CSV_BLOCK_ROWS = 1 << 13

# Dekker's splitter for doubles, 2**27 + 1
_SPLIT = 134217729.0

# doubles with magnitude in [1e-280, 1e280] are spelled by the array kernel;
# past these bounds the splits of the double-double products could overflow
# or lose bits to subnormals
_FAST_EXP = 280


def row_blocks(rows: int) -> list[slice]:
    """Consecutive slices of at most ``_CSV_BLOCK_ROWS`` rows covering
    ``range(rows)``, in order."""
    step = _CSV_BLOCK_ROWS
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def csv_rows(*fields: np.ndarray) -> str:
    """CSV lines from per-field ``[width, rows]`` ASCII tables, in which a
    NUL byte marks a character not printed: line ``i`` joins column ``i`` of
    every field with commas.  The tables are stacked with the separators and
    read row-major, and ``bytes.translate`` drops the NULs."""
    rows = fields[0].shape[1]
    parts = []
    for field in fields:
        parts += [field, np.full((1, rows), ord(","), dtype=np.uint8)]
    parts[-1] = np.full((1, rows), ord("\n"), dtype=np.uint8)
    return np.concatenate(parts).T.tobytes().translate(None, b"\0").decode("ascii")


def _place_values(values: np.ndarray, width: int, base: int) -> np.ndarray:
    """``[width, rows]`` base-``base`` digits, most significant first, of
    nonnegative integers below ``base**width``: one 32-bit array division per
    digit.  Values that may need more than 32 bits are first split into
    their high and low halves of digits, recursively, until every part fits."""
    rest = np.asarray(values, dtype=np.int64)
    digits = np.empty((width, rest.size), dtype=np.uint8)
    if base ** width > 1 << 32:
        low = width // 2
        high = rest // base ** low
        digits[:width - low] = _place_values(high, width - low, base)
        digits[width - low:] = _place_values(rest - high * base ** low, low, base)
        return digits
    rest = rest.astype(np.uint32)
    for pos in range(width - 1, -1, -1):
        quotient = rest // base
        digits[pos] = rest - quotient * base
        rest = quotient
    return digits


def _decimal_digits(values: np.ndarray, width: int) -> np.ndarray:
    """``[width, rows]`` ASCII decimal digits, most significant first, of
    nonnegative integers below ``10**width``."""
    return _place_values(values, width, 10) + np.uint8(ord("0"))


def int_chars(values: np.ndarray) -> np.ndarray:
    """Table of nonnegative integers in decimal, as ``str`` spells them,
    leading zeros as NULs."""
    values = np.asarray(values, dtype=np.int64)
    width = len(str(int(values.max())))
    chars = _decimal_digits(values, width)
    for pos in range(width - 1):
        chars[pos] *= values >= 10 ** (width - 1 - pos)
    return chars


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """``[4, exponents]`` table of ``10**(16 - X)`` for decimal exponents
    ``X`` from ``-_FAST_EXP - 2`` to ``_FAST_EXP + 1`` (the kernel's range
    and the neighbours a ``log10`` estimate can miss into): the nearest
    double ``hi``, the nearest double ``lo`` to ``10**(16 - X) - hi``, and
    Dekker's halves of ``hi``.  Built on first use, from exact integer
    ratios (``int / int`` rounds correctly)."""
    pairs = []
    for x in range(-_FAST_EXP - 2, _FAST_EXP + 2):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den
        hnum, hden = hi.as_integer_ratio()
        pairs.append((hi, (num * hden - hnum * den) / (den * hden)))
    hi, lo = np.array(pairs).T
    table = np.stack([hi, lo, *_split(hi)])
    table.flags.writeable = False
    return table


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two halves of at most 26 bits each."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _times_pow10(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - x)`` as ``p + t``: ``p`` the rounded product with the
    double nearest ``10**(16 - x)``, ``t`` the rest to about 1e-14 (Dekker's
    exact two-product plus the power's low part)."""
    hi, lo, hh, hl = _powers_of_ten().take(x + _FAST_EXP + 2, axis=1)
    p = a * hi
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * lo


def float_chars(values: np.ndarray) -> np.ndarray:
    """Table of doubles spelled exactly as ``format(v, ".17g")``, NULs
    marking characters not printed.

    The 17 significant digits ``n`` and decimal exponent ``x`` of ``|v|``
    come from ``n = round(|v| * 10**(16 - x))`` in double-double arithmetic.
    Rows whose product lies within 1e-7 of a rounding tie, and magnitudes
    outside ``[1e-280, 1e280]``, take their digits from ``format(v,
    ".16e")`` instead.  The layout is ``%g``'s: fixed notation for ``-4 <=
    x < 17``, else ``e±XX``; trailing zeros stripped; the sign from
    ``signbit``; ``inf`` and ``nan`` spelled out."""
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    a = np.abs(v)
    fast = (a >= 10.0 ** -_FAST_EXP) & (a <= 10.0 ** _FAST_EXP)
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    p, t = _times_pow10(a, x)
    # log10 can miss the exponent by one next to a power of ten: move those
    # rows until 1e16 <= |v| * 10**(16 - x) < 1e17
    low = (p < 1e16) | ((p == 1e16) & (t < 0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))
    moved = np.flatnonzero(low | high)
    x[moved] += high[moved].astype(np.int64) - low[moved]
    p[moved], t[moved] = _times_pow10(a[moved], x[moved])
    n = p.astype(np.int64) + np.floor(t + 0.5).astype(np.int64)
    carry = n == 10 ** 17
    n[carry], x[carry] = 10 ** 16, x[carry] + 1
    near_tie = np.abs(t - np.floor(t) - 0.5) < 1e-7
    for i in np.flatnonzero(np.where(fast, near_tie, finite & (v != 0))).tolist():
        text = format(abs(float(v[i])), ".16e")
        n[i], x[i] = int(text[0] + text[2:18]), int(text[19:])
    special = ~fast & ((v == 0) | ~finite)
    n[special], x[special] = 0, 0

    # digit j of n in row j + 1, between two rows of zeros
    digits = np.zeros((19, v.size), dtype=np.uint8)
    digits[1:18] = _decimal_digits(n, 17)
    kept = ((digits[1:18] != ord("0")) * np.arange(1, 18, dtype=np.int8)[:, None]).max(axis=0)
    fixed = (x >= -4) & (x < 17)
    lead = fixed & (x < 0)
    shown = np.where(fixed, np.maximum(kept, x + 1), kept).astype(np.int8)
    # the point follows digit `point`; "0.000" carries it for fixed x < 0
    point = np.where(lead, 17, np.where(fixed, x, 0)).astype(np.int8)
    place = np.arange(18, dtype=np.int8)[:, None]
    e = np.abs(x)
    sci = ~fixed

    # rows: sign, "0.000" for fixed x < 0, 17 digits with the point among
    # them, and "e±XXX"; characters not printed are multiplied by zero
    chars = np.empty((29, v.size), dtype=np.uint8)
    chars[0] = np.uint8(ord("-")) * (np.signbit(v) & ~np.isnan(v))
    chars[1:6] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None] * np.vstack(
        [lead, lead, *(lead & (x <= -2 - np.arange(3)[:, None]))])
    after = place > point
    body = chars[6:24]
    body[:] = digits[1:] * ~after + digits[:-1] * after
    dot = np.flatnonzero(point < 17)
    body[point[dot] + 1, dot] = ord(".")
    body *= place < shown + (place > point + 1)
    nonfinite = np.flatnonzero(~finite)
    body[:, nonfinite] = 0
    body[:3, nonfinite] = np.where(np.isnan(v[nonfinite]),
                                   np.frombuffer(b"nan", dtype=np.uint8)[:, None],
                                   np.frombuffer(b"inf", dtype=np.uint8)[:, None])
    chars[24] = np.uint8(ord("e")) * sci
    chars[25] = np.where(x < 0, np.uint8(ord("-")), np.uint8(ord("+"))) * sci
    chars[26:29] = _decimal_digits(e, 3) * np.vstack([sci & (e >= 100), sci, sci])
    return chars


def vertex_rows(lg: LevelGraph, values: np.ndarray) -> Iterator[str]:
    """CSV rows ``id,word,label,v_1,...`` of every vertex of ``lg`` in id
    order, one string per block of rows; ``values`` is ``[nv]`` or
    ``[nv, c]`` and is written as ``%.17g``."""
    codes, labels = lg.addresses
    values = np.asarray(values).reshape(lg.num_vertices, -1)
    for b in row_blocks(lg.num_vertices):
        yield csv_rows(int_chars(np.arange(b.start, b.stop)),
                       word_column(codes[b], lg.level, lg.spec.letters),
                       int_chars(labels[b]), *map(float_chars, values[b].T))
