import functools
import itertools

import numpy as np
import pytest
from hypothesis import settings

from fractaldist.harmonic import HarmonicStructure
from fractaldist.measures import default_tuple
from fractaldist.metrics import MetricContext
from fractaldist.structure import FractalSpec, generate_spec

# every run draws the same examples, and slow examples are not failures
settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")

UNIT_TRIANGLE_D = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])


# a regular harmonic structure on gasket:2 whose weights differ per letter:
# unequal boundary conductances, with r solved from the regularity equations
SKEW_GASKET_D = np.array([[-2.3, 1.0, 1.3], [1.0, -1.8, 0.8], [1.3, 0.8, -2.1]])
SKEW_GASKET_R = [0.5628759129987719, 0.6349840097708683, 0.6006323915912465]


def chain_spec(cells):
    """``cells`` cells in a row with two boundary points: corner 1 of cell
    ``i`` is corner 0 of cell ``i + 1``."""
    return FractalSpec(f"chain:{cells}", cells, 2, (0, cells - 1),
                       tuple((i, 1, i + 1, 0) for i in range(cells - 1)))


def tetra_spec():
    """Four cells, each glued to every other at one corner: four boundary
    points."""
    rules = tuple((i, a, a, i) for i in range(4) for a in range(i + 1, 4))
    return FractalSpec("tetra", 4, 4, (0, 1, 2, 3), rules)


@functools.cache
def builtin_hs(name):
    """Harmonic structure of a builtin spec named ``kind:param``."""
    kind, param = name.split(":")
    return HarmonicStructure.build(generate_spec(kind, int(param)))


def shortest_pair_weights(lg, W):
    """Smallest weight laid on each vertex pair ``(u, v)``, ``u < v``, over
    the corner pairs of every cell of ``lg`` (``W`` is ``[pairs, cells]``)."""
    best = {}
    pairs = list(itertools.combinations(range(lg.cells.shape[1]), 2))
    for c, corners in enumerate(lg.cells.tolist()):
        for p, (a, b) in enumerate(pairs):
            key = (min(corners[a], corners[b]), max(corners[a], corners[b]))
            best[key] = min(best.get(key, np.inf), W[p, c])
    return best


@pytest.fixture(scope="session")
def sg2_spec():
    return generate_spec("gasket", 2)


@pytest.fixture(scope="session")
def sg3_spec():
    return generate_spec("gasket", 3)


@pytest.fixture(scope="session")
def hexa_spec():
    return generate_spec("polygasket", 6)


@pytest.fixture(scope="session")
def nona_spec():
    return generate_spec("polygasket", 9)


# a valid spec whose cells may meet in two points: cell 3 shares two corners
# with each other cell, so three vertex pairs of the level-1 graph carry the
# weights of two cells each
TWO_CORNER_FIELDS = {"name": "two-corner", "letters": 4, "boundary": 3,
                     "fixed_letters": [2, 0, 1],
                     "glue": [[0, 0, 2, 1], [0, 2, 1, 1], [1, 0, 2, 2],
                              [1, 0, 3, 0], [1, 1, 3, 1], [2, 1, 3, 2]]}


@pytest.fixture(scope="session")
def two_corner_hs():
    hs = HarmonicStructure.build(FractalSpec.from_json_dict(TWO_CORNER_FIELDS))
    # the equal-weight solve of this spec
    assert np.allclose(hs.r, 0.625, atol=1e-12)
    return hs


@pytest.fixture(scope="session")
def sg2_hs(sg2_spec):
    return HarmonicStructure.build(sg2_spec, UNIT_TRIANGLE_D)


@pytest.fixture(scope="session")
def sg3_hs(sg3_spec):
    return HarmonicStructure.build(sg3_spec)


@pytest.fixture(scope="session")
def hexa_hs(hexa_spec):
    return HarmonicStructure.build(hexa_spec)


@pytest.fixture(scope="session")
def nona_hs(nona_spec):
    return HarmonicStructure.build(nona_spec)


@pytest.fixture(scope="session")
def sg2_ctx(sg2_hs):
    return MetricContext(sg2_hs, default_tuple(sg2_hs))


@pytest.fixture(scope="session")
def hexa_ctx(hexa_hs):
    return MetricContext(hexa_hs, default_tuple(hexa_hs))
