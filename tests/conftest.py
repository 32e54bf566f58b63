import numpy as np
import pytest
from hypothesis import settings

from fractaldist.harmonic import HarmonicStructure
from fractaldist.measures import default_tuple
from fractaldist.metrics import MetricContext
from fractaldist.structure import generate_spec

# every run draws the same examples, and slow examples are not failures
settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")

UNIT_TRIANGLE_D = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])


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
