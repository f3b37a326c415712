import numpy as np
import pytest
from hypothesis import settings

from herglotz import AnalyticFunction, CatalogSpec, catalog_build

# Reproducible property tests: the same examples every run, no example database.
settings.register_profile("herglotz", deadline=None, database=None, derandomize=True)
settings.load_profile("herglotz")


@pytest.fixture(scope="session")
def tan_fn():
    return catalog_build(CatalogSpec("tan"))


@pytest.fixture(scope="session")
def minus_inverse():
    # f(z) = -1/z: single simple pole at 0 with unit atomic mass.
    return catalog_build(CatalogSpec("rational",
                                     {"a": 0, "b": 0, "poles": [0.0], "coeffs": [1.0]}))


@pytest.fixture(scope="session")
def sqrt_fn():
    return catalog_build(CatalogSpec("power", {"p": 0.5}))


@pytest.fixture(scope="session")
def identity_fn():
    return AnalyticFunction(lambda z: np.asarray(z, dtype=complex), "half-plane")


@pytest.fixture(scope="session")
def const_i():
    return AnalyticFunction(
        lambda z: np.full(np.asarray(z, dtype=complex).shape, 1j), "half-plane")
