import numpy as np
import pytest
from hypothesis import settings

from herglotz import AnalyticFunction, CatalogSpec, catalog, catalog_build, measures, quadrature

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


@pytest.fixture
def evaluated(monkeypatch):
    """Panels evaluated through ``quadrature._panels``, their spans and the node
    count of every integrand call, while the test runs."""
    seen = {"panels": 0, "calls": [], "spans": []}
    panels = quadrature._panels

    def counted(f, lo, hi, rows=None):
        seen["panels"] += np.size(lo)
        seen["spans"].extend(zip(lo, hi))

        def g(x, *node_rows):
            seen["calls"].append(np.size(x))
            return f(x, *node_rows)

        return panels(g, lo, hi, rows)

    monkeypatch.setattr(quadrature, "_panels", counted)
    return seen


@pytest.fixture
def density_points(monkeypatch):
    """Points handed to ``DensityPart.__call__`` while the test runs."""
    seen = {"points": 0}
    call = measures.DensityPart.__call__

    def counted(self, x):
        seen["points"] += np.size(x)
        return call(self, x)

    monkeypatch.setattr(measures.DensityPart, "__call__", counted)
    return seen


@pytest.fixture
def function_points(monkeypatch):
    """Points handed to ``AnalyticFunction.__call__`` and the number of its
    calls while the test runs."""
    seen = {"points": 0, "calls": 0}
    call = catalog.AnalyticFunction.__call__

    def counted(self, z):
        seen["points"] += np.size(z)
        seen["calls"] += 1
        return call(self, z)

    monkeypatch.setattr(catalog.AnalyticFunction, "__call__", counted)
    return seen
