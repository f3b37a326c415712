import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from herglotz import (Atom, BoundaryMeasure, CatalogSpec, LimitSchedule,
                      atomic_mass_at, atomic_mass_at_infinity,
                      catalog_build, density_at, density_grid,
                      extract_functional, simple_scan, star_reflect,
                      vladimirov_norm)
from herglotz.extraction import atomic_mass_batch, sup_abs_growth
from herglotz.extrapolation import best_limit
from herglotz.errors import NonSimpleBehaviorError
from herglotz.catalog import AnalyticFunction
from herglotz.measures import TestFunction
from herglotz.testing import constant_one, smooth_bump

VLADIMIROV_COEFF = 0.5 * (1.0 + np.sqrt(2.0))


def _oracle_pairing(test, dens, lo, hi):
    re, _ = quad(lambda x: (test(np.array([x]))[0] * dens(x)).real, lo, hi, limit=300)
    im, _ = quad(lambda x: (test(np.array([x]))[0] * dens(x)).imag, lo, hi, limit=300)
    return re + 1j * im


def test_extract_power_density(sqrt_fn):
    test = smooth_bump(-4.0, -1.0)
    got = extract_functional(sqrt_fn, test)
    oracle = _oracle_pairing(test, lambda x: np.sqrt(-x) / (np.pi * (1 + x * x)), -4, -1)
    assert got.converged
    assert abs(got.value - oracle) <= 1e-6 * abs(oracle)


def test_extract_tan_away_from_poles(tan_fn):
    got = extract_functional(tan_fn, smooth_bump(0.2, 1.3))
    assert got.converged
    assert abs(got.value) < 1e-8


def test_extract_log_density():
    f = catalog_build(CatalogSpec("power_log", {"p": 0.0}))  # log z
    test = smooth_bump(-4.0, -1.0)
    got = extract_functional(f, test)
    oracle = _oracle_pairing(test, lambda x: 1.0 / (1 + x * x), -4, -1)
    assert abs(got.value - oracle) <= 1e-6 * abs(oracle)


def test_extract_reports_sequence(sqrt_fn):
    got = extract_functional(sqrt_fn, smooth_bump(-3.0, -2.0))
    assert len(got.sequence) == LimitSchedule().steps
    data = got.to_json()
    assert set(data) == {"value", "error", "sequence"}


def test_density_at_values(sqrt_fn, tan_fn):
    d = density_at(sqrt_fn, -1.0)
    assert abs(d.value - 1.0 / (2.0 * np.pi)) <= 1e-6 / (2.0 * np.pi)
    f = catalog_build(CatalogSpec("power_over_log", {"p": 0.0}))
    d2 = density_at(f, -np.e)
    expect = -1.0 / ((1.0 + np.e ** 2) * (np.pi ** 2 + 1.0))
    assert abs(d2.value - expect) <= 1e-6 * abs(expect)
    d3 = density_at(tan_fn, 1.0)
    assert abs(d3.value) < 1e-10


def test_scalar_extraction_matches_batched(sqrt_fn, tan_fn):
    d = density_at(sqrt_fn, -1.7)
    vals, errs = density_grid(sqrt_fn, [-1.7])
    assert d.value == vals[0] and d.error_estimate == errs[0]
    assert len(d.sequence) == LimitSchedule().steps
    x = 3.0 * np.pi / 2.0
    masses, _ = atomic_mass_batch(tan_fn, [x])
    assert atomic_mass_at(tan_fn, x) == masses[0]


def test_batches_sample_only_the_heights_best_limit_reads(tan_fn, sqrt_fn):
    # The default schedule's second height (y = 0.25) is never read: the
    # batches skip it and return the bits of best_limit over every height.
    sched, xs = LimitSchedule(), np.array([-2.5, -0.3, 0.7, 1.9])
    ys = sched.heights
    for f in (tan_fn, sqrt_fn):
        points = []
        counted = AnalyticFunction(lambda z, f=f: points.append(np.size(z)) or f(z))
        Z = xs[None, :] + 1j * ys[:, None]
        want = best_limit(ys, (f(Z) - f(np.conj(Z))) / (2j * np.pi * (1.0 + xs * xs)),
                          order=sched.order)
        got = density_grid(counted, xs, sched)
        assert sum(points) == 2 * (sched.steps - 1) * xs.size
        assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64))
                   for g, w in zip(got, want))
        want = best_limit(ys, ys[:, None] * f(Z) / (1j * (1.0 + xs * xs)),
                          order=sched.order)
        got = atomic_mass_batch(f, xs, sched)
        assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64))
                   for g, w in zip(got, want))


def test_star_covariance_of_extract():
    f = catalog_build(CatalogSpec("power", {"p": 0.5 + 0.2j}))
    bump = smooth_bump(-4.0, -1.0)
    test = TestFunction(lambda x: (1.0 + 0.5j) * bump(x), bump.support)
    conj_test = TestFunction(lambda x: np.conj(test(x)), test.support)
    lhs = extract_functional(star_reflect(f), test)
    rhs = extract_functional(f, conj_test)
    tol = 2.0 * (lhs.error_estimate + rhs.error_estimate) + 1e-10
    assert abs(lhs.value - np.conj(rhs.value)) <= max(tol, 1e-9)


def test_atomic_mass_tan(tan_fn):
    for n in (1, -1, 3):
        x = np.pi * n / 2.0
        mass = atomic_mass_at(tan_fn, x)
        assert abs(mass - 1.0 / (1.0 + x * x)) <= 1e-6 / (1.0 + x * x)


def test_atomic_mass_minus_inverse(minus_inverse):
    assert abs(atomic_mass_at(minus_inverse, 0.0) - 1.0) < 1e-12


def test_atomic_mass_sigma_log():
    f = catalog_build(CatalogSpec("tan_sigma_log", {"sigma": 1.0}))
    x = np.exp(np.pi / 2.0)
    expect = 1.0 / (np.exp(np.pi / 2) + np.exp(-np.pi / 2))
    assert abs(atomic_mass_at(f, x) - expect) <= 1e-6 * expect


def test_atomic_mass_exactness_on_cauchy_atoms():
    for s0 in (0.0, 1.0, -1.0, 5.0):
        f = catalog_build(CatalogSpec("cauchy",
                                      {"measure": BoundaryMeasure((Atom(s0, 1.0),)),
                                       "constant": 0.3}))
        assert abs(atomic_mass_at(f, s0) - 1.0) <= 1e-10


def test_atomic_mass_at_infinity(tan_fn, sqrt_fn, identity_fn):
    assert abs(atomic_mass_at_infinity(tan_fn)) < 1e-10
    assert abs(atomic_mass_at_infinity(sqrt_fn)) < 1e-8
    assert abs(atomic_mass_at_infinity(identity_fn) - 1.0) < 1e-12
    affine = catalog_build(CatalogSpec("rational",
                                       {"a": 2, "b": 3, "poles": [5.0], "coeffs": [4 + 1j]}))
    assert abs(atomic_mass_at_infinity(affine) - 2.0) < 1e-10


def test_nan_atomic_mass_limits_diverge():
    nan_fn = AnalyticFunction(lambda z: np.full(np.shape(z), complex(np.nan, np.nan)),
                              "half-plane")
    with pytest.raises(NonSimpleBehaviorError):
        atomic_mass_at(nan_fn, 0.5)
    with pytest.raises(NonSimpleBehaviorError):
        atomic_mass_at_infinity(nan_fn)


def test_vladimirov_constant(const_i):
    assert vladimirov_norm(const_i) == pytest.approx(0.5, abs=1e-9)


def test_vladimirov_identity_approaches_one(identity_fn):
    v = vladimirov_norm(identity_fn)
    assert 0.99 < v < 1.0


def test_vladimirov_endofunction_bound(tan_fn):
    v = vladimirov_norm(tan_fn)
    assert v <= VLADIMIROV_COEFF * np.tanh(1.0) + 1e-9


def test_simple_scan_power_half(sqrt_fn):
    assert simple_scan(sqrt_fn, (-2.0, -0.5)).bounded


def test_simple_scan_power_three_halves():
    f = catalog_build(CatalogSpec("power", {"p": 1.5}))
    rep = simple_scan(f, (10.0, np.inf))
    assert not rep.bounded
    assert rep.alpha == pytest.approx(0.5, abs=0.1)
    assert simple_scan(f, (-2.0, -0.5)).bounded


def test_simple_scan_tan_pole(tan_fn):
    rep = simple_scan(tan_fn, (1.0, 2.0))
    assert rep.bounded


@pytest.mark.parametrize("window", [(-2.0, -0.5), (-np.inf, -1e3), (1e3, np.inf)])
def test_simple_scan_reads_both_sides(window):
    # For f without star symmetry the scan takes the lower side from f itself;
    # star reflection swaps the sides and must leave the report as it is.
    f = catalog_build(CatalogSpec("power", {"p": 0.5 + 0.3j}))
    assert not f.star_symmetric
    assert simple_scan(f, window) == simple_scan(star_reflect(f), window)


def test_atomic_mass_divergence_raises():
    f = catalog_build(CatalogSpec("power", {"p": -1.5}))  # double-pole-like at 0
    with pytest.raises(NonSimpleBehaviorError):
        atomic_mass_at(f, 0.0)


def test_infinity_blindness(identity_fn):
    got = extract_functional(identity_fn, constant_one())
    assert abs(got.value) <= 1e-8
    assert abs(atomic_mass_at_infinity(identity_fn) - 1.0) <= 1e-10


def test_sup_abs_growth_batched_matches_scalar(tan_fn, minus_inverse):
    us = np.array([-3.0, -0.5, 0.2, 1.0, 4.0])
    vs = np.array([-1.0, 0.5, 0.9, 2.2, 9.0])
    for f in (tan_fn, minus_inverse):
        for side in ("upper", "lower"):
            betas = sup_abs_growth(f, us, vs, nx=9, ny=9, side=side)
            single = [sup_abs_growth(f, u, v, nx=9, ny=9, side=side) for u, v in zip(us, vs)]
            assert betas.shape == us.shape
            assert all(isinstance(b, float) for b in single)
            assert np.max(np.abs(betas - single)) <= 1e-12
    # a pole inside the interval is a y^-1 growth, and only there
    betas = sup_abs_growth(minus_inverse, us, vs)
    assert abs(betas[1] - 1.0) < 0.05 and np.all(np.abs(np.delete(betas, 1)) < 0.05)


_GRID_FUNCTIONS = [CatalogSpec("tan"), CatalogSpec("power", {"p": 0.5}),
                   CatalogSpec("power", {"p": 0.4 + 0.2j}),
                   CatalogSpec("rational", {"a": 0, "b": 0, "poles": [0.0], "coeffs": [1.0]})]
# Points of mixed magnitudes: a sign, a mantissa in [1, 10) and an exponent.
_MIXED = st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99),
                            st.integers(-6, 6)), min_size=1, max_size=12)


@settings(max_examples=20)
@given(st.integers(0, len(_GRID_FUNCTIONS) - 1), _MIXED)
def test_grid_batches_equal_their_point_by_point_calls(which, drawn):
    # reconstruct splits one density_grid and one atomic_mass_batch back per
    # piece, which relies on every column being computed as if alone.
    f = catalog_build(_GRID_FUNCTIONS[which])
    xs = np.array([s * m * 10.0 ** e for s, m, e in drawn])
    with np.errstate(all="ignore"):
        for batch in (density_grid, atomic_mass_batch):
            got = batch(f, xs)
            for i, x in enumerate(xs):
                one = batch(f, xs[i:i + 1])
                for g, w in zip(got, one):
                    assert np.array_equal(g[i:i + 1].view(np.uint64), w.view(np.uint64))
