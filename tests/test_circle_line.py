import numpy as np
import pytest
from scipy.integrate import quad

from herglotz import (Atom, BoundaryMeasure, CatalogSpec, LimitSchedule,
                      RadiusSchedule, catalog_build,
                      circle_limit, circle_measure_functional,
                      consistency_gap, inversion_duality_gap,
                      joined_distribution_check, star_reflect, to_disc)
from herglotz.errors import SpecError
from herglotz.measures import DensityPart, TestFunction
from herglotz.testing import constant_one, smooth_bump


def _herglotz_atom_at_angle_zero():
    # phi(z) = (1+z)/(1-z): transform of the 2*pi point mass at angle 0
    return catalog_build(CatalogSpec("disc_herglotz",
                                     {"measure": BoundaryMeasure((Atom(0.0, 2 * np.pi),), (), "circle"),
                                      "constant": 0.0}))


def test_circle_functional_constant_phi():
    from herglotz.catalog import AnalyticFunction
    phi = AnalyticFunction(lambda z: np.full(np.asarray(z, dtype=complex).shape, 0.7 - 0.2j),
                           "disc")
    test = smooth_bump(-2.0, 2.0)
    for r in (0.3, 0.9):
        assert abs(circle_measure_functional(phi, r, test)) < 1e-12


def test_circle_limit_recovers_atom():
    phi = _herglotz_atom_at_angle_zero()
    test = smooth_bump(-1.0, 1.0)
    got = circle_limit(phi, test)
    got.require_converged()
    # weak* limit pairs the test against 2*pi delta at angle 0
    expect = 2.0 * np.pi * complex(test(np.array([0.0]))[0])
    assert abs(got.value - expect) <= 1e-6 * abs(expect)


def _disc_cosine(c):
    # phi(z) = c + z inside the circle: the transform of the density cos t.
    dens = DensityPart((-np.pi, np.pi),
                       lambda t: np.cos(np.asarray(t, dtype=float)).astype(complex))
    return catalog_build(CatalogSpec("disc_herglotz",
                                     {"measure": BoundaryMeasure((), (dens,), "circle"),
                                      "constant": c}))


def test_circle_limit_recovers_density():
    phi = _disc_cosine(0.1j)
    test = smooth_bump(-2.0, 2.0)
    got = circle_limit(phi, test)
    re, _ = quad(lambda t: (test(np.array([t]))[0] * np.cos(t)).real, -2.0, 2.0,
                 limit=200)
    assert abs(got.value - re) <= 1e-6 * max(1.0, abs(re))


def test_full_period_circle_pairing():
    # Pairing cos t with the circle measure of the 2*pi atom at angle 0 gives
    # 2 pi r exactly; the peak of width 1 - r sits inside a full period.
    phi = _herglotz_atom_at_angle_zero()
    cos_t = TestFunction(lambda t: np.cos(np.asarray(t, dtype=float)) + 0j,
                         (-np.inf, np.inf))
    for r in (0.9, 0.999, 0.9999):
        assert abs(circle_measure_functional(phi, r, cos_t) - 2 * np.pi * r) <= 1e-12
    got = circle_limit(phi, cos_t)
    assert got.converged
    assert abs(got.value - 2 * np.pi) <= 1e-10


def test_circle_functional_test_across_pi():
    # The disc cosine's circle measure at radius r has density r cos t, so a
    # bump on (2.5, 4.0), across the ends of (-pi, pi], pairs to r int bump cos
    # whole; so does its shift by one period.
    phi = _disc_cosine(0.2j)
    r, lo, hi = 0.9, 2.5, 4.0
    ref, _ = quad(lambda t: (smooth_bump(lo, hi)(np.array([t]))[0] * np.cos(t)).real,
                  lo, hi, epsabs=1e-13, limit=200)
    for shift in (0.0, -2.0 * np.pi):
        got = circle_measure_functional(phi, r, smooth_bump(lo + shift, hi + shift))
        assert abs(got - r * ref) <= 1e-9, shift


def test_circle_functional_linearity():
    phi = _herglotz_atom_at_angle_zero()
    t1 = smooth_bump(-1.0, 1.0)
    t2 = smooth_bump(-0.5, 1.5)
    both = TestFunction(lambda x: t1(x) + 3.0 * t2(x), (-1.0, 1.5))
    r = 0.9
    lhs = circle_measure_functional(phi, r, both)
    rhs = circle_measure_functional(phi, r, t1) + 3.0 * circle_measure_functional(phi, r, t2)
    assert abs(lhs - rhs) < 1e-10


def test_circle_functional_star_relation(tan_fn):
    phi = to_disc(tan_fn)
    phi_star = to_disc(star_reflect(tan_fn))
    test = smooth_bump(0.3, 1.2)  # real test
    r = 0.97

    def star_disc(z):
        z = np.asarray(z, dtype=complex)
        return -np.conj(phi.fn(1.0 / np.conj(z)))

    from herglotz.catalog import AnalyticFunction
    mu_star = circle_measure_functional(AnalyticFunction(star_disc, "disc"), r, test)
    mu = circle_measure_functional(phi, r, test)
    assert abs(mu_star - np.conj(mu)) <= 1e-10


def test_circle_measure_functional_rejects_radius():
    phi = _herglotz_atom_at_angle_zero()
    with pytest.raises(SpecError):
        circle_measure_functional(phi, 1.5, smooth_bump(-1.0, 1.0))


def test_circle_measure_functional_rejects_half_plane(tan_fn):
    # The mirror image of r e^{it} is e^{it}/r only in the disc picture.
    with pytest.raises(SpecError):
        circle_measure_functional(tan_fn, 0.9, smooth_bump(-1.0, 1.0))


def test_radius_schedule():
    with pytest.raises(SpecError):
        RadiusSchedule(y0=1.0)
    sched = RadiusSchedule(steps=8, order=6)
    assert isinstance(sched, LimitSchedule)
    assert np.array_equal(sched.heights, 0.5 * 0.5 ** np.arange(8))


def test_consistency_constant():
    from herglotz.catalog import AnalyticFunction
    c = 1.5 - 0.4j
    f = AnalyticFunction(lambda z: np.full(np.asarray(z, dtype=complex).shape, c),
                         "half-plane")
    test = smooth_bump(0.2, 1.3)
    rep = consistency_gap(f, test)
    assert rep.gap <= 1e-10
    re, _ = quad(lambda s: (test(np.array([s]))[0] * 2.0 / (1 + s * s)).real,
                 0.2, 1.3, limit=200)
    assert abs(rep.line - (-1j) * c * re) <= 1e-9


def test_consistency_tan(tan_fn):
    test = smooth_bump(0.2, 1.3)
    rep = consistency_gap(tan_fn, test)
    assert rep.gap <= 1e-5
    re, _ = quad(lambda s: (test(np.array([s]))[0] * np.tan(s) * 2.0 / (1 + s * s)).real,
                 0.2, 1.3, limit=300)
    assert abs(rep.circle - (-1j) * re) <= 1e-5
    assert abs(rep.line - (-1j) * re) <= 1e-6


def test_consistency_sqrt(sqrt_fn):
    test = smooth_bump(-4.0, -1.0)
    rep = consistency_gap(sqrt_fn, test)
    assert rep.gap <= 1e-5
    re, _ = quad(lambda s: (test(np.array([s]))[0] * np.sqrt(-s) * 2.0 / (1 + s * s)).real,
                 -4.0, -1.0, limit=300)
    assert abs(rep.line - re) <= 1e-7  # i * sqrt(|s|) * (-i) = sqrt(|s|)


def test_consistency_report_json(tan_fn):
    rep = consistency_gap(tan_fn, smooth_bump(0.2, 1.3))
    data = rep.to_json()
    assert set(data) == {"circle", "line", "gap", "r_sequence", "y_sequence",
                         "circle_error", "line_error"}
    assert [data["circle_error"], data["line_error"]] == [rep.circle_error, rep.line_error]
    assert len(data["r_sequence"]) > 0 and len(data["y_sequence"]) > 0


def test_duality_minus_inverse(minus_inverse):
    test = smooth_bump(1.0, 4.0)
    rep = inversion_duality_gap(minus_inverse, test)
    assert rep.gap <= 1e-8
    # both sides equal -int test(u)/(u(1+u^2)) du
    re, _ = quad(lambda u: (test(np.array([u]))[0] * (-1.0 / (u * (1 + u * u)))).real,
                 1.0, 4.0, limit=300)
    assert abs(rep.circle - re) <= 1e-9
    assert abs(rep.line - re) <= 1e-9


def test_duality_constant():
    from herglotz.catalog import AnalyticFunction
    f = AnalyticFunction(lambda z: np.full(np.asarray(z, dtype=complex).shape, 2.0 + 1j),
                         "half-plane")
    rep = inversion_duality_gap(f, smooth_bump(1.0, 4.0))
    assert rep.gap <= 1e-10


def test_duality_tan(tan_fn):
    rep = inversion_duality_gap(tan_fn, smooth_bump(2.0, 3.0))
    assert rep.gap <= 1e-5


def test_duality_rejects_support_through_zero(minus_inverse):
    with pytest.raises(SpecError):
        inversion_duality_gap(minus_inverse, smooth_bump(-1.0, 4.0))


def test_joined_constant():
    from herglotz.catalog import AnalyticFunction
    f = AnalyticFunction(lambda z: np.full(np.asarray(z, dtype=complex).shape, 0.8 - 0.3j),
                         "half-plane")
    rep = joined_distribution_check(f, constant_one())
    assert rep.gap <= 1e-10


def test_joined_minus_inverse(minus_inverse):
    rep = joined_distribution_check(minus_inverse, constant_one())
    assert rep.gap <= 1e-6
    # both sides carry the full-period pairing 2*pi
    assert abs(rep.circle - 2.0 * np.pi) <= 1e-6
    assert abs(rep.line - 2.0 * np.pi) <= 1e-8


def test_joined_tan(tan_fn):
    rep = joined_distribution_check(tan_fn, smooth_bump(0.2, 1.3))
    assert rep.gap <= 1e-4
