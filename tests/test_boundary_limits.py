import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from herglotz import (CatalogSpec, MobiusMatrix, TestFunction, boundary_functional,
                      boundary_limit_order_m, c02_from_callables, catalog_build,
                      invert_variable, normalized_antiderivative, pair_with_phi,
                      phi_profile, quadrature, star_reflect)
from herglotz.boundary_limits import _barycentric, _corners
from herglotz.catalog import _interior_kinks, compose_mobius
from herglotz.errors import NonSimpleBehaviorError, SpecError
from herglotz.quadrature import _lobatto, _power_weighted_zero, adaptive_quad
from herglotz.extraction import sup_abs_growth
from herglotz.testing import constant_one, smooth_bump


def _phi_closed_form(x, a=-1.0, b=1.0):
    # profile of -1/z on [a, b] containing 0, upper side
    re = ((-x * np.log(abs(x)) if x != 0 else 0.0)
          + (b - x) / (b - a) * a * np.log(abs(a))
          + (x - a) / (b - a) * b * np.log(abs(b)))
    im = (-np.pi * min(0.0, x)
          + np.pi * min(0.0, a) * (b - x) / (b - a)
          + np.pi * min(0.0, b) * (x - a) / (b - a))
    return re + 1j * im


def test_normalized_antiderivative_constant():
    c = normalized_antiderivative(
        lambda x: 2.0 * np.ones(np.shape(x), dtype=float), 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(c(xs) - (xs ** 2 - xs))) < 1e-13
    assert np.max(np.abs(c.derivative(1)(xs) - (2 * xs - 1))) < 1e-13
    assert abs(c(np.array([0.0]))[0]) < 1e-15
    assert abs(c(np.array([1.0]))[0]) < 1e-15


def test_normalized_antiderivative_sine():
    c = normalized_antiderivative(
        lambda x: -np.pi ** 2 * np.sin(np.pi * np.asarray(x, dtype=float)), 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(c(xs) - np.sin(np.pi * xs))) < 1e-12


def test_norm_chain_on_random_polynomials():
    rng = np.random.default_rng(19)
    xs_unit = np.linspace(0.0, 1.0, 400)
    for _ in range(50):
        a = rng.uniform(-3, 0)
        b = a + rng.uniform(0.5, 3)
        coeffs = rng.uniform(-2, 2, size=rng.integers(1, 6))
        H = lambda x, c=coeffs: np.polyval(c, np.asarray(x, dtype=float))
        c02 = normalized_antiderivative(H, a, b)
        xs = a + (b - a) * xs_unit
        nh = np.max(np.abs(c02(xs)))
        nh1 = np.max(np.abs(c02.derivative(1)(xs)))
        nh2 = np.max(np.abs(c02.derivative(2)(xs)))
        assert nh <= (b - a) * nh1 * (1 + 1e-12)
        assert nh1 <= 1.5 * (b - a) * nh2 * (1 + 1e-12)


def test_boundary_functional_continuous_case(minus_inverse):
    h = normalized_antiderivative(
        lambda x: np.cos(np.asarray(x, dtype=float)), 1.0, 2.0)
    got = boundary_functional(minus_inverse, h, 0.4)
    re, _ = quad(lambda x: (h(np.array([x]))[0] * (-1.0 / x)).real, 1.0, 2.0)
    assert abs(got - re) < 1e-9


def test_boundary_functional_principal_value(minus_inverse):
    h = normalized_antiderivative(
        lambda x: 2.0 * np.ones(np.shape(x), dtype=float), -1.0, 1.0)
    got = boundary_functional(minus_inverse, h, 0.5)
    assert abs(got - (-1j * np.pi)) < 1e-10


def test_boundary_functional_delta_independent(minus_inverse):
    h = normalized_antiderivative(
        lambda x: 2.0 * np.ones(np.shape(x), dtype=float), -1.0, 1.0)
    v1 = boundary_functional(minus_inverse, h, 0.25)
    v2 = boundary_functional(minus_inverse, h, 0.5)
    assert abs(v1 - v2) <= 1e-8


def test_boundary_functional_rejects_wild_growth():
    f = catalog_build(CatalogSpec("power", {"p": -1.8}))
    h = normalized_antiderivative(
        lambda x: np.ones(np.shape(x), dtype=float), -1.0, 1.0)
    with pytest.raises(NonSimpleBehaviorError):
        boundary_functional(f, h, 0.3)


def _corners_per_point(f, xs, delta, m, sgn):
    """The loop that _corners replaced: one one-row refinement per point."""
    return np.array([_power_weighted_zero(lambda y, r: f(x + sgn * 1j * y), delta, m, 1,
                                          atol=quadrature._ATOL, rtol=1e-9)[0][0]
                     for x in xs.tolist()])


@pytest.mark.parametrize("sgn", [1.0, -1.0])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("fixture", ["minus_inverse", "sqrt_fn", "tan_fn"])
def test_corners_equal_the_per_point_loop(request, fixture, m, sgn):
    f = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3 * m + (sgn > 0))
    for n in (1, 2, 17, 130):
        xs = rng.uniform(-1.5, 1.5, n)
        got = _corners(f, xs, 0.5, m, sgn)
        want = _corners_per_point(f, xs, 0.5, m, sgn)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_boundary_functional_refines_corners_together(minus_inverse, evaluated,
                                                      monkeypatch):
    # The corner integrals under one outer integrand call are rows of one
    # refinement.  Point by point this took 530 _refine calls; the points
    # evaluated stay the same 54 465 (3 631 panels).
    refine, calls = quadrature._refine, []

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(quadrature, "_refine", counted)
    h = normalized_antiderivative(lambda x: 1.0 + 0.5 * np.asarray(x) - np.asarray(x) ** 2,
                                  -1.0, 1.2)
    boundary_functional(minus_inverse, h, 0.5)
    assert len(calls) <= 25
    assert sum(evaluated["calls"]) == 54465


def test_phi_profile_closed_form(minus_inverse):
    prof = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=21)
    for t, v in zip(prof.nodes, prof.values):
        assert abs(v - _phi_closed_form(t)) <= 1e-10
    assert abs(prof.values[0]) <= 1e-10
    assert abs(prof.values[-1]) <= 1e-10


def test_phi_profile_delta_independent(minus_inverse):
    p1 = phi_profile(minus_inverse, -1.0, 1.0, 0.25, nodes=21)
    p2 = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=21)
    gap = max(abs(a - b) for a, b in zip(p1.values, p2.values))
    assert gap <= 1e-8
    h = normalized_antiderivative(
        lambda x: np.asarray(x, dtype=float) ** 2 + 1.0, -1.0, 1.0)
    assert abs(pair_with_phi(p1, h) - pair_with_phi(p2, h)) <= 1e-8


def test_phi_profile_endpoint_zero_for_catalog(tan_fn, sqrt_fn):
    prof_t = phi_profile(tan_fn, 0.2, 1.3, 0.4, nodes=15)
    assert abs(prof_t.values[0]) < 1e-9 and abs(prof_t.values[-1]) < 1e-9
    prof_s = phi_profile(sqrt_fn, -4.0, -1.0, 0.4, nodes=15)
    assert abs(prof_s.values[0]) < 1e-9 and abs(prof_s.values[-1]) < 1e-9


def test_pair_with_phi_cross_check(minus_inverse):
    h = normalized_antiderivative(
        lambda x: 2.0 * np.ones(np.shape(x), dtype=float), -1.0, 1.0)
    prof = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=33)
    direct = boundary_functional(minus_inverse, h, 0.5)
    paired = pair_with_phi(prof, h)
    assert abs(direct - paired) <= 1e-7


def test_pair_with_phi_linearity(minus_inverse):
    prof = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=33)
    h1 = normalized_antiderivative(
        lambda x: np.asarray(x, dtype=float) ** 2, -1.0, 1.0)
    h2 = normalized_antiderivative(
        lambda x: np.cos(np.asarray(x, dtype=float)), -1.0, 1.0)
    h12 = normalized_antiderivative(
        lambda x: np.asarray(x, dtype=float) ** 2
        + 2.0 * np.cos(np.asarray(x, dtype=float)), -1.0, 1.0)
    lhs = pair_with_phi(prof, h12)
    rhs = pair_with_phi(prof, h1) + 2.0 * pair_with_phi(prof, h2)
    assert abs(lhs - rhs) < 1e-9


def test_composed_profile_splits_at_moved_pole(minus_inverse):
    # -1/(z - 0.3) as a composition must split its profile at 0.3, as the
    # rational built with that pole does.
    shifted = compose_mobius(minus_inverse, MobiusMatrix(1.0, -0.3, 0.0, 1.0))
    direct = catalog_build(CatalogSpec("rational", {"a": 0, "b": 0, "poles": [0.3],
                                                    "coeffs": [1.0]}))
    h = normalized_antiderivative(lambda x: 1.0 + np.asarray(x, dtype=float) ** 2, -1.0, 1.0)
    ref = pair_with_phi(phi_profile(direct, -1.0, 1.0, 0.5), h)
    assert abs(pair_with_phi(phi_profile(shifted, -1.0, 1.0, 0.5), h) - ref) <= 1e-6


def test_inverted_tan_profile_splits_at_its_pole(tan_fn):
    prof = phi_profile(invert_variable(tan_fn), 0.2, 0.5, 0.1)
    pole = 2.0 / (3.0 * math.pi)  # -1/p for the tan pole p = -3 pi/2
    assert list(prof.edges) == [0.2, pytest.approx(pole, rel=1e-15), 0.5]


def test_inverted_tan_profile_over_its_accumulation_point(tan_fn):
    # The poles of tan(-1/z) accumulate at 0, inside this interval.
    with pytest.raises(SpecError, match="accumulate"):
        phi_profile(invert_variable(tan_fn), -0.5, 0.5, 0.1)


def _phi_per_node(f, a, b, delta, side, nodes=129):
    """Phi at each profile node from its own quadrature over [t, b] (the
    formula of the phi_profile docstring, one node at a time)."""
    sgn = 1.0 if side == "upper" else -1.0
    iy = sgn * 1j * delta
    edges = [a] + _interior_kinks(f, a, b) + [b]
    per_seg = max(9, int(math.ceil(nodes / (len(edges) - 1))))
    seg_ts = [_lobatto(lo, hi, per_seg) for lo, hi in zip(edges[:-1], edges[1:])]
    ts = np.concatenate([seg_ts[0][:1]] + [t[1:] for t in seg_ts])

    def p(t):
        if t == b:
            return 0j
        return adaptive_quad(lambda x: (x + iy - t) * f(x + iy), t, b,
                             atol=quadrature._ATOL)[0]

    def e(t):
        return _power_weighted_zero(lambda y, r: f(t + sgn * 1j * y), delta, 1, 1,
                                    atol=quadrature._ATOL, rtol=1e-9)[0][0]

    s1, e_a, e_b = p(a), e(a), e(b)
    vals = [p(t) - (b - t) / (b - a) * s1 + (t - a) / (b - a) * e_b
            + (b - t) / (b - a) * e_a - e(t) for t in ts.tolist()]
    return ts, np.array(vals)


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("fixture, a, b", [
    ("tan_fn", -5.0, 5.0), ("minus_inverse", -1.0, 1.0), ("sqrt_fn", -2.0, 1.0),
    ("minus_inverse", 1e4, 1e4 + 3.0), ("sqrt_fn", -100002.0, -100000.0),
    ("tan_fn", 1000.3, 1001.0), ("minus_inverse", -60.0, 40.0),
    ("minus_inverse", 1e4, 1e4 + 5e-9),  # two Lobatto nodes round to one float
])
def test_phi_profile_matches_per_node_reference(request, fixture, a, b, side):
    f = request.getfixturevalue(fixture)
    prof = phi_profile(f, a, b, 0.5, side=side)
    ts, ref = _phi_per_node(f, a, b, 0.5, side)
    assert np.array_equal(np.asarray(prof.nodes), ts)
    gap = np.max(np.abs(np.asarray(prof.values) - ref))
    assert gap <= max(1e-12, 1e-9 * np.max(np.abs(ref)))


def test_phi_profile_evaluation_count(tan_fn):
    # The per-node formula evaluates tan 38 252 times here; one cumulative
    # quadrature plus one corner integral per node needs 9 272.
    seen = [0]

    def counted(z):
        seen[0] += np.size(z)
        return tan_fn.fn(z)

    phi_profile(dataclasses.replace(tan_fn, fn=counted), -5.0, 5.0, 0.5)
    assert seen[0] <= 10_000


@settings(max_examples=24)
@given(which=st.integers(0, 2), coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       a=st.floats(-1.4, -0.6), b=st.floats(0.6, 1.4), delta=st.floats(0.2, 0.8),
       side=st.sampled_from(["upper", "lower"]))
def test_phi_pairing_is_the_boundary_limit(minus_inverse, sqrt_fn, tan_fn, which, coeffs,
                                           a, b, delta, side):
    # The paper's identity: the limit of int h f pairs h'' with Phi.
    f = (minus_inverse, sqrt_fn, tan_fn)[which]
    h = normalized_antiderivative(lambda x: np.polyval(coeffs, np.asarray(x, dtype=float)),
                                  a, b)
    paired = pair_with_phi(phi_profile(f, a, b, delta, side=side), h)
    assert abs(paired - boundary_functional(f, h, delta, side=side)) <= 1e-7


@pytest.mark.parametrize("call", [
    lambda f: boundary_functional(f, constant_one(), 0.5),
    lambda f: boundary_limit_order_m(f, smooth_bump(-1.0, 1.0), -math.inf, math.inf, 0.5, 1),
    lambda f: phi_profile(f, -math.inf, 1.0, 0.5),
    lambda f: phi_profile(f, -1.0, 1.0, math.inf),
    lambda f: phi_profile(f, -1.0, 1.0, math.nan),
], ids=["functional", "order-m", "profile window", "profile inf delta", "profile nan delta"])
def test_non_finite_box_rejected(minus_inverse, call):
    with pytest.raises(SpecError):
        call(minus_inverse)


def _barycentric_per_point(ts, vs, t):
    n = len(ts)
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    out = np.empty(t.shape, dtype=complex)
    for i, ti in enumerate(t):
        diff = ti - ts
        hit = np.nonzero(diff == 0.0)[0]
        if hit.size:
            out[i] = vs[hit[0]]
        else:
            q = w / diff
            out[i] = np.sum(q * vs) / np.sum(q)
    return out


def test_barycentric_matches_per_point_reference():
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(5, 401))
        lo = rng.uniform(-5.0, 5.0)
        ts = _lobatto(lo, lo + rng.uniform(1e-3, 10.0), n)
        vs = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = np.concatenate([rng.uniform(ts[0], ts[-1], int(rng.integers(0, 40))),
                            ts[rng.integers(0, n, 3)]])
        rng.shuffle(t)
        got = _barycentric(ts, vs, t)
        assert np.array_equal(got.view(np.uint64),
                              _barycentric_per_point(ts, vs, t).view(np.uint64))


def test_pair_with_phi_interval_mismatch(minus_inverse):
    prof = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=15)
    h = normalized_antiderivative(lambda x: np.ones(np.shape(x)), -2.0, 1.0)
    with pytest.raises(SpecError):
        pair_with_phi(prof, h)


def test_order_zero_continuous(minus_inverse):
    test = smooth_bump(1.0, 2.0)
    got = boundary_limit_order_m(minus_inverse, test, 1.0, 2.0, 0.4, 0)
    re, _ = quad(lambda x: (test(np.array([x]))[0] * (-1.0 / x)).real, 1.0, 2.0)
    assert abs(got - re) < 1e-8


def test_order_m_gate_sees_a_pole_between_scan_points(minus_inverse):
    # On [-1, 1.2] the pole at 0 falls between the growth scan's abscissae;
    # its kink column still sees the y^-1 growth.
    with pytest.raises(NonSimpleBehaviorError) as err:
        boundary_limit_order_m(minus_inverse, smooth_bump(-1.0, 1.2), -1.0, 1.2, 0.5, 0)
    assert str(err.value) == "boundary_limit_order_m [-1.0, 1.2]: |f| grows like y^-1.00"


@pytest.mark.parametrize("lo, hi, a, b, orders", [
    (-1.0, 1.1, -1.0, 1.1, (2, 3, 4)),
    # A test on a fifth of the box: interpolated over the whole box the bump
    # needs more than the largest degree, and m = 2, 3 were off by 19 and 7e5.
    (0.2, 0.6, -1.0, 1.0, (2, 3)),
])
def test_order_m_limits_agree_past_the_supplied_derivatives(sqrt_fn, lo, hi, a, b, orders):
    # smooth_bump supplies two derivatives; m = 2, 3, 4 need up to the fifth,
    # from an interpolant of the second rather than of the bump itself.
    test = smooth_bump(lo, hi)
    v0 = boundary_limit_order_m(sqrt_fn, test, a, b, 0.5, 0)
    for m in orders:
        assert abs(boundary_limit_order_m(sqrt_fn, test, a, b, 0.5, m) - v0) <= 1e-7


def test_order_one_sokhotski(minus_inverse):
    # even test with value 1 at 0: principal value cancels, i pi remains
    test = smooth_bump(-1.0, 1.0)
    got = boundary_limit_order_m(minus_inverse, test, -1.0, 1.0, 0.5, 1)
    assert abs(got - 1j * np.pi) < 1e-9


def test_order_one_matches_c02_route(minus_inverse):
    test = smooth_bump(-1.0, 1.0)
    h = c02_from_callables(test.__call__, test.derivative(1), test.derivative(2),
                           -1.0, 1.0)
    via_c02 = boundary_functional(minus_inverse, h, 0.5)
    via_order = boundary_limit_order_m(minus_inverse, test, -1.0, 1.0, 0.5, 1)
    assert abs(via_c02 - via_order) <= 1e-7


def test_lower_side_star_symmetry(minus_inverse):
    # lower limit of star(f) conjugates the upper limit of f on real tests
    h = normalized_antiderivative(
        lambda x: 1.0 + np.asarray(x, dtype=float) ** 2, -1.0, 1.0)
    upper = boundary_functional(minus_inverse, h, 0.5, side="upper")
    lower = boundary_functional(star_reflect(minus_inverse), h, 0.5, side="lower")
    assert abs(lower - np.conj(upper)) < 1e-9


def test_direct_integral_agreement_for_holomorphic_crossing(tan_fn):
    # all three limit routes agree with the direct integral where f is
    # holomorphic across the window
    a, b, delta = 0.2, 1.3, 0.4
    test = smooth_bump(a, b)
    h = c02_from_callables(test.__call__, test.derivative(1), test.derivative(2), a, b)
    direct_re, _ = quad(lambda x: (test(np.array([x]))[0] * np.tan(x)).real, a, b,
                        limit=300)
    v1 = boundary_functional(tan_fn, h, delta)
    v2 = pair_with_phi(phi_profile(tan_fn, a, b, delta, nodes=33), h)
    v3 = boundary_limit_order_m(tan_fn, test, a, b, delta, 1)
    for v in (v1, v2, v3):
        assert abs(v - direct_re) <= 1e-8


@pytest.mark.parametrize("spec, a, b, delta", [
    (CatalogSpec("rational", {"a": 0.3 - 0.2j, "b": 1 + 1j, "poles": [0.1, 2.0],
                              "coeffs": [1 + 2j, -0.5j]}), -1.0, 1.5, 0.45),
    (CatalogSpec("power", {"p": 0.3 + 0.4j}), -2.0, -0.5, 0.3),
])
def test_lower_side_matches_star_reflected_upper(spec, a, b, delta):
    # f is not star-symmetric and h'(a), h'(b) != 0, so the lower limit and its
    # endpoint terms differ from the upper ones; the reference is the
    # conjugated upper limit of the star reflection against conj(h).
    f = catalog_build(spec)
    h = normalized_antiderivative(
        lambda x: np.exp(1j * np.asarray(x, dtype=float)) + 0.5 * np.asarray(x), a, b)
    assert np.min(np.abs(h.derivative(1)(np.array([a, b])))) > 0.1
    h_conj = TestFunction(lambda x: np.conj(h(x)), (a, b),
                          derivs=(lambda x: np.conj(h.derivative(1)(x)),
                                  lambda x: np.conj(h.derivative(2)(x))))
    upper = boundary_functional(f, h, delta, side="upper")
    lower = boundary_functional(f, h, delta, side="lower")
    ref = np.conj(boundary_functional(star_reflect(f), h_conj, delta, side="upper"))
    assert type(upper) is complex and type(lower) is complex
    assert abs(lower - ref) <= 1e-12 * (1.0 + abs(ref))
    assert abs(lower - upper) > 1e-3
    low = phi_profile(f, a, b, delta, nodes=15, side="lower")
    up_star = phi_profile(star_reflect(f), a, b, delta, nodes=15, side="upper")
    assert np.max(np.abs(np.asarray(low.values) - np.conj(up_star.values))) <= 1e-12


def test_unknown_side_rejected(minus_inverse):
    h = normalized_antiderivative(lambda x: np.ones(np.shape(x)), -1.0, 1.0)
    test = smooth_bump(-1.0, 1.0)
    with pytest.raises(SpecError):
        boundary_functional(minus_inverse, h, 0.5, side="Lower")
    with pytest.raises(SpecError):
        boundary_limit_order_m(minus_inverse, test, -1.0, 1.0, 0.5, 1, side="Lower")
    with pytest.raises(SpecError):
        phi_profile(minus_inverse, -1.0, 1.0, 0.5, side="Lower")
    with pytest.raises(SpecError):
        sup_abs_growth(minus_inverse, -1.0, 1.0, side="Lower")


def test_phi_profile_lower_side(minus_inverse):
    up = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=15, side="upper")
    low = phi_profile(minus_inverse, -1.0, 1.0, 0.5, nodes=15, side="lower")
    # -1/z is star-symmetric, so the lower profile is the conjugate
    gap = max(abs(a - np.conj(b)) for a, b in zip(low.values, up.values))
    assert gap < 1e-10


def test_order_m_lower_side(minus_inverse):
    test = smooth_bump(-1.0, 1.0)
    up = boundary_limit_order_m(minus_inverse, test, -1.0, 1.0, 0.5, 1, side="upper")
    low = boundary_limit_order_m(minus_inverse, test, -1.0, 1.0, 0.5, 1, side="lower")
    assert abs(low - np.conj(up)) < 1e-9
    assert abs(low + 1j * np.pi) < 1e-9
