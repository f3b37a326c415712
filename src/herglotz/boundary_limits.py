"""Distributional boundary limits through normalized second antiderivatives.

For continuous H on [a, b], the normalized twice-antiderivative h (h'' = H,
h(a) = h(b) = 0) is

    h'(x) = int_a^x H(t) dt - (1/(b-a)) int_a^b (b-t) H(t) dt,
    h(x)  = int_a^x h'(t) dt,

with sup-norm estimates ||h|| <= (b-a) ||h'|| and ||h'|| <= (3/2)(b-a) ||H||.
Pairing such an h with a function f that behaves simply above (a, b) has a
boundary limit expressible by finite data at height delta plus improper corner
integrals; the same limit is the pairing of h'' against an explicit profile
Phi(t) which vanishes at both endpoints and does not depend on delta.

Both sides share one code path: the side enters only as the sign sgn = +-1 of
the height, so every formula evaluates f at x + sgn*i*y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .catalog import AnalyticFunction, _interior_kinks
from .errors import NonSimpleBehaviorError, SpecError
from .extraction import _side_sign, sup_abs_growth
from .measures import TestFunction
from .quadrature import _lobatto, adaptive_quad, quad_power_weighted_zero

__all__ = [
    "normalized_antiderivative",
    "c02_from_callables",
    "PhiProfile",
    "boundary_functional",
    "phi_profile",
    "pair_with_phi",
    "boundary_limit_order_m",
]

MAX_ORDER = 4
_GROWTH_MARGIN = 0.35


def c02_from_callables(h, h1, h2, a: float, b: float) -> TestFunction:
    """Wrap analytically known h, h', h'' on [a, b] (h must vanish at a and b)."""
    if not a < b:
        raise SpecError("require a < b")
    for x in (a, b):
        if abs(complex(np.asarray(h(np.array([x])), dtype=complex)[0])) > 1e-12:
            raise SpecError("h must vanish at both endpoints")
    return TestFunction(h, (a, b), derivs=(h1, h2))


def _cheb_interpolate(fn: Callable, a: float, b: float, tol: float = 1e-13,
                      max_deg: int = 1024) -> Chebyshev:
    deg = 16
    while True:
        re = Chebyshev.interpolate(lambda x: np.asarray(fn(x), dtype=complex).real,
                                   deg, domain=[a, b])
        im = Chebyshev.interpolate(lambda x: np.asarray(fn(x), dtype=complex).imag,
                                   deg, domain=[a, b])
        coef = re.coef + 1j * im.coef
        scale = np.max(np.abs(coef))
        tail = np.max(np.abs(coef[-4:])) if scale > 0 else 0.0
        if deg >= max_deg or scale == 0.0 or tail <= tol * scale:
            return Chebyshev(coef, domain=[a, b])
        deg *= 2


def normalized_antiderivative(H: Callable, a: float, b: float, *,
                              tol: float = 1e-13) -> TestFunction:
    """Build the normalized h with h'' = H and h(a) = h(b) = 0, supported on [a, b]."""
    if not a < b:
        raise SpecError("require a < b")
    series = _cheb_interpolate(H, a, b, tol=tol)
    G = series.integ()
    G0 = G - G(a)
    # (1/(b-a)) * int_a^b (b-t) H(t) dt equals the mean of int_a^x H over [a, b].
    G0I = G0.integ()
    c_lin = (G0I(b) - G0I(a)) / (b - a)
    h1_series = G0 - c_lin
    h_int = h1_series.integ()
    h_series = h_int - h_int(a)
    hb = h_series(b)

    def h(x):
        x = np.asarray(x, dtype=float)
        return h_series(x) - (x - a) / (b - a) * hb

    def h1(x):
        return h1_series(np.asarray(x, dtype=float)) - hb / (b - a)

    return TestFunction(h, (a, b), derivs=(h1, H))


def _require_simple(f: AnalyticFunction, a: float, b: float, side: str,
                    max_beta: float, what: str):
    beta = sup_abs_growth(f, a, b, side=side)
    if beta > max_beta + _GROWTH_MARGIN:
        raise NonSimpleBehaviorError(
            f"{what}: |f| grows like y^-{beta:.2f} on [{a}, {b}] {side} side, "
            f"exceeding the admissible exponent {max_beta}")


def _corners(f: AnalyticFunction, xs, delta: float, m: int, sgn: float,
             atol: float) -> np.ndarray:
    """int_0^delta y^m f(x + sgn*i*y) dy for each x in xs, one point at a time."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        out[i], _ = quad_power_weighted_zero(lambda y: f(x + sgn * 1j * y), delta, m,
                                             atol=atol)
    return out


def boundary_functional(f: AnalyticFunction, h02: TestFunction, delta: float, *,
                        side: str = "upper", atol: float = 1e-11) -> complex:
    """Boundary limit of int h(x) f(x + iy) dx as y -> +0 (or y -> -0 for the lower side).

    This is the order-1 limit plus the endpoint terms h'(b) E(b) - h'(a) E(a),
    E(x) = int_0^delta y f(x + sgn*i*y) dy, that integration by parts leaves
    when h' does not vanish at a and b.
    """
    a, b = h02.support
    val = boundary_limit_order_m(f, h02, a, b, delta, 1, side=side, atol=atol)
    e_a, e_b = _corners(f, (a, b), delta, 1, _side_sign(side), atol)
    h1a, h1b = h02.derivative(1)(np.array([a, b]))
    return complex(val + h1b * e_b - h1a * e_a)


def _barycentric(ts: np.ndarray, vs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Second-form barycentric interpolant on Lobatto nodes ts at the points t;
    a point on a node takes that node's value."""
    n = len(ts)
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = t[:, None] - ts
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = w / diff
        out = np.sum(q * vs, axis=1) / np.sum(q, axis=1)
    on_node = hit.any(axis=1)
    out[on_node] = vs[hit[on_node].argmax(axis=1)]
    return out


@dataclass(frozen=True)
class PhiProfile:
    """Sampled endpoint-vanishing profile representing the boundary limit on C02[a, b].

    The profile is analytic away from the boundary support of the underlying
    function, so it is sampled on Chebyshev-Lobatto nodes per analyticity
    segment and interpolated barycentrically segment by segment.
    """

    a: float
    b: float
    delta: float
    segments: tuple  # ((lo, hi, nodes, values), ...)

    def _samples(self):
        """(node, value) pairs in order; a segment's first sample is skipped
        when it repeats the previous segment's last node."""
        out, last = [], None
        for _, _, ts, vs in self.segments:
            skip = int(last is not None and ts[0] == last)
            out.extend(zip(ts[skip:], vs[skip:]))
            last = ts[-1]
        return out

    @property
    def nodes(self) -> tuple:
        return tuple(t for t, _ in self._samples())

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self._samples())

    def rows(self):
        return [(float(t), complex(v).real, complex(v).imag) for t, v in self._samples()]


def phi_profile(f: AnalyticFunction, a: float, b: float, delta: float, *,
                nodes: int = 129, side: str = "upper",
                atol: float = 1e-11) -> PhiProfile:
    """Sample the profile Phi against which h'' pairs to give the boundary limit.

    Phi(t) = int_t^b (x + i delta - t) f(x + i delta) dx
             - (b-t)/(b-a) * int_a^b (x + i delta - a) f(x + i delta) dx
             + (t-a)/(b-a) * int_0^delta y f(b + iy) dy
             + (b-t)/(b-a) * int_0^delta y f(a + iy) dy
             - int_0^delta y f(t + iy) dy
    on the upper side; the lower side replaces i by -i throughout.

    The sample splits [a, b] at known boundary-support points of f, where Phi
    is continuous but can fail to be differentiable.
    """
    if delta <= 0 or not a < b:
        raise SpecError("require a < b and delta > 0")
    if nodes < 5:
        raise SpecError("need at least 5 profile nodes")
    sgn = _side_sign(side)
    _require_simple(f, a, b, side, 1.0, "phi_profile")

    edges = [a] + _interior_kinks(f, a, b) + [b]
    n_seg = len(edges) - 1
    per_seg = max(9, int(math.ceil(nodes / n_seg)))

    iy = sgn * 1j * delta
    line = lambda x: f(np.asarray(x, dtype=float) + iy)
    s1, _ = adaptive_quad(lambda x: (x + iy - a) * line(x), a, b, atol=atol)
    corner_a, corner_b = _corners(f, (a, b), delta, 1, sgn, atol)

    def phi_at(t: float, e_t: complex) -> complex:
        if t == a:
            p = s1
        elif t < b:
            p, _ = adaptive_quad(lambda x: (x + iy - t) * line(x), t, b, atol=atol)
        else:
            p = 0j
        w_b = (t - a) / (b - a)
        w_a = (b - t) / (b - a)
        return complex(p - w_a * s1 + w_b * corner_b + w_a * corner_a - e_t)

    # Neighbouring segments share their edge node (the Lobatto ends are
    # pinned), so each node is evaluated once; E at a and b is the corner pair.
    step = per_seg - 1
    seg_ts = [_lobatto(lo, hi, per_seg) for lo, hi in zip(edges[:-1], edges[1:])]
    ts = np.concatenate([seg_ts[0][:1]] + [t[1:] for t in seg_ts])
    e_ts = np.concatenate(([corner_a], _corners(f, ts[1:-1], delta, 1, sgn, atol), [corner_b]))
    vs = tuple(phi_at(t, e_t) for t, e_t in zip(ts.tolist(), e_ts))
    segments = tuple((float(lo), float(hi), tuple(ts[k * step:(k + 1) * step + 1].tolist()),
                      vs[k * step:(k + 1) * step + 1])
                     for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])))
    return PhiProfile(float(a), float(b), float(delta), segments)


def pair_with_phi(profile: PhiProfile, h02: TestFunction, *,
                  atol: float = 1e-10) -> complex:
    """Quadrature of h'' against the profile interpolant, segment by segment."""
    a, b = h02.support
    if abs(profile.a - a) > 1e-12 or abs(profile.b - b) > 1e-12:
        raise SpecError("profile and test intervals do not match")
    h2 = h02.derivative(2)
    total = 0j
    for lo, hi, ts, vs in profile.segments:
        ts_arr, vs_arr = np.asarray(ts), np.asarray(vs)
        val, _ = adaptive_quad(
            lambda t: h2(t) * _barycentric(ts_arr, vs_arr,
                                           np.atleast_1d(np.asarray(t, dtype=float))),
            lo, hi, atol=atol)
        total += val
    return complex(total)


def _test_derivative(test: TestFunction, k: int, a: float, b: float,
                     cheb: Optional[Chebyshev]):
    if len(test.derivs) >= k:
        return test.derivative(k), cheb
    if cheb is None:
        cheb = _cheb_interpolate(test.__call__, a, b)
    return cheb.deriv(k), cheb


def boundary_limit_order_m(f: AnalyticFunction, test: TestFunction, a: float,
                           b: float, delta: float, m: int, *,
                           side: str = "upper", atol: float = 1e-11) -> complex:
    """Order-m distributional boundary limit of int test(x) f(x +- iy) dx.

    Requires y^m f(x + iy) bounded over the box; the test function must vanish
    at a and b together with its first m+1 derivatives' usage region (supply
    derivatives or let a Chebyshev proxy differentiate).
    """
    if not 0 <= m <= MAX_ORDER:
        raise SpecError(f"order m must lie in [0, {MAX_ORDER}]")
    if delta <= 0 or not a < b:
        raise SpecError("require a < b and delta > 0")
    sgn = _side_sign(side)
    _require_simple(f, a, b, side, float(m) if m > 0 else 0.5,
                    "boundary_limit_order_m")

    total = 0j
    cheb = None
    line = lambda x: f(np.asarray(x, dtype=float) + sgn * 1j * delta)
    for k in range(m + 1):
        dk, cheb = _test_derivative(test, k, a, b, cheb)
        term, _ = adaptive_quad(lambda x: np.asarray(dk(x), dtype=complex) * line(x),
                                a, b, atol=atol)
        total += (sgn * 1j * delta) ** k / math.factorial(k) * term

    dtop, cheb = _test_derivative(test, m + 1, a, b, cheb)
    rem, _ = adaptive_quad(
        lambda x: np.asarray(dtop(x), dtype=complex) * _corners(f, x, delta, m, sgn, atol),
        a, b, atol=atol * 10)
    total += (sgn * 1j) ** (m + 1) / math.factorial(m) * rem
    return complex(total)
