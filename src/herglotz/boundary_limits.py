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
from .errors import SpecError
from .extraction import _require_simple, _side_sign
from .measures import TestFunction
from .quadrature import _MAX_PANELS, _lobatto, _power_weighted_zero, _refine, adaptive_quad

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
_CHEB_TOL = 1e-13


def c02_from_callables(h, h1, h2, a: float, b: float) -> TestFunction:
    """Wrap analytically known h, h', h'' on [a, b] (h must vanish at a and b)."""
    if not a < b:
        raise SpecError("require a < b")
    for x in (a, b):
        if abs(complex(np.asarray(h(np.array([x])), dtype=complex)[0])) > 1e-12:
            raise SpecError("h must vanish at both endpoints")
    return TestFunction(h, (a, b), derivs=(h1, h2))


def _cheb_interpolate(fn: Callable, a: float, b: float) -> Chebyshev:
    """Chebyshev interpolant of fn on [a, b], the degree doubling from 16 up to
    1024 until the last four coefficients fall below _CHEB_TOL of the largest."""
    deg = 16
    while True:
        coef = Chebyshev.interpolate(lambda x: np.asarray(fn(x), dtype=complex),
                                     deg, domain=[a, b]).coef
        scale = np.max(np.abs(coef))
        tail = np.max(np.abs(coef[-4:])) if scale > 0 else 0.0
        if deg >= 1024 or scale == 0.0 or tail <= _CHEB_TOL * scale:
            return Chebyshev(coef, domain=[a, b])
        deg *= 2


def normalized_antiderivative(H: Callable, a: float, b: float) -> TestFunction:
    """Build the normalized h with h'' = H and h(a) = h(b) = 0, supported on [a, b]."""
    if not a < b:
        raise SpecError("require a < b")
    series = _cheb_interpolate(H, a, b)
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


def _corners(f: AnalyticFunction, xs, delta: float, m: int, sgn: float) -> np.ndarray:
    """int_0^delta y^m f(x + sgn*i*y) dy for each x in xs, every point's
    integral refined to its own tolerance in one grouped quadrature."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _power_weighted_zero(lambda y, r: f(xs[r] + sgn * 1j * y), delta, m, xs.size)[0]


def boundary_functional(f: AnalyticFunction, h02: TestFunction, delta: float, *,
                        side: str = "upper") -> complex:
    """Boundary limit of int h(x) f(x + iy) dx as y -> +0 (or y -> -0 for the lower side).

    This is the order-1 limit plus the endpoint terms h'(b) E(b) - h'(a) E(a),
    E(x) = int_0^delta y f(x + sgn*i*y) dy, that integration by parts leaves
    when h' does not vanish at a and b.
    """
    a, b = h02.support
    val = boundary_limit_order_m(f, h02, a, b, delta, 1, side=side)
    e_a, e_b = _corners(f, (a, b), delta, 1, _side_sign(side))
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
    segment and interpolated barycentrically segment by segment.  ``edges``
    are the ends of those pieces; each is a node, shared by both neighbours.
    """

    a: float
    b: float
    delta: float
    edges: tuple
    nodes: tuple
    values: tuple

    def rows(self):
        return [(float(t), complex(v).real, complex(v).imag)
                for t, v in zip(self.nodes, self.values)]


def _check_box(a: float, b: float, delta: float):
    if not (math.isfinite(a) and math.isfinite(b) and a < b and 0.0 < delta < math.inf):
        raise SpecError("require finite a < b and 0 < delta < inf")


def phi_profile(f: AnalyticFunction, a: float, b: float, delta: float, *,
                nodes: int = 129, side: str = "upper") -> PhiProfile:
    """Sample the profile Phi against which h'' pairs to give the boundary limit.

    Phi(t) = int_t^b (x + i delta - t) f(x + i delta) dx
             - (b-t)/(b-a) * int_a^b (x + i delta - a) f(x + i delta) dx
             + (t-a)/(b-a) * int_0^delta y f(b + iy) dy
             + (b-t)/(b-a) * int_0^delta y f(a + iy) dy
             - int_0^delta y f(t + iy) dy
    on the upper side; the lower side replaces i by -i throughout.

    The sample splits [a, b] at known boundary-support points of f, where Phi
    is continuous but can fail to be differentiable.  The line integrals of
    every node come from one cumulative quadrature over [a, b] with the nodes
    as panel edges, in two columns that enter Phi with weight at most 1, so
    quadrature's one tolerance, max(1e-10, 1e-9 of the larger column integral
    over [a, b]), bounds each column's error at every node.
    """
    _check_box(a, b, delta)
    if nodes < 5:
        raise SpecError("need at least 5 profile nodes")
    sgn = _side_sign(side)
    _require_simple(f, a, b, 1.0, "phi_profile", side=side)

    edges = [a] + _interior_kinks(f, a, b) + [b]
    per_seg = max(9, int(math.ceil(nodes / (len(edges) - 1))))
    # Each piece's first Lobatto node is the previous piece's last (ends are pinned).
    ts = np.concatenate([[a]] + [_lobatto(lo, hi, per_seg)[1:]
                                 for lo, hi in zip(edges[:-1], edges[1:])])

    iy = sgn * 1j * delta

    def line(x):
        fx = f(x + iy)
        return np.stack(((x - a + iy) * fx, (b - a) * fx), axis=-1)

    # int_t^b for every node t from one reverse cumulative sum over the panels:
    # T0 = int (x - a + i delta) f and T1 = (b - a) int f, so
    # p = T0 - (t - a)/(b - a) T1, both columns with weight at most 1.
    _, lo, _, val, _ = _refine(lambda x, g: line(x), ts[None],
                               max_panels=_MAX_PANELS + ts.size)
    tail = np.concatenate((np.cumsum(val[::-1], axis=0)[::-1],
                           np.zeros((1, 2))))[np.searchsorted(lo, ts)]
    w_b = (ts - a) / (b - a)
    w_a = (b - ts) / (b - a)
    p = tail[:, 0] - w_b * tail[:, 1]
    e = _corners(f, ts, delta, 1, sgn)
    phi = p - w_a * p[0] + w_b * e[-1] + w_a * e[0] - e
    return PhiProfile(float(a), float(b), float(delta), tuple(map(float, edges)),
                      tuple(ts.tolist()), tuple(phi.tolist()))


def pair_with_phi(profile: PhiProfile, h02: TestFunction) -> complex:
    """Quadrature of h'' against the profile interpolant, segment by segment."""
    a, b = h02.support
    if abs(profile.a - a) > 1e-12 or abs(profile.b - b) > 1e-12:
        raise SpecError("profile and test intervals do not match")
    h2 = h02.derivative(2)
    ts, vs = np.asarray(profile.nodes), np.asarray(profile.values)
    cut = np.searchsorted(ts, profile.edges)
    total = 0j
    for lo, hi, i, j in zip(profile.edges[:-1], profile.edges[1:], cut[:-1], cut[1:]):
        seg_t, seg_v = ts[i:j + 1], vs[i:j + 1]
        val, _ = adaptive_quad(
            lambda t: h2(t) * _barycentric(seg_t, seg_v,
                                           np.atleast_1d(np.asarray(t, dtype=float))),
            lo, hi)
        total += val
    return complex(total)


def _test_derivative(test: TestFunction, k: int, a: float, b: float,
                     cheb: Optional[Chebyshev]):
    """The k-th derivative of test: a supplied one, or else the Chebyshev
    interpolant ``cheb`` of the last supplied one, differentiated the rest of
    the way, since each differentiation of an interpolant loses digits.  The
    interpolant spans the test's support within [a, b] and is zero outside."""
    top = len(test.derivs)
    if k <= top:
        return test.derivative(k), cheb
    if cheb is None:
        lo, hi = max(a, test.support[0]), min(b, test.support[1])
        cheb = _cheb_interpolate(test.derivative(top), lo, hi)
    return TestFunction(cheb.deriv(k - top), tuple(cheb.domain)), cheb


def boundary_limit_order_m(f: AnalyticFunction, test: TestFunction, a: float,
                           b: float, delta: float, m: int, *,
                           side: str = "upper") -> complex:
    """Order-m distributional boundary limit of int test(x) f(x +- iy) dx.

    Requires y^m f(x + iy) bounded over the box; the test function must vanish
    at a and b together with its first m+1 derivatives' usage region (supply
    derivatives; past the last one supplied, a Chebyshev interpolant of it is
    differentiated).
    """
    if not 0 <= m <= MAX_ORDER:
        raise SpecError(f"order m must lie in [0, {MAX_ORDER}]")
    _check_box(a, b, delta)
    sgn = _side_sign(side)
    _require_simple(f, a, b, float(m) if m > 0 else 0.5, "boundary_limit_order_m",
                    side=side)

    total = 0j
    cheb = None
    line = lambda x: f(np.asarray(x, dtype=float) + sgn * 1j * delta)
    for k in range(m + 1):
        dk, cheb = _test_derivative(test, k, a, b, cheb)
        term, _ = adaptive_quad(lambda x: np.asarray(dk(x), dtype=complex) * line(x), a, b)
        total += (sgn * 1j * delta) ** k / math.factorial(k) * term

    dtop, cheb = _test_derivative(test, m + 1, a, b, cheb)
    rem, _ = adaptive_quad(
        lambda x: np.asarray(dtop(x), dtype=complex) * _corners(f, x, delta, m, sgn), a, b)
    total += (sgn * 1j) ** (m + 1) / math.factorial(m) * rem
    return complex(total)
