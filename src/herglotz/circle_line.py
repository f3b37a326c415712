"""Circle-picture measures and the compatibility of disc and line boundary limits.

The disc companion of a half-plane function f is phi(z) = -i f(w(z)) with
w(z) = i (1 - z)/(1 + z); composition keeps the two pictures from drifting.
The inner/outer circle functional

    mu_r(test) = integral test(t) (phi(r e^{it}) - phi(e^{it}/r)) / 2 dt

converges to the representing measure as r -> 1, and the one-sided inner
integral matches the half-plane limit through s = tan(t/2):

    lim_{r -> 1} int test(tan(t/2)) phi(r e^{it}) dt
        = -i lim_{y -> 0} int test(s) f(s + iy) 2/(1+s^2) ds.

Radius limits are Neville-extrapolated in 1 - r over a geometric schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import AnalyticFunction, invert_variable
from .errors import SpecError
from .extrapolation import ExtrapolatedLimit, LimitSchedule, limit_from_samples
from .measures import TestFunction
from .quadrature import adaptive_quad, quad_real_line, trapezoid_periodic

__all__ = [
    "RadiusSchedule",
    "to_disc",
    "circle_measure_functional",
    "circle_limit",
    "GapReport",
    "consistency_gap",
    "inversion_duality_gap",
    "joined_distribution_check",
]

DEFAULT_Y_SCHEDULE = LimitSchedule()


@dataclass(frozen=True)
class RadiusSchedule:
    """Radii r_k = 1 - gap0 * ratio^k approaching the unit circle from inside."""

    gap0: float = 0.5
    ratio: float = 0.5
    steps: int = 12
    order: int = 8

    def __post_init__(self):
        if not (0 < self.gap0 < 1 and 0 < self.ratio < 1 and self.steps >= 3):
            raise SpecError("require gap0, ratio in (0,1) and steps >= 3")

    @property
    def gaps(self) -> np.ndarray:
        return self.gap0 * self.ratio ** np.arange(self.steps)

    @property
    def radii(self) -> np.ndarray:
        return 1.0 - self.gaps


DEFAULT_R_SCHEDULE = RadiusSchedule()

# Full-period trapezoid sums resolve structure of scale 1-r only while
# 8192 * (1-r) stays large; the joined check therefore stops its radius
# schedule earlier than the windowed adaptive integrals need to.
JOINED_R_SCHEDULE = RadiusSchedule(steps=8, order=6)


def to_disc(f: AnalyticFunction) -> AnalyticFunction:
    """Disc companion phi(z) = -i f(i (1-z)/(1+z)) of a half-plane function."""
    if f.picture != "half-plane":
        raise SpecError("to_disc expects a half-plane function")

    def fn(z):
        z = np.asarray(z, dtype=complex)
        return -1j * f.fn(1j * (1.0 - z) / (1.0 + z))

    return AnalyticFunction(fn, "disc", (), f.has_representing_measure,
                            {"kind": "disc-companion", "base": f.descriptor})


def circle_measure_functional(phi: AnalyticFunction, r: float,
                              test: TestFunction, *, atol: float = 1e-11) -> complex:
    """Pair the circle measure at radius r with an angle test function."""
    if not 0.0 < r < 1.0:
        raise SpecError("require 0 < r < 1")

    def integrand(t):
        t = np.asarray(t, dtype=float)
        inner = phi(r * np.exp(1j * t))
        outer = phi(np.exp(1j * t) / r)
        return test(t) * 0.5 * (inner - outer)

    lo, hi = test.support
    if lo <= -math.pi and hi >= math.pi:
        val, _ = trapezoid_periodic(integrand, tol=atol)
    else:
        val, _ = adaptive_quad(integrand, max(lo, -math.pi), min(hi, math.pi),
                               atol=atol)
    return complex(val)


def circle_limit(phi: AnalyticFunction, test: TestFunction,
                 rsched: RadiusSchedule = DEFAULT_R_SCHEDULE, *,
                 atol: float = 1e-11) -> ExtrapolatedLimit:
    """Weak* limit of the circle measures against a test function, r -> 1."""
    gaps = rsched.gaps
    vals = [circle_measure_functional(phi, 1.0 - g, test, atol=atol) for g in gaps]
    return limit_from_samples(gaps, vals, order=rsched.order)


@dataclass(frozen=True)
class GapReport:
    """Two-sided limit comparison; gap is the absolute difference."""

    circle: complex
    line: complex
    gap: float
    r_sequence: tuple = ()
    y_sequence: tuple = ()
    circle_error: float = 0.0
    line_error: float = 0.0

    def to_json(self) -> dict:
        return {
            "circle": [self.circle.real, self.circle.imag],
            "line": [self.line.real, self.line.imag],
            "gap": self.gap,
            "r_sequence": list(self.r_sequence),
            "y_sequence": list(self.y_sequence),
        }


def _inner_circle_side(f: AnalyticFunction, test: TestFunction,
                       rsched: RadiusSchedule, atol: float) -> ExtrapolatedLimit:
    lo, hi = test.support
    ta = 2.0 * math.atan(lo) if math.isfinite(lo) else -math.pi
    tb = 2.0 * math.atan(hi) if math.isfinite(hi) else math.pi

    def integrand(t, r):
        t = np.asarray(t, dtype=float)
        s = np.tan(0.5 * t)
        w = 1j * (1.0 - r * np.exp(1j * t)) / (1.0 + r * np.exp(1j * t))
        return test(s) * (-1j) * f(w)

    gaps = rsched.gaps
    vals = []
    for g in gaps:
        r = 1.0 - g
        v, _ = adaptive_quad(lambda t: integrand(t, r), ta, tb, atol=atol)
        vals.append(v)
    return limit_from_samples(gaps, vals, order=rsched.order)


def _line_side(f: AnalyticFunction, test: TestFunction, sched: LimitSchedule,
               atol: float) -> ExtrapolatedLimit:
    lo, hi = test.support
    ys = sched.heights
    vals = []
    for y in ys:
        def integrand(s, y=y):
            s = np.asarray(s, dtype=float)
            return test(s) * f(s + 1j * y) * 2.0 / (1.0 + s * s)
        v, _ = quad_real_line(integrand, lo, hi, atol=atol)
        vals.append(-1j * v)
    return limit_from_samples(ys, vals, order=sched.order)


def consistency_gap(f: AnalyticFunction, test: TestFunction,
                    sched: LimitSchedule = DEFAULT_Y_SCHEDULE,
                    rsched: RadiusSchedule = DEFAULT_R_SCHEDULE, *,
                    atol: float = 1e-11) -> GapReport:
    """Gap between the transported inner-circle limit and the half-plane limit.

    The circle side evaluates the disc companion of f along shrinking inner
    circles against test(tan(t/2)); the line side takes the upper boundary
    limit against test(s) with the 2/(1+s^2) weight.  Both sides must
    converge; the gap certifies the change of boundary charts.
    """
    circle = _inner_circle_side(f, test, rsched, atol)
    line = _line_side(f, test, sched, atol)
    circle.require_converged("circle-side limit")
    line.require_converged("line-side limit")
    return GapReport(circle.value, line.value, abs(circle.value - line.value),
                     tuple((1.0 - rsched.gaps).tolist()),
                     tuple(sched.heights.tolist()),
                     circle.error_estimate, line.error_estimate)


def _transport_inversion(test: TestFunction) -> TestFunction:
    """Test function u -> test(-1/u) with the sphere value at u = 0."""
    lo, hi = test.support

    def fn(u):
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape, dtype=complex)
        zero = u == 0.0
        out[zero] = 0j if test.value_at_inf is None else complex(test.value_at_inf)
        nz = ~zero
        out[nz] = test(-1.0 / u[nz])
        return out

    if lo > 0 or hi < 0:
        new_support = tuple(sorted((-1.0 / lo if math.isfinite(lo) else 0.0,
                                    -1.0 / hi if math.isfinite(hi) else 0.0)))
    else:
        new_support = (-1.0, 1.0)
    return TestFunction(fn, new_support, test.smoothness,
                        value_at_inf=(complex(test(np.array([0.0]))[0])
                                      if lo <= 0.0 <= hi else 0j))


def inversion_duality_gap(f: AnalyticFunction, test: TestFunction,
                          sched: LimitSchedule = DEFAULT_Y_SCHEDULE, *,
                          atol: float = 1e-11) -> GapReport:
    """Gap in int test(x) f(x+i0)/(1+x^2) dx = int test(-1/x) f(-1/x + i0)/(1+x^2) dx.

    The test support must stay away from 0 and infinity.
    """
    lo, hi = test.support
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 <= hi:
        raise SpecError("test support must be bounded away from 0 and infinity")
    tilde_f = invert_variable(f)
    tilde_test = _transport_inversion(test)
    ys = sched.heights

    def sample(fn, tst):
        vals = []
        for y in ys:
            def integrand(x, y=y):
                x = np.asarray(x, dtype=float)
                return tst(x) * fn(x + 1j * y) / (1.0 + x * x)
            v, _ = quad_real_line(integrand, *tst.support, atol=atol)
            vals.append(v)
        return limit_from_samples(ys, vals, order=sched.order)

    lhs = sample(f, test)
    rhs = sample(tilde_f, tilde_test)
    lhs.require_converged("direct side")
    rhs.require_converged("inverted side")
    return GapReport(lhs.value, rhs.value, abs(lhs.value - rhs.value),
                     (), tuple(ys.tolist()),
                     lhs.error_estimate, rhs.error_estimate)


def joined_distribution_check(f: AnalyticFunction, test: TestFunction,
                              sched: LimitSchedule = DEFAULT_Y_SCHEDULE,
                              rsched: RadiusSchedule = JOINED_R_SCHEDULE, *,
                              atol: float = 1e-11) -> GapReport:
    """Full-period circle pairing versus the two-chart line pairing.

    The circle side integrates test(tan(t/2)) phi(r e^{it}) over a whole
    period; the line side splits at +-1 and carries the outer part through the
    inversion chart.  Tests must be smooth on the extended line (equal limits
    at both infinities).
    """
    disc = to_disc(f)

    def g_factory(r):
        def g(t):
            t = np.asarray(t, dtype=float)
            s = np.tan(0.5 * t)
            return test(s) * disc.fn(r * np.exp(1j * t))
        return g

    gaps = rsched.gaps
    circle_vals = []
    for gp in gaps:
        v, _ = trapezoid_periodic(g_factory(1.0 - gp), tol=atol)
        circle_vals.append(v)
    circle = limit_from_samples(gaps, circle_vals, order=rsched.order)

    tilde_f = invert_variable(f)
    tilde_test = _transport_inversion(test)
    ys = sched.heights
    line_vals = []
    for y in ys:
        def part_direct(s, y=y):
            s = np.asarray(s, dtype=float)
            return test(s) * f(s + 1j * y) * 2.0 / (1.0 + s * s)

        def part_chart(u, y=y):
            u = np.asarray(u, dtype=float)
            return tilde_test(u) * tilde_f(u + 1j * y) * 2.0 / (1.0 + u * u)

        v1, _ = adaptive_quad(part_direct, -1.0, 1.0, atol=atol)
        v2, _ = adaptive_quad(part_chart, -1.0, 1.0, atol=atol)
        line_vals.append(-1j * (v1 + v2))
    line = limit_from_samples(ys, line_vals, order=sched.order)

    circle.require_converged("circle-side limit")
    line.require_converged("line-side limit")
    return GapReport(circle.value, line.value, abs(circle.value - line.value),
                     tuple((1.0 - gaps).tolist()), tuple(ys.tolist()),
                     circle.error_estimate, line.error_estimate)
