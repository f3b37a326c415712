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

from .catalog import _INVERSION, AnalyticFunction, _with_reflection, invert_variable
from .errors import SpecError
from .extrapolation import ExtrapolatedLimit, LimitSchedule
from .extraction import _height_rows
from .measures import TestFunction, _image_pieces
from .sphere import cayley_to_halfplane_values

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


class RadiusSchedule(LimitSchedule):
    """Radii r_k = 1 - y_k approaching the unit circle from inside.

    The heights are the gaps 1 - r, so y0 < 1 keeps every radius positive.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.y0 >= 1:
            raise SpecError("require y0 < 1 for a radius schedule")


# Twelve radii at order 8 cost the joined check 33-80 % more evaluations and
# gave a worse gap on -1/z and z^(1/2), and about the same on tan.
JOINED_R_SCHEDULE = RadiusSchedule(steps=8, order=6)


def to_disc(f: AnalyticFunction) -> AnalyticFunction:
    """Disc companion phi(z) = -i f(i (1-z)/(1+z)) of a half-plane function."""
    if f.picture != "half-plane":
        raise SpecError("to_disc expects a half-plane function")

    def fn(z):
        return -1j * f.fn(cayley_to_halfplane_values(z))

    return AnalyticFunction(fn, "disc", (), f.has_representing_measure,
                            {"kind": "disc-companion", "base": f.descriptor})


def _circle_rows(phi: AnalyticFunction, test: TestFunction):
    """``circle_measure_functional`` at the radii rs, as the function of rs
    that gives each radius a row of one refinement."""
    if phi.picture != "disc":
        raise SpecError("circle_measure_functional expects a disc function")

    def integrand(t, r):
        inner, outer = _with_reflection(phi, r * np.exp(1j * t))
        return test(t) * 0.5 * (inner - outer)

    lo, hi = test.support
    if hi - lo > 2.0 * math.pi:
        lo, hi = -math.pi, math.pi
    return _height_rows(integrand, lo, hi)


def circle_measure_functional(phi: AnalyticFunction, r: float,
                              test: TestFunction) -> complex:
    """Pair the circle measure at radius r with an angle test function.

    The measure's density is (phi(r e^{it}) - phi(e^{it}/r)) / 2, the mirror
    points from ``_with_reflection``.
    The integrand is 2 pi-periodic in t, so a test support no longer than a
    period is integrated where it lies, even across +-pi; a wider one is
    integrated over [-pi, pi].
    """
    if not 0.0 < r < 1.0:
        raise SpecError("require 0 < r < 1")
    return complex(_circle_rows(phi, test)(np.array([r], dtype=float))[0])


def circle_limit(phi: AnalyticFunction, test: TestFunction,
                 rsched: RadiusSchedule = RadiusSchedule()) -> ExtrapolatedLimit:
    """Weak* limit of the circle measures against a test function, r -> 1."""
    rows = _circle_rows(phi, test)
    return rsched.limit(lambda gaps: rows(1.0 - gaps))


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
            "circle_error": self.circle_error,
            "line_error": self.line_error,
        }


def _gap_report(lhs: ExtrapolatedLimit, rhs: ExtrapolatedLimit, lhs_what: str,
                rhs_what: str, r_seq, y_seq) -> GapReport:
    """Both limits must converge; the report keeps their values and schedules."""
    lhs.require_converged(lhs_what)
    rhs.require_converged(rhs_what)
    return GapReport(lhs.value, rhs.value, abs(lhs.value - rhs.value),
                     tuple(np.asarray(r_seq).tolist()), tuple(np.asarray(y_seq).tolist()),
                     lhs.error_estimate, rhs.error_estimate)


def _inner_circle_side(f: AnalyticFunction, test: TestFunction,
                       rsched: RadiusSchedule) -> ExtrapolatedLimit:
    """r -> 1 limit of int test(tan(t/2)) phi(r e^{it}) dt over the image of
    the test support, phi the disc companion of f."""
    disc = to_disc(f)
    lo, hi = test.support
    ta, tb = 2.0 * math.atan(lo), 2.0 * math.atan(hi)

    def integrand(t, gap):
        return test(np.tan(0.5 * t)) * disc((1.0 - gap) * np.exp(1j * t))

    return rsched.limit(_height_rows(integrand, ta, tb))


def _line_rows(f: AnalyticFunction, test: TestFunction, lo: float, hi: float):
    """The heights' rows of int_lo^hi test(s) f(s + iy) 2/(1+s^2) ds, the
    half-plane side of the chart change."""
    return _height_rows(lambda s, y: test(s) * f(s + 1j * y) * 2.0 / (1.0 + s * s),
                        lo, hi)


def consistency_gap(f: AnalyticFunction, test: TestFunction,
                    sched: LimitSchedule = LimitSchedule(),
                    rsched: RadiusSchedule = RadiusSchedule()) -> GapReport:
    """Gap between the transported inner-circle limit and the half-plane limit.

    The circle side evaluates the disc companion of f along shrinking inner
    circles against test(tan(t/2)); the line side takes the upper boundary
    limit against test(s) with the 2/(1+s^2) weight.  Both sides must
    converge; the gap certifies the change of boundary charts.
    """
    circle = _inner_circle_side(f, test, rsched)
    rows = _line_rows(f, test, *test.support)
    line = sched.limit(lambda ys: -1j * rows(ys))
    return _gap_report(circle, line, "circle-side limit", "line-side limit",
                       1.0 - rsched.heights, sched.heights)


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

    new_support = (-1.0, 1.0) if lo <= 0.0 <= hi else \
        _image_pieces(_INVERSION.inverse(), lo, hi)[0]
    return TestFunction(fn, new_support,
                        value_at_inf=(complex(test(np.array([0.0]))[0])
                                      if lo <= 0.0 <= hi else 0j))


def inversion_duality_gap(f: AnalyticFunction, test: TestFunction,
                          sched: LimitSchedule = LimitSchedule()) -> GapReport:
    """Gap in int test(x) f(x+i0)/(1+x^2) dx = int test(-1/x) f(-1/x + i0)/(1+x^2) dx.

    The test support must stay away from 0 and infinity.
    """
    lo, hi = test.support
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 <= hi:
        raise SpecError("test support must be bounded away from 0 and infinity")
    tilde_f = invert_variable(f)
    tilde_test = _transport_inversion(test)

    def side(fn, tst):
        return sched.limit(_height_rows(lambda x, y: tst(x) * fn(x + 1j * y) / (1.0 + x * x),
                                        *tst.support))

    lhs = side(f, test)
    rhs = side(tilde_f, tilde_test)
    return _gap_report(lhs, rhs, "direct side", "inverted side", (), sched.heights)


def joined_distribution_check(f: AnalyticFunction, test: TestFunction,
                              sched: LimitSchedule = LimitSchedule(),
                              rsched: RadiusSchedule = JOINED_R_SCHEDULE) -> GapReport:
    """Full-period circle pairing versus the two-chart line pairing.

    The circle side integrates test(tan(t/2)) phi(r e^{it}) over the image of
    the test support, a whole period for a test on the whole line; the line
    side splits at +-1 and carries the outer part through the inversion chart.
    Tests must be smooth on the extended line (equal limits at both
    infinities).
    """
    circle = _inner_circle_side(f, test, rsched)
    near = _line_rows(f, test, -1.0, 1.0)
    far = _line_rows(invert_variable(f), _transport_inversion(test), -1.0, 1.0)
    line = sched.limit(lambda ys: -1j * (near(ys) + far(ys)))
    return _gap_report(circle, line, "circle-side limit", "line-side limit",
                       1.0 - rsched.heights, sched.heights)
