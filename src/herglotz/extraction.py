"""Numerical recovery of boundary data from off-boundary evaluations.

The central functional is the line inversion

    lim_{y -> +0}  integral  test(x) (f(x+iy) - f(x-iy)) / (2 pi i (1+x^2)) dx,

which recovers the finite-line part of a representing measure (the mass at
infinity is invisible to it and is produced separately from f(iy)/y).  The
x-integrals of all heights are evaluated adaptively first, as the rows of one
refinement, and the heights are then Neville-extrapolated, so limits and
integrals are taken in the functional's own order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (_INVERSION, AnalyticFunction, _interior_kinks, _with_reflection,
                      invert_variable)
from .errors import NonSimpleBehaviorError, SpecError
from .extrapolation import (ExtrapolatedLimit, LimitSchedule, _limit_rows, best_limit,
                            diverged, limit_from_samples)
from .measures import TestFunction, _image_pieces
from .quadrature import _ATOL, _quad_rows

__all__ = [
    "SimpleScanReport",
    "extract_functional",
    "density_at",
    "density_grid",
    "atomic_mass_at",
    "atomic_mass_batch",
    "atomic_mass_at_infinity",
    "vladimirov_norm",
    "simple_scan",
    "sup_abs_growth",
]

# Heights y = 1/u doubling from 4: u runs down the powers of two 2^-2 .. 2^-15.
_INFINITY_SCHEDULE = LimitSchedule(y0=0.25, ratio=0.5, steps=14)


def _height_rows(integrand, lo, hi, atol: float = _ATOL):
    """The ``sample`` of ``LimitSchedule.limit`` for the line integrals of
    integrand(x, y) over (lo, hi) at the heights ys: every height a row of one
    ``_quad_rows`` call, each node given its row's height y."""
    def sample(ys):
        return _quad_rows(lambda x, g: integrand(x, ys[g]), lo, hi, ys.size, atol=atol)[0]
    return sample


def extract_functional(f: AnalyticFunction, test: TestFunction,
                       sched: LimitSchedule = LimitSchedule()) -> ExtrapolatedLimit:
    """Extrapolated value of the line-inversion functional against a test function.

    A non-convergent tableau is reported through the error estimate, never
    silently discarded.
    """
    def integrand(x, y):
        upper, lower = _with_reflection(f, x + 1j * y)
        return test(x) * (upper - lower) / (2j * np.pi * (1.0 + x * x))

    return sched.limit(_height_rows(integrand, *test.support))


def _density_samples(f: AnalyticFunction, xs: np.ndarray, ys: np.ndarray):
    """(f(x+iy) - f(x-iy)) / (2 pi i (1+x^2)) with heights down axis 0, both
    sides from ``_with_reflection`` and the difference formed in the lower
    side's buffer."""
    upper, diff = _with_reflection(f, xs[None, :] + 1j * ys[:, None])
    np.subtract(upper, diff, out=diff)
    diff /= 2j * np.pi * (1.0 + xs * xs)[None, :]
    return diff


def density_at(f: AnalyticFunction, x: float,
               sched: LimitSchedule = LimitSchedule()) -> ExtrapolatedLimit:
    """Pointwise boundary density (f(x+iy) - f(x-iy)) / (2 pi i (1+x^2)) as y -> 0.

    Valid where the boundary measure is absolutely continuous with continuous
    density; a diverging tableau signals a nearby atom or non-simple behavior.
    Samples every height at the single point x and keeps them as the
    sequence; density_grid skips the heights best_limit does not read.
    """
    ys = sched.heights
    vals = _density_samples(f, np.array([x], dtype=float), ys)[:, 0]
    return limit_from_samples(ys, vals, order=sched.order)


def density_grid(f: AnalyticFunction, xs,
                 sched: LimitSchedule = LimitSchedule()):
    """Vectorized density_at over a grid: returns (values, error_estimates).

    Only the heights ``best_limit`` reads are sampled.
    """
    ys = sched.heights[_limit_rows(sched.steps, sched.order)]
    samples = _density_samples(f, np.asarray(xs, dtype=float), ys)
    return best_limit(ys, samples, order=sched.order)


def atomic_mass_at(f: AnalyticFunction, x: float,
                   sched: LimitSchedule = LimitSchedule()) -> complex:
    """Atomic mass at a real boundary point: lim y f(x+iy) / (i (1+x^2)).

    atomic_mass_batch at the single point x, raising where the tableau
    diverges.
    """
    masses, errs = atomic_mass_batch(f, [x], sched)
    value, err = complex(masses[0]), float(errs[0])
    if diverged(value, err):
        raise NonSimpleBehaviorError(
            f"atomic mass limit at x={x} diverged (error estimate {err:.2e})")
    return value


def atomic_mass_batch(f: AnalyticFunction, xs,
                      sched: LimitSchedule = LimitSchedule()):
    """Vectorized atomic masses over locations: returns (masses, error_estimates).

    Polynomial extrapolation is backed by Aitken acceleration for the
    fractional-power rates a nearby density can impose on the limit.  Only
    the heights ``best_limit`` reads are sampled.
    """
    xs = np.asarray(xs, dtype=float)
    ys = sched.heights[_limit_rows(sched.steps, sched.order)]
    Z = xs[None, :] + 1j * ys[:, None]
    samples = ys[:, None] * f(Z) / (1j * (1.0 + xs * xs)[None, :])
    return best_limit(ys, samples, order=sched.order)


def atomic_mass_at_infinity(f: AnalyticFunction) -> complex:
    """Atomic mass at infinity: lim_{y -> inf} f(iy) / (i y) over doubling heights."""
    us = _INFINITY_SCHEDULE.heights
    ys = 1.0 / us
    vals = f(1j * ys) / ys
    value, err = best_limit(us, vals, order=_INFINITY_SCHEDULE.order)
    if diverged(value, err):
        raise NonSimpleBehaviorError(
            f"atomic mass limit at infinity diverged (error estimate {err:.2e})")
    return complex(value) / 1j


def vladimirov_norm(f: AnalyticFunction) -> float:
    """Supremum of (Im z / (1 + |z|^2)) |f(z)| over a polar grid of the upper
    half plane: 61 radii log-spaced over [1e-3, 1e3], 39 interior angles."""
    r = np.logspace(-3.0, 3.0, 61)
    th = np.linspace(0.0, math.pi, 41)[1:-1]
    z = r[:, None] * np.exp(1j * th)[None, :]
    q = z.imag / (1.0 + np.abs(z) ** 2) * np.abs(f(z))
    return float(np.max(q))


@dataclass(frozen=True)
class SimpleScanReport:
    """Boxed boundary-neighborhood scan of (Im z/(1+|z|^2))|f| plus a growth fit."""

    sup: float
    alpha: float
    bounded: bool
    window: tuple
    ys: tuple
    sup_per_y: tuple

    BOUNDED_ALPHA = 0.1


def _scan_part(f: AnalyticFunction, lo: float, hi: float, ys, nx: int):
    # sup over each row of (|Im z| / (1 + |z|^2)) |f| on both sides of the line.
    xs = np.linspace(lo, hi, nx)
    Z = xs[None, :] + 1j * ys[:, None]
    w = Z.imag / (1.0 + np.abs(Z) ** 2)
    upper, lower = _with_reflection(f, Z)
    return np.maximum((w * np.abs(upper)).max(axis=1), (w * np.abs(lower)).max(axis=1))


_SCAN_FLOOR = 1e-5


def simple_scan(f: AnalyticFunction, window) -> SimpleScanReport:
    """Diagnose simple behavior of f on a window of the extended real line.

    33 heights run down from 0.5 to 1e-5 over rows of 81 abscissae, the
    growth fit reading the 7 heights up to 1e-4.  Windows reaching infinity
    are scanned in the inversion chart u = -1/x near 0, where the scan
    quantity is exactly invariant.
    """
    lo, hi = window
    ys = np.logspace(math.log10(0.5), math.log10(_SCAN_FLOOR), 33)
    cut = 1e3
    parts = []
    flo = max(lo, -cut)
    fhi = min(hi, cut)
    if flo < fhi:
        parts.append((flo, fhi, f))
    rays = [(u, v) for u, v in ((cut, hi), (lo, -cut)) if u < v]
    if rays:
        # The rays beyond +-cut are scanned at u = -1/x, where invert_variable
        # puts their boundary points.
        tilde = invert_variable(f)
        parts += [(plo, phi, tilde) for u, v in rays
                  for plo, phi in _image_pieces(_INVERSION.inverse(), u, v)]
    sup_per_y = np.zeros(ys.size)
    for plo, phi, fn in parts:
        if plo >= phi:
            continue
        sup_per_y = np.maximum(sup_per_y, _scan_part(fn, plo, phi, ys, 81))
    sup = float(np.max(sup_per_y))
    low = ys <= 10.0 * _SCAN_FLOOR
    logs = np.log(np.maximum(sup_per_y[low], 1e-300))
    slope = np.polyfit(np.log(ys[low]), logs, 1)[0]
    alpha = float(-slope)
    bounded = alpha < SimpleScanReport.BOUNDED_ALPHA
    return SimpleScanReport(sup, alpha, bounded, (lo, hi),
                            tuple(ys.tolist()), tuple(sup_per_y.tolist()))


_SIDES = {"upper": 1.0, "lower": -1.0}


def _side_sign(side: str) -> float:
    """The sign of Im z on the given side of the real line."""
    if side not in _SIDES:
        raise SpecError(f"side must be 'upper' or 'lower', not {side!r}")
    return _SIDES[side]


# How far a fitted growth exponent may pass the order it stands for (1 for
# a density) before the behaviour counts as non-simple.
_GROWTH_MARGIN = 0.35


def sup_abs_growth(f: AnalyticFunction, a, b, *, nx: int = 61, ny: int = 17,
                   side: str = "upper"):
    """Fitted exponent beta of sup_x |f(x + iy)| ~ y^(-beta) on [a, b], over
    heights from 0.25 down to 1e-4.

    a and b may be arrays of interval ends: every interval is scanned in one
    call of f and an array of exponents comes back, one per interval.  Scalar
    ends give a float.
    """
    sgn = _side_sign(side)
    ys = np.logspace(math.log10(0.25), math.log10(1e-4), ny)
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    xs = np.linspace(a_arr.ravel(), b_arr.ravel(), nx, axis=1)
    Z = xs.ravel()[None, :] + sgn * 1j * ys[:, None]
    sup = np.abs(f(Z)).reshape(ny, -1, nx).max(axis=2)
    slope = np.polyfit(np.log(ys), np.log(np.maximum(sup, 1e-300)), 1)[0]
    beta = -slope
    return float(beta[0]) if a_arr.ndim == 0 else beta.reshape(a_arr.shape)


def _require_simple(f: AnalyticFunction, a, b, max_beta: float, what: str, *,
                    side: str = "upper", nx: int = 61, ny: int = 17):
    """Raise NonSimpleBehaviorError on the first of the sorted, disjoint
    intervals [a, b] (scalars or arrays of ends) where |f| grows faster than
    y^-(max_beta + _GROWTH_MARGIN).  A singularity between scan abscissae
    escapes the grid, so the catalog's kinks get a column of their own."""
    us, vs = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    betas = sup_abs_growth(f, us, vs, nx=nx, ny=ny, side=side)
    ks = np.array(_interior_kinks(f, us[0], vs[-1]))
    owner = np.searchsorted(us, ks) - 1  # the last interval starting below each kink
    inside = (owner >= 0) & (ks < vs[owner])
    ks, owner = ks[inside], owner[inside]
    if ks.size:
        np.maximum.at(betas, owner, sup_abs_growth(f, ks, ks, nx=1, ny=ny, side=side))
    for u, v, beta in zip(us.tolist(), vs.tolist(), betas.tolist()):
        if beta > max_beta + _GROWTH_MARGIN:
            raise NonSimpleBehaviorError(f"{what} [{u}, {v}]: |f| grows like y^-{beta:.2f}")
