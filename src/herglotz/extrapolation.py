"""Polynomial extrapolation of boundary limits over geometric schedules.

Samples at y_k = y0 * ratio^k are extrapolated to y = 0 by sums with Lagrange
weights set by the heights alone: the value sums the last order + 1 samples,
and the error estimate is its distance from the sum over the order + 1 before
the last.  Reading only the smallest heights keeps the extrapolation inside the
disc of analyticity even when nearby boundary singularities limit its radius.  Every limit falls back to Aitken
acceleration where that estimates a smaller error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergentLimitError, SpecError

__all__ = ["LimitSchedule", "ExtrapolatedLimit", "neville_zero_limit",
           "limit_from_samples", "aitken_limit", "best_limit"]

DIVERGENCE_FACTOR = 1e-4
_AITKEN_PASSES = 2


@dataclass(frozen=True)
class LimitSchedule:
    """Geometric height schedule y_k = y0 * ratio^k, k = 0..steps-1."""

    y0: float = 0.5
    ratio: float = 0.5
    steps: int = 12
    order: int = 8

    def __post_init__(self):
        if not (0.0 < self.y0 < np.inf and 0.0 < self.ratio < 1.0):
            raise SpecError("require finite y0 > 0 and ratio in (0, 1)")
        if self.steps < 3 or self.order < 1:
            raise SpecError("require steps >= 3 and order >= 1")
        if self.y0 * self.ratio ** self.steps <= 1e-13:
            raise SpecError("schedule descends below the floating-point floor")

    @property
    def heights(self) -> np.ndarray:
        return self.y0 * self.ratio ** np.arange(self.steps)

    def limit(self, sample: Callable[[np.ndarray], np.ndarray]) -> ExtrapolatedLimit:
        """Extrapolate the samples from the schedule's heights to y = 0.

        ``sample`` is called once, on the array of heights, and returns one
        value per height, so that the heights of a limit can be the rows of
        one refinement.
        """
        ys = self.heights
        return limit_from_samples(ys, sample(ys), order=self.order)


def diverged(value, err, tol: float = DIVERGENCE_FACTOR):
    """Where an estimate fails err <= tol * (1 + |value|); a NaN estimate fails.

    Vectorized over value and err; a scalar pair gives a numpy bool.
    """
    return ~(np.asarray(err) <= tol * (1.0 + np.abs(value)))


@dataclass(frozen=True)
class ExtrapolatedLimit:
    """Result of a y -> 0 extrapolation: weighted-sum or Aitken value plus an error estimate."""

    value: complex
    error_estimate: float
    sequence: tuple = field(default_factory=tuple)

    @property
    def converged(self) -> bool:
        return not diverged(self.value, self.error_estimate)

    def require_converged(self, what: str = "limit") -> complex:
        if not self.converged:
            raise NonConvergentLimitError(
                f"{what} did not converge: error estimate {self.error_estimate:.3e} "
                f"at value {self.value:.6g}")
        return self.value

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "error": self.error_estimate,
            "sequence": [[y, v.real, v.imag] for y, v in self.sequence],
        }


def _at_zero(xs: np.ndarray, fs: np.ndarray):
    """sum_k w_k fs_k, added one sample at a time, with the Lagrange weights at 0
    w_k = prod_{j != k} x_j / (x_j - x_k): the polynomial through (xs, fs) at 0."""
    q = xs[:, None] / (xs[:, None] - xs + np.eye(xs.size))
    np.fill_diagonal(q, 1.0)
    terms = (w * f for w, f in zip(q.prod(axis=0), fs))
    return sum(terms, next(terms))


def neville_zero_limit(xs: Sequence[float], fs, order: int = 8):
    """Polynomial extrapolation of samples (xs, fs) to x = 0.

    fs may be one-dimensional or of shape (len(xs), ...): trailing axes are
    extrapolated column by column.  Returns (value, error): _at_zero of the
    last order + 1 samples and its distance from _at_zero of the order + 1
    before the last, the last two diagonal entries of a capped Neville tableau.
    """
    xs = np.asarray(xs, dtype=float)[-(order + 2):]
    fs = np.asarray(fs, dtype=complex)[-(order + 2):]
    if len(xs) < 2:
        return fs[0], np.full(fs.shape[1:], np.inf, dtype=float)
    value = _at_zero(xs[-(order + 1):], fs[-(order + 1):])
    return value, np.abs(value - _at_zero(xs[:-1], fs[:-1]))


def limit_from_samples(ys: Sequence[float], values: Sequence[complex],
                       order: int = 8) -> ExtrapolatedLimit:
    """best_limit of the samples, which it keeps as the sequence."""
    value, err = best_limit(ys, values, order=order)
    seq = tuple((float(y), complex(v)) for y, v in zip(ys, values))
    return ExtrapolatedLimit(value, err, seq)


def aitken_limit(values):
    """Iterated Aitken delta-squared acceleration of a convergent sequence.

    Handles geometrically convergent tails of unknown ratio (fractional-power
    boundary rates on geometric height schedules), which defeat polynomial
    extrapolation.  Works along axis 0; returns (value, error_estimate).
    Each pass shortens the sequence by two, so the last two entries read only
    the last 2 _AITKEN_PASSES + 2 values, and only those are accelerated.
    """
    v = np.asarray(values, dtype=complex)[-(2 * _AITKEN_PASSES + 2):]
    for _ in range(_AITKEN_PASSES):
        if v.shape[0] < 3:
            break
        d1 = v[1:] - v[:-1]
        d2 = d1[1:] - d1[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(d2 != 0, d1[1:] ** 2 / np.where(d2 != 0, d2, 1.0), 0.0)
        v = v[2:] - corr
    if v.shape[0] >= 2:
        err = np.abs(v[-1] - v[-2])
    else:
        err = np.full(v.shape[1:], np.inf, dtype=float)
    return v[-1], err


def _limit_rows(n: int, order: int) -> list:
    """Indices of the samples among n that ``best_limit`` reads: the first,
    for the growth test, and the last order + 2 for Neville and the last
    2 passes + 2 for Aitken.  On those rows alone it returns the same bits."""
    return [0, *range(max(1, n - max(order + 2, 2 * _AITKEN_PASSES + 2)), n)]


def best_limit(xs, values, order: int = 8):
    """Neville extrapolation with Aitken fallback, componentwise by error estimate.

    The fallback is rejected wherever the raw samples grow along the schedule:
    Aitken assigns divergent geometric sequences their finite anti-limit with
    a spuriously small error estimate, which would mask true divergence.
    """
    values = np.asarray(values, dtype=complex)
    nev_val, nev_err = neville_zero_limit(xs, values, order=order)
    ait_val, ait_err = aitken_limit(values)
    grew = np.abs(values[-1]) > 8.0 * (np.abs(values[0]) + 1.0)
    use_nev = (nev_err <= ait_err) | grew
    value = np.where(use_nev, nev_val, ait_val)
    err = np.where(use_nev, nev_err, ait_err)
    if value.ndim == 0:
        return complex(value), float(err)
    return value, err
