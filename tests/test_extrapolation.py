import numpy as np
import pytest

from herglotz import LimitSchedule
from herglotz.errors import SpecError
from herglotz.extrapolation import (aitken_limit, best_limit, diverged,
                                    limit_from_samples, neville_zero_limit)


def test_schedule_validation():
    with pytest.raises(SpecError):
        LimitSchedule(y0=-1.0)
    with pytest.raises(SpecError):
        LimitSchedule(ratio=1.5)
    with pytest.raises(SpecError):
        LimitSchedule(y0=1e-10, ratio=0.1, steps=10)


def test_neville_analytic_sequence():
    sched = LimitSchedule()
    ys = sched.heights
    vals = 1.0 / (1.0 + ys) + 2j * ys
    value, err = neville_zero_limit(ys, vals, order=sched.order)
    assert abs(value - 1.0) < 1e-12
    assert err < 1e-10


def test_neville_constant_is_exact():
    ys = LimitSchedule().heights
    limit = limit_from_samples(ys, np.full(len(ys), 3.25 - 1j))
    assert limit.value == pytest.approx(3.25 - 1j)
    assert limit.error_estimate == 0.0
    assert limit.converged


def test_schedule_limit_falls_back_to_aitken():
    # A square-root rate defeats the polynomial tableau; Aitken takes over.
    limit = LimitSchedule().limit(lambda y: 1.0 + np.sqrt(y))
    assert limit.converged
    assert abs(limit.value - 1.0) <= 1e-12


def test_divergent_sequence_flags():
    ys = LimitSchedule().heights
    limit = limit_from_samples(ys, 1.0 / ys + 0j)
    assert not limit.converged


def test_diverged_counts_nan_as_divergent():
    assert not diverged(1.0 + 1j, 1e-5)
    assert diverged(1.0, 1.0)
    assert diverged(np.nan, 0.0) and diverged(1.0, np.nan)
    assert diverged(complex(np.nan, np.nan), np.nan)
    got = diverged(np.array([1.0, np.nan, 2.0, 0.0]), np.array([0.0, 0.0, np.nan, 1.0]),
                   tol=0.5)
    assert got.tolist() == [False, True, True, True]
    assert not LimitSchedule().limit(lambda y: np.nan * 1j).converged


def test_schedule_limit_matches_samples():
    sched = LimitSchedule(steps=6, order=3)
    got = sched.limit(lambda y: 2.0 + y * (1.0 - 1j))
    want = limit_from_samples(sched.heights, 2.0 + sched.heights * (1.0 - 1j), order=3)
    assert got == want


def test_vectorized_tableau():
    ys = LimitSchedule().heights
    vals = np.stack([1.0 / (1.0 + ys), np.exp(ys)], axis=1).astype(complex)
    value, err = neville_zero_limit(ys, vals, order=8)
    assert np.allclose(value, [1.0, 1.0], atol=1e-11)
    assert np.all(err < 1e-9)


def test_aitken_geometric_tail():
    # sqrt-rate sequences defeat polynomial extrapolation but not Aitken.
    us = 0.5 * 0.5 ** np.arange(12)
    vals = 2.0 + np.sqrt(us) + 0j
    val, err = aitken_limit(vals)
    assert abs(val - 2.0) < 1e-10
    best, berr = best_limit(us, vals)
    assert abs(best - 2.0) < 1e-10
