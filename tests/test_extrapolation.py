import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from herglotz import LimitSchedule
from herglotz.errors import SpecError
from herglotz.extrapolation import (_AITKEN_PASSES, _limit_rows, aitken_limit, best_limit,
                                    diverged, limit_from_samples, neville_zero_limit)


def test_schedule_validation():
    for y0 in (-1.0, math.inf, math.nan):
        with pytest.raises(SpecError):
            LimitSchedule(y0=y0)
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
    assert not LimitSchedule().limit(lambda ys: np.full(ys.shape, np.nan * 1j)).converged


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


def _full_neville(xs, fs, order):
    # The whole tableau, every sample read: the reference for the sliced one.
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=complex)
    n = len(xs)
    if n < 2:
        return fs[0], np.full(fs.shape[1:], np.inf, dtype=float)
    rows, prev = [fs[0]], [fs[0]]
    for i in range(1, n):
        cur = [fs[i]]
        for j in range(1, min(i, order) + 1):
            num = xs[i] * prev[j - 1] - xs[i - j] * cur[j - 1]
            cur.append(num / (xs[i] - xs[i - j]))
        rows.append(cur[-1])
        prev = cur
    return rows[-1], np.abs(rows[-1] - rows[-2])


def _full_aitken(values):
    v = np.asarray(values, dtype=complex)
    for _ in range(_AITKEN_PASSES):
        if v.shape[0] < 3:
            break
        d1 = v[1:] - v[:-1]
        d2 = d1[1:] - d1[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(d2 != 0, d1[1:] ** 2 / np.where(d2 != 0, d2, 1.0), 0.0)
        v = v[2:] - corr
    if v.shape[0] >= 2:
        return v[-1], np.abs(v[-1] - v[-2])
    return v[-1], np.full(v.shape[1:], np.inf, dtype=float)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


_SPECIAL = st.sampled_from([0.0, np.nan, np.inf, -np.inf])


def _weight_sums(xs, order):
    # |w_k| + |w'_k|, w and w' the Lagrange weights at 0 of the last two
    # diagonal entries, read off the full tableau of the identity.
    eye = np.eye(len(xs))
    w = np.abs(_full_neville(xs, eye, order)[0])
    if len(xs) > 1:
        w[:-1] += np.abs(_full_neville(xs[:-1], eye[:-1, :-1], order)[0])
    return w


@settings(max_examples=300)
@given(n=st.integers(1, 16), order=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1), special=st.lists(_SPECIAL, max_size=3))
def test_sliced_tableaux_match_the_full_ones(n, order, seed, special):
    # Random columns, plus one per special value, which fills its tail.  The
    # weighted sums round differently from the full tableau: the value stays
    # within 16 eps sum_k (|w_k| + |w'_k|) |f_k| of its value, the estimate
    # within twice that, and a non-finite column stays non-finite where it is.
    # Aitken is the same arithmetic, bit for bit.
    rng = np.random.default_rng(seed)
    xs = 0.5 * 0.5 ** np.arange(n)
    fs = rng.normal(size=(n, 2 + len(special))) + 1j * rng.normal(size=(n, 2 + len(special)))
    fs[:, 1] = 3.0 + xs ** 0.5
    for k, v in enumerate(special):
        fs[rng.integers(n):, 2 + k] = v
    with np.errstate(invalid="ignore", over="ignore"):
        value, err = neville_zero_limit(xs, fs, order=order)
        want_value, want_err = _full_neville(xs, fs, order)
        bound = 16 * np.finfo(float).eps * (_weight_sums(xs, order) @ np.abs(fs))
        finite = np.isfinite(fs).all(axis=0) & np.isfinite(want_err)
        assert np.all(np.abs(value - want_value)[finite] <= bound[finite])
        assert np.all(np.abs(err - want_err)[finite] <= 2 * bound[finite])
        assert np.array_equal(np.isfinite(value), np.isfinite(want_value))
        assert np.array_equal(np.isfinite(err), np.isfinite(want_err))
        assert all(_same_bits(g, r) for g, r in zip(aitken_limit(fs), _full_aitken(fs)))


@settings(max_examples=300)
@given(steps=st.integers(3, 16), order=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1), special=st.lists(_SPECIAL, max_size=3))
def test_best_limit_on_the_rows_it_reads_is_bit_equal(steps, order, seed, special):
    # Random columns, a growing one, and one per special value from a random
    # row on: the rows _limit_rows keeps give best_limit's bits on all rows.
    rng = np.random.default_rng(seed)
    xs = 0.5 * 0.5 ** np.arange(steps)
    shape = (steps, 3 + len(special))
    fs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fs[:, 1] = 3.0 + xs ** 0.5
    fs[:, 2] = 10.0 ** np.arange(steps)
    for k, v in enumerate(special):
        fs[rng.integers(steps):, 3 + k] = v
    rows = _limit_rows(steps, order)
    assert rows[0] == 0 and list(rows) == sorted(set(rows))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = best_limit(xs[rows], fs[rows], order), best_limit(xs, fs, order)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
