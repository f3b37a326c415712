"""The heights of a boundary limit as rows of one refinement.

Each limit below is checked bit for bit against the per-height loop it
replaced, kept here as its reference: one one-row quadrature per height,
then the same extrapolation.  The rows share the integrand calls, so the
evaluator sees fewer and larger batches for the same points.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from herglotz import (BoundaryMeasure, CatalogSpec, LimitSchedule, RadiusSchedule,
                      catalog_build, circle_limit, circle_measure_functional,
                      consistency_gap, extract_functional, inversion_duality_gap,
                      joined_distribution_check, to_disc)
from herglotz.catalog import _with_reflection, invert_variable
from herglotz.circle_line import JOINED_R_SCHEDULE, _transport_inversion
from herglotz.cli import _load_spec, main
from herglotz.errors import NonConvergentLimitError
from herglotz.extrapolation import limit_from_samples
from herglotz.measures import DensityPart
from herglotz.quadrature import _ATOL, adaptive_quad, quad_real_line
from herglotz.testing import constant_one, smooth_bump


def _disc_cosine(c):
    # phi(z) = c + z inside the circle: the transform of the density cos t.
    dens = DensityPart((-np.pi, np.pi),
                       lambda t: np.cos(np.asarray(t, dtype=float)).astype(complex))
    return catalog_build(CatalogSpec("disc_herglotz",
                                     {"measure": BoundaryMeasure((), (dens,), "circle"),
                                      "constant": c}))


def _per_height(sched, sample):
    ys = sched.heights
    return limit_from_samples(ys, [sample(y) for y in ys], order=sched.order)


def _extract_loop(f, test, sched=LimitSchedule()):
    def sample(y):
        def integrand(x):
            upper, lower = _with_reflection(f, x + 1j * y)
            return test(x) * (upper - lower) / (2j * np.pi * (1.0 + x * x))
        return quad_real_line(integrand, *test.support, atol=_ATOL)[0]
    return _per_height(sched, sample)


def _circle_loop(phi, test, rsched=RadiusSchedule()):
    return _per_height(rsched, lambda gap: circle_measure_functional(phi, 1.0 - gap, test))


def _inner_circle_loop(f, test, rsched):
    disc = to_disc(f)
    lo, hi = test.support
    ta, tb = 2.0 * np.arctan(lo), 2.0 * np.arctan(hi)

    def sample(gap):
        return adaptive_quad(lambda t: test(np.tan(0.5 * t)) * disc((1.0 - gap) * np.exp(1j * t)),
                             ta, tb, atol=_ATOL)[0]
    return _per_height(rsched, sample)


def _line_integrand(f, test, y):
    return lambda s: test(s) * f(s + 1j * y) * 2.0 / (1.0 + s * s)


def _gap_loop(f, test, sched=LimitSchedule(), rsched=RadiusSchedule()):
    circle = _inner_circle_loop(f, test, rsched)
    line = _per_height(sched, lambda y: -1j * quad_real_line(
        _line_integrand(f, test, y), *test.support, atol=_ATOL)[0])
    return circle, line


def _duality_loop(f, test, sched=LimitSchedule()):
    def side(fn, tst):
        return _per_height(sched, lambda y: quad_real_line(
            lambda x: tst(x) * fn(x + 1j * y) / (1.0 + x * x), *tst.support, atol=_ATOL)[0])
    return side(f, test), side(invert_variable(f), _transport_inversion(test))


def _joined_loop(f, test, sched=LimitSchedule(), rsched=JOINED_R_SCHEDULE):
    circle = _inner_circle_loop(f, test, rsched)
    tilde_f, tilde_test = invert_variable(f), _transport_inversion(test)

    def line_sample(y):
        v1, _ = adaptive_quad(_line_integrand(f, test, y), -1.0, 1.0, atol=_ATOL)
        v2, _ = adaptive_quad(_line_integrand(tilde_f, tilde_test, y), -1.0, 1.0, atol=_ATOL)
        return -1j * (v1 + v2)
    return circle, _per_height(sched, line_sample)


def _bits(*values):
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def _limit_bits(lim):
    ys = [y for y, _ in lim.sequence]
    return _bits(lim.value, lim.error_estimate, *ys, *(v for _, v in lim.sequence))


def _report_bits(gap, circle, line):
    """The report of ``gap()`` carries the two reference limits, or ``gap``
    refuses, as it must when one of them did not converge."""
    if not (circle.converged and line.converged):
        with pytest.raises(NonConvergentLimitError):
            gap()
        return
    report = gap()
    assert report.y_sequence == tuple(y for y, _ in line.sequence)
    assert _bits(report.circle, report.line, report.gap, report.circle_error,
                 report.line_error) == _bits(circle.value, line.value,
                                             abs(circle.value - line.value),
                                             circle.error_estimate, line.error_estimate)


_FUNCTIONS = {
    "z^1/2": CatalogSpec("power", {"p": 0.5}),
    "z^(0.4+0.2i)": CatalogSpec("power", {"p": 0.4 + 0.2j}),
    "tan": CatalogSpec("tan"),
    "-1/z": CatalogSpec("rational", {"a": 0, "b": 0, "poles": [0.0], "coeffs": [1.0]}),
}
_NAMES = st.sampled_from(sorted(_FUNCTIONS))
_LO = st.floats(-3.0, 0.5)
_WIDTH = st.floats(0.3, 2.5)


def _fn(name):
    return catalog_build(_FUNCTIONS[name])


@settings(max_examples=6)
@given(_NAMES, _LO, _WIDTH)
def test_extract_functional_equals_the_per_height_loop(name, lo, width):
    f, test = _fn(name), smooth_bump(lo, lo + width)
    with np.errstate(all="ignore"):
        assert _limit_bits(extract_functional(f, test)) == _limit_bits(_extract_loop(f, test))


@settings(max_examples=5)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), _LO, _WIDTH)
def test_circle_limit_equals_the_per_height_loop(re, im, lo, width):
    phi, test = _disc_cosine(complex(re, im)), smooth_bump(lo, lo + width)
    rsched = RadiusSchedule(steps=8, order=6)
    assert _limit_bits(circle_limit(phi, test, rsched)) == _limit_bits(
        _circle_loop(phi, test, rsched))


@settings(max_examples=5)
@given(_NAMES, st.floats(0.05, 1.0), _WIDTH)
def test_consistency_gap_equals_the_per_height_loop(name, lo, width):
    f, test = _fn(name), smooth_bump(lo, lo + width)
    _report_bits(lambda: consistency_gap(f, test), *_gap_loop(f, test))


@settings(max_examples=5)
@given(_NAMES, st.floats(0.3, 2.0), _WIDTH)
def test_inversion_duality_gap_equals_the_per_height_loop(name, lo, width):
    f, test = _fn(name), smooth_bump(lo, lo + width)
    _report_bits(lambda: inversion_duality_gap(f, test), *_duality_loop(f, test))


@settings(max_examples=4)
@given(_NAMES, _LO, _WIDTH)
def test_joined_distribution_check_equals_the_per_height_loop(name, lo, width):
    f, test = _fn(name), smooth_bump(lo, lo + width)
    _report_bits(lambda: joined_distribution_check(f, test), *_joined_loop(f, test))


def test_variation_bound_heights_equal_the_per_height_loop(tmp_path):
    xs = np.linspace(-3.0, -0.5, 65)
    measure = {"picture": "line", "atoms": [{"loc": 0.0, "mass": [0.5, 0.0]}],
               "densities": [{"kind": "table", "support": [xs[0], xs[-1]],
                              "xs": xs.tolist(),
                              "vals": [[v, 0.0] for v in np.sqrt(-xs).tolist()]}]}
    (tmp_path / "m.json").write_text(json.dumps(measure))
    spec = tmp_path / "c.json"
    spec.write_text(json.dumps({"kind": "cauchy", "measure": "m.json", "constant": [0, 0]}))
    assert main(["check", "variation-bound", "--spec", str(spec),
                 "--out", str(tmp_path / "out")]) == 0
    items = json.loads((tmp_path / "out" / "report.json").read_text())["items"]
    f = _load_spec(str(spec))
    for item, y in zip(items, (1.0, 0.1, 0.01)):
        def integrand(x):
            upper, lower = _with_reflection(f, x + 1j * y)
            return np.abs(upper - lower).astype(complex) / (1.0 + x * x)
        assert item["name"] == f"variation-bound(y={y})"
        assert _bits(item["value"]) == _bits(quad_real_line(integrand, atol=1e-8)[0].real)


# Evaluator calls per limit: the rows loop against the per-height loop, on the
# same points.
_BUMP = smooth_bump(-1.0, 2.0)
_NEG = smooth_bump(-4.0, -1.5)
_POS = smooth_bump(0.2, 1.3)
_CALLS = [
    ("circle_limit disc cosine",
     lambda: circle_limit(_disc_cosine(0.3 - 0.2j), _BUMP),
     lambda: _circle_loop(_disc_cosine(0.3 - 0.2j), _BUMP), 58, 240),
    ("extract_functional z^(0.4+0.2i)",
     lambda: extract_functional(_fn("z^(0.4+0.2i)"), _NEG),
     lambda: _extract_loop(_fn("z^(0.4+0.2i)"), _NEG), 58, 240),
    ("consistency_gap tan",
     lambda: consistency_gap(_fn("tan"), _POS),
     lambda: _gap_loop(_fn("tan"), _POS), 58, 240),
    ("inversion_duality_gap -1/z",
     lambda: inversion_duality_gap(_fn("-1/z"), smooth_bump(1.2, 3.7)),
     lambda: _duality_loop(_fn("-1/z"), smooth_bump(1.2, 3.7)), 58, 240),
    ("joined_distribution_check -1/z",
     lambda: joined_distribution_check(_fn("-1/z"), constant_one()),
     lambda: _joined_loop(_fn("-1/z"), constant_one()), 97, 325),
]


@pytest.mark.parametrize("name, rows, loop, calls, loop_calls", _CALLS,
                         ids=[c[0] for c in _CALLS])
def test_evaluator_calls_per_limit(function_points, name, rows, loop, calls, loop_calls):
    rows()
    got = dict(function_points)
    function_points.update(points=0, calls=0)
    loop()
    assert (got["calls"], function_points["calls"]) == (calls, loop_calls)
    assert got["points"] == function_points["points"]
