import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from herglotz import (Atom, BoundaryMeasure, CatalogSpec, MobiusMatrix, TestFunction,
                      catalog_build, cauchy_eval, conjugate, integrate, measure_from_json,
                      measure_to_json, measures, pushforward_mobius, table_density,
                      total_variation)
from herglotz.catalog import compose_mobius
from herglotz.errors import SpecError
from herglotz.measures import DensityPart, density_from_descriptor
from herglotz.testing import smooth_bump

SQRT_DENSITY = DensityPart(
    (-np.inf, 0.0),
    lambda x: (np.sqrt(-np.asarray(x, dtype=float))
               / (np.pi * (1.0 + np.asarray(x, dtype=float) ** 2))).astype(complex))


def test_atom_validation():
    with pytest.raises(SpecError):
        BoundaryMeasure((Atom(1.0, 1.0), Atom(1.0, 2.0)))


def test_atom_inside_density_rejected():
    dens = DensityPart((-1.0, 1.0), lambda x: np.ones(np.shape(x), dtype=complex))
    with pytest.raises(SpecError):
        BoundaryMeasure((Atom(0.0, 1.0),), (dens,))
    # permitted with the explicit flag
    BoundaryMeasure((Atom(0.0, 1.0),), (dens,), mixed_ok=True)
    # Overlapping supports: the atom at 3 lies in (-5, 5) only, past (1, 2).
    wide = DensityPart((-5.0, 5.0), lambda x: np.ones(np.shape(x), dtype=complex))
    zero = DensityPart((1.0, 2.0), lambda x: np.zeros(np.shape(x), dtype=complex))
    with pytest.raises(SpecError, match="atom at 3.0"):
        BoundaryMeasure((Atom(7.0, 1.0), Atom(3.0, 1.0)), (zero, wide))
    # Support endpoints and zero density do not count as inside.
    BoundaryMeasure((Atom(-5.0, 1.0), Atom(5.0, 1.0), Atom(1.5, 1.0)), (zero,))
    BoundaryMeasure((Atom(-5.0, 1.0), Atom(5.0, 1.0)), (wide,))


def test_integrate_atom_polynomial():
    m = BoundaryMeasure((Atom(0.0, 1.0),))
    f = TestFunction(lambda x: (np.asarray(x, dtype=float) ** 2 + 1.0).astype(complex),
                     (-2.0, 2.0))
    assert abs(integrate(m, f) - 1.0) < 1e-15


def test_integrate_density_example():
    # (1+x^2) weight against the sqrt density over [-1, 0]: (2/3)/pi
    m = BoundaryMeasure((), (SQRT_DENSITY,))
    f = TestFunction(lambda x: (1.0 + np.asarray(x, dtype=float) ** 2).astype(complex),
                     (-1.0, 0.0))
    assert abs(integrate(m, f) - (2.0 / 3.0) / np.pi) < 1e-9


def test_integrate_atom_at_infinity():
    m = BoundaryMeasure((Atom(np.inf, 1.0),))
    f = TestFunction(lambda x: np.zeros(np.shape(x), dtype=complex),
                     (-np.inf, np.inf), value_at_inf=3.0)
    assert integrate(m, f) == pytest.approx(3.0)
    f_bad = TestFunction(lambda x: np.zeros(np.shape(x), dtype=complex))
    with pytest.raises(SpecError):
        integrate(m, f_bad)


def test_conjugate():
    m = BoundaryMeasure((Atom(0.0, 1j),))
    assert conjugate(m).atoms[0].mass == -1j
    real = BoundaryMeasure((Atom(2.0, 1.5),))
    assert conjugate(real).atoms[0].mass == 1.5
    twice = conjugate(conjugate(m))
    assert twice.atoms[0].mass == 1j


def test_conjugate_power_density():
    # The conjugate of z^p's density is that of z^conj(p), and its Cauchy
    # transform is conj f(conj z).
    p = 0.3 + 0.4j
    d = density_from_descriptor({"kind": "catalog-power", "p": [p.real, p.imag],
                                 "support": [-np.inf, 0.0]})
    m = BoundaryMeasure((), (d,))
    [dc] = conjugate(m).densities
    assert dc.descriptor["p"] == [p.real, -p.imag]
    z = np.array([0.5 + 1j, -2.0 + 0.3j, 3.0 - 1e-3j, -1e-3 - 2j])
    expected = np.conj(cauchy_eval(m, 0.0, np.conj(z)))
    assert np.max(np.abs(cauchy_eval(conjugate(m), 0.0, z) - expected)) <= 1e-13


def test_total_variation():
    m = BoundaryMeasure((Atom(0.0, 1.0), Atom(1.0, -1j)))
    assert total_variation(m) == pytest.approx(2.0)
    md = BoundaryMeasure((), (SQRT_DENSITY,))
    assert total_variation(md) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)
    assert total_variation(BoundaryMeasure()) == 0.0
    assert total_variation(conjugate(md)) == pytest.approx(total_variation(md), abs=1e-9)


def test_pushforward_identity():
    m = BoundaryMeasure((Atom(1.0, 2.0),), (SQRT_DENSITY,))
    out = pushforward_mobius(m, MobiusMatrix.identity())
    assert out.atoms[0].loc == 1.0 and abs(out.atoms[0].mass - 2.0) < 1e-15
    test = smooth_bump(-3.0, -1.0)
    assert abs(integrate(out, test) - integrate(m, test)) < 1e-10


def test_pushforward_with_a_subnormal_entry():
    # A.z = (2.2e-309 z + 1)/z: an atom at 0 goes to +inf, as compose_mobius
    # says, and (0, 2.2e-309) maps beyond -1.8e308, which no double holds.
    A = MobiusMatrix(2.2e-309, 1, 1, 0)
    atoms = BoundaryMeasure((Atom(0.0, 1.0),))
    f = catalog_build(CatalogSpec("cauchy", {"measure": atoms}))
    assert [a.loc for a in pushforward_mobius(atoms, A).atoms] == [math.inf]
    assert compose_mobius(f, A).boundary_support == (("point", math.inf),)
    with pytest.raises(SpecError, match="overflows"):
        pushforward_mobius(BoundaryMeasure((), (table_density([0.0, 1.0], [1.0, 1.0]),)), A)


def test_pushforward_atom_to_infinity():
    m = BoundaryMeasure((Atom(0.0, 1.0),))
    out = pushforward_mobius(m, MobiusMatrix(0, -1, 1, 0))
    assert math.isinf(out.atoms[0].loc)
    assert abs(out.atoms[0].mass - 1.0) < 1e-15


def test_pushforward_negative_determinant_flips_sign():
    m = BoundaryMeasure((Atom(1.0, 1.0),), (SQRT_DENSITY,))
    out = pushforward_mobius(m, MobiusMatrix(-1, 0, 0, 1))  # det = -1
    assert out.atoms[0].mass.real < 0
    xs = np.array([1.5, 2.5])
    assert np.all(out.densities[0](xs).real < 0)


def test_pushforward_functoriality():
    rng = np.random.default_rng(17)
    dens = DensityPart((-2.0, 3.0),
                       lambda x: (np.exp(-np.asarray(x, dtype=float) ** 2) * (1 + 0.3j)))
    m = BoundaryMeasure((Atom(5.0, 0.7 - 0.1j),), (dens,))
    for _ in range(4):
        A = MobiusMatrix(*rng.uniform(-2, 2, 4))
        B = MobiusMatrix(*rng.uniform(-2, 2, 4))
        lhs = pushforward_mobius(pushforward_mobius(m, B), A)
        rhs = pushforward_mobius(m, B @ A)
        # compare atoms exactly and densities through test pairings
        al, ar = lhs.atoms[0], rhs.atoms[0]
        if math.isinf(al.loc):
            assert math.isinf(ar.loc)
        else:
            assert abs(al.loc - ar.loc) < 1e-9 * max(1.0, abs(ar.loc))
        assert abs(al.mass - ar.mass) < 1e-10 * max(1.0, abs(ar.mass))
        for _ in range(5):
            c = rng.uniform(-4, 4)
            test = smooth_bump(c - 0.7, c + 0.7)
            assert abs(integrate(lhs, test) - integrate(rhs, test)) < 1e-9


def test_pushforward_change_of_variables():
    A = MobiusMatrix(1.0, 2.0, 0.5, 2.0)
    dens = DensityPart((-1.0, 2.0),
                       lambda x: (1.0 + 0.2 * np.asarray(x, dtype=float)).astype(complex))
    m = BoundaryMeasure((Atom(4.0, 1.3),), (dens,))
    moved = pushforward_mobius(m, A)
    test = smooth_bump(-6.0, 6.0)
    binv = A.inverse()

    def transported(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = (binv.a * s + binv.b) / (binv.c * s + binv.d)
        w = ((A.a * t + A.b) ** 2 + (A.c * t + A.d) ** 2) / (1.0 + t * t)
        return test(t) * w / A.det

    lhs = integrate(moved, test)
    rhs = integrate(m, TestFunction(transported, (-np.inf, np.inf)))
    assert abs(lhs - rhs) < 1e-9


def test_integrate_linearity():
    rng = np.random.default_rng(23)
    d1 = DensityPart((-1.0, 1.0), lambda x: np.cos(np.asarray(x, dtype=float)).astype(complex))
    m1 = BoundaryMeasure((Atom(2.0, 1.0),), (d1,))
    m2 = BoundaryMeasure((Atom(-3.0, 2j),))
    t1 = smooth_bump(-4.0, 3.0)
    t2 = smooth_bump(-2.0, 2.5)
    combined = BoundaryMeasure(m1.atoms + m2.atoms, m1.densities)
    assert abs(integrate(combined, t1)
               - integrate(m1, t1) - integrate(m2, t1)) < 1e-10
    both = TestFunction(lambda x: t1(x) + 2.0 * t2(x), (-4.0, 3.0))
    assert abs(integrate(m1, both)
               - integrate(m1, t1) - 2.0 * integrate(m1, t2)) < 1e-10


def test_table_density_roundtrip():
    xs = np.linspace(-4.0, -1.0, 33)
    vals = np.sqrt(-xs) * (1.0 + 0.5j)
    d = table_density(xs, vals)
    probe = np.array([-3.3, -2.1, -1.7])
    assert np.max(np.abs(d(probe) - np.sqrt(-probe) * (1 + 0.5j))) < 1e-5
    assert np.all(d(np.array([-5.0, 0.5])) == 0)


def test_table_density_rejects_colliding_arctan_nodes():
    # Distinct nodes whose 2*arctan coordinates round to the same value.
    with pytest.raises(SpecError, match="2\\*arctan"):
        table_density([1e16, 2e16, 3e16], [1.0, 2.0, 3.0])
    with pytest.raises(SpecError):
        table_density([0.0, 1.0], [1.0, np.nan])
    with pytest.raises(SpecError):
        table_density([0.0, 1.0, 2.0], [1.0, 2.0])


_TABLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                          st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _tables(draw):
    """Increasing nodes with values drawn to give flat runs, zeros and sign changes."""
    xs = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=24,
                       unique=True))
    xs = np.sort(np.array(xs))
    n = len(xs)
    re = draw(st.lists(_TABLE_VALUES, min_size=n, max_size=n))
    im = draw(st.lists(_TABLE_VALUES, min_size=n, max_size=n))
    return xs, np.array(re) + 1j * np.array(im)


def _scipy_table(xs, vals, x):
    ts = 2.0 * np.arctan(xs)
    t = np.clip(2.0 * np.arctan(x), ts[0], ts[-1])
    return (PchipInterpolator(ts, vals.real, extrapolate=False)(t)
            + 1j * PchipInterpolator(ts, vals.imag, extrapolate=False)(t))


@settings(max_examples=300)
@given(_tables(), st.lists(st.floats(-2e3, 2e3, allow_nan=False), max_size=16))
@example((np.array([-1.0, 2.0]), np.array([1.0 - 1j, -3.0 + 0j])), [-5.0, 0.5, 7.0])
@example((np.linspace(-3.0, 3.0, 9), np.array([0, 0, 1, 1, 1, -2, -2, 0, 5]) * (1 + 1j)),
         [-1.5, 0.25])
@example((np.array([-1.0, 0.0, 2.0]), np.array([-1j, 1.0, -1.0])), [])  # a signed zero
def test_table_interpolant_matches_scipy_pchip_bitwise(table, extra):
    xs, vals = table
    # Every node, both ends, midpoints, and points clipped from outside.
    x = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), [xs[0] - 1.0, xs[-1] + 1.0],
                        np.array(extra)])
    try:
        want = _scipy_table(xs, vals, x)
    except ValueError:
        want = None  # nodes colliding in the arctan coordinate, or slopes that overflow
    if want is None or not np.all(np.isfinite(want)):
        # A finite table whose interpolant is not finite is refused.
        with pytest.raises(SpecError):
            table_density(xs, vals)
        return
    got = table_density(xs, vals).fn(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_table_density_rejects_overflowing_interpolant():
    # Finite slopes, but the Hermite coefficients of the first interval
    # overflow: the interpolant would be NaN at the node 0 and the midpoints.
    with pytest.raises(SpecError, match="overflows"):
        table_density([0.0, 1e-300, 1.0], [0.0, 1.0, 0.0])


def _pchip_end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    cap = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(keep, np.where(cap, 3.0 * m0, d), 0.0)


def _pchip_coefficients(xs, vals):
    """The one-table PCHIP build, checks included: (n - 1, 4, 2) coefficients
    in the 2*arctan coordinate, or SpecError."""
    if len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise SpecError("table nodes must be strictly increasing, length >= 2")
    if vals.shape != xs.shape or not np.all(np.isfinite(vals)):
        raise SpecError("table values must be finite, one per node")
    ts = 2.0 * np.arctan(xs)
    if not np.all(np.diff(ts) > 0):
        raise SpecError("table nodes collide in the 2*arctan coordinate")
    ys = np.stack((vals.real, vals.imag), axis=1)
    h = np.diff(ts)[:, None]
    with np.errstate(over="ignore", divide="ignore"):
        m = np.diff(ys, axis=0) / h
    if len(ts) == 2:
        d = np.concatenate((m, m))
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d = np.concatenate((_pchip_end_slope(h[0], h[1], m[0], m[1])[None], inner,
                                _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])[None]))
    with np.errstate(over="ignore", invalid="ignore"):
        t = (d[:-1] + d[1:] - 2 * m) / h
        coef = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1]), axis=1)
    if not np.all(np.isfinite(coef)):
        raise SpecError("table interpolant overflows; nodes too close for their values")
    return coef


def _coefficients(part):
    """The interval coefficients a table density's evaluator reads."""
    cells = dict(zip(part.fn.__code__.co_freevars, part.fn.__closure__))
    return cells["coef"].cell_contents


_OVERFLOWING = (np.array([0.0, 1e-300, 1.0]), np.array([0.0, 1.0, 0.0], dtype=complex))


@settings(max_examples=60)
@given(st.lists(st.one_of(_tables(), st.just(_OVERFLOWING)), min_size=1, max_size=40))
@example([(np.array([-1.0, 2.0]), np.array([1.0 - 1j, -3.0 + 0j])),
          (np.linspace(-3.0, 3.0, 9), np.array([0, 0, 1, 1, 1, -2, -2, 0, 5]) * (1 + 1j)),
          (np.array([0.5, 0.75]), np.array([2.0, 0.0j]))])
@example([(np.linspace(1.0, 2.0, 5), np.ones(5, dtype=complex)), _OVERFLOWING])
def test_one_build_for_many_tables_is_bit_equal(tables):
    # Two-node tables, flat runs, sign changes and an overflowing table: each
    # table of one build gets the coefficients and values of its own build.
    errors = []
    for xs, vals in tables:
        try:
            _pchip_coefficients(xs, vals)
        except SpecError as exc:
            errors.append(str(exc))
    if errors:
        with pytest.raises(SpecError) as caught:
            measures._table_densities(*zip(*tables))
        assert str(caught.value) in errors
        return
    parts = measures._table_densities(*zip(*tables))
    assert len(parts) == len(tables)
    for (xs, vals), part in zip(tables, parts):
        want = _pchip_coefficients(xs, vals)
        assert np.array_equal(_coefficients(part).view(np.uint64), want.view(np.uint64))
        x = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), [xs[0] - 1.0, xs[-1] + 1.0]])
        own = table_density(xs, vals)
        assert np.array_equal(part.fn(x).view(np.uint64), own.fn(x).view(np.uint64))
        assert part.support == own.support and part.descriptor == own.descriptor


def test_measure_json_roundtrip():
    xs = np.linspace(-4.0, -1.0, 17)
    m = BoundaryMeasure(
        (Atom(0.0, 1.0), Atom(np.inf, 0.5j)),
        (table_density(xs, np.exp(xs).astype(complex)),))
    data = measure_to_json(m)
    text = json.dumps(data, sort_keys=True)
    back = measure_from_json(json.loads(text))
    assert len(back.atoms) == 2 and math.isinf(back.atoms[1].loc)
    probe = np.array([-2.2, -1.4])
    assert np.max(np.abs(back.densities[0](probe) - m.densities[0](probe))) < 1e-12
    # serialization is deterministic
    assert json.dumps(measure_to_json(back), sort_keys=True) == text


def test_catalog_power_density_descriptor():
    data = {"picture": "line",
            "atoms": [],
            "densities": [{"kind": "catalog-power", "support": ["-inf", 0.0],
                           "p": [0.5, 0.0]}]}
    m = measure_from_json(data)
    x = np.array([-1.0])
    assert abs(m.densities[0](x)[0] - 1.0 / (2.0 * np.pi)) < 1e-14


def test_closure_density_tabulated_on_save():
    m = BoundaryMeasure((), (SQRT_DENSITY,))
    data = measure_to_json(m)
    assert data["densities"][0]["kind"] == "table"
    back = measure_from_json(data)
    probe = np.array([-2.0, -0.5])
    assert np.max(np.abs(back.densities[0](probe) - SQRT_DENSITY(probe))) < 1e-6


def test_pushforward_support_split_at_pole():
    # inversion moves a support through infinity: the density splits in two
    dens = DensityPart((-2.0, 3.0),
                       lambda x: np.exp(-np.asarray(x, dtype=float) ** 2).astype(complex))
    m = BoundaryMeasure((), (dens,))
    A = MobiusMatrix(0, -1, 1, 0)  # A.t = -1/t, inverse pole at 0
    moved = pushforward_mobius(m, A)
    assert len(moved.densities) == 2
    supports = sorted(d.support for d in moved.densities)
    assert supports[0][0] == -math.inf and supports[0][1] == pytest.approx(-1.0 / 3.0)
    assert supports[1][0] == pytest.approx(0.5) and supports[1][1] == math.inf
    # pairing against a bump matches the change-of-variables transport
    test = smooth_bump(0.6, 5.0)
    binv = A.inverse()

    def transported(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = (binv.a * s + binv.b) / (binv.c * s + binv.d)
        w = ((A.a * t + A.b) ** 2 + (A.c * t + A.d) ** 2) / (1.0 + t * t)
        return test(t) * w / A.det

    lhs = integrate(moved, test)
    rhs = integrate(m, TestFunction(transported, (-2.0, 3.0)))
    assert abs(lhs - rhs) < 1e-9
