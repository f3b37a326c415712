"""Star symmetry f(conj z) = conj f(z): which functions carry the flag, and the
readers that evaluate only the upper side of each reflection pair for them."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from herglotz import (Atom, BoundaryMeasure, CatalogSpec, LimitSchedule, MobiusMatrix,
                      ReconstructionSpec, catalog_build, density_at, density_grid,
                      extract_functional, measure_to_json, reconstruct, simple_scan,
                      table_density, to_disc)
from herglotz import cli, extraction
from herglotz.catalog import AnalyticFunction, compose_mobius, invert_variable, star_reflect
from herglotz.errors import SpecError
from herglotz.measures import DensityPart, density_from_descriptor
from herglotz.testing import smooth_bump


def _bits(v):
    # Bits with the sign of zero ignored: -0.0 + 0.0 is +0.0.
    return (np.asarray(v, dtype=complex) + 0.0).view(np.uint64)


def _same(a, b):
    return np.array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------------------
# The two-sided path: the reference for the one-sided readers.


def _two_sided_reflection(f, z):
    z = np.asarray(z, dtype=complex)
    mirror = np.conj(z) if f.picture == "half-plane" else 1.0 / np.conj(z)
    both = f(np.concatenate([z.ravel(), mirror.ravel()]))
    return both[:z.size].reshape(z.shape), both[z.size:].reshape(z.shape)


def _two_sided_density_samples(f, xs, ys):
    Z = xs[None, :] + 1j * ys[:, None]
    upper = f(Z)
    Z = np.conj(Z)
    diff = upper - f(Z)
    return diff / (2j * np.pi * (1.0 + xs * xs)[None, :])


def _two_sided_scan_part(f, lo, hi, ys, nx):
    xs = np.linspace(lo, hi, nx)
    Z = xs[None, :] + 1j * ys[:, None]
    q_up = Z.imag / (1.0 + np.abs(Z) ** 2) * np.abs(f(Z))
    Zl = np.conj(Z)
    q_dn = -Zl.imag / (1.0 + np.abs(Zl) ** 2) * np.abs(f(Zl))
    return np.maximum(q_up.max(axis=1), q_dn.max(axis=1))


@pytest.fixture
def two_sided(monkeypatch):
    """Call run() once as the code stands and once with every reader on the
    two-sided path; return both results."""
    def compare(run):
        got = run()
        with monkeypatch.context() as m:
            m.setattr(extraction, "_with_reflection", _two_sided_reflection)
            m.setattr(cli, "_with_reflection", _two_sided_reflection)
            m.setattr(extraction, "_density_samples", _two_sided_density_samples)
            m.setattr(extraction, "_scan_part", _two_sided_scan_part)
            want = run()
        return got, want
    return compare


def _leaves(obj):
    """Every number in nested dicts, lists and tuples, in order; strings and
    keys enter as their hashes."""
    if isinstance(obj, str):
        return [hash(obj)]
    if isinstance(obj, dict):
        return [v for k, x in obj.items() for v in _leaves(k) + _leaves(x)]
    if isinstance(obj, (list, tuple)):
        return [v for x in obj for v in _leaves(x)]
    return list(np.ravel(np.asarray(obj, dtype=complex)))


# ---------------------------------------------------------------------------
# Who sets the flag


_P = st.floats(-0.95, 0.95)
_REAL = st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3)


@st.composite
def _real_measures(draw):
    """Tables, a catalog-power piece and atoms with real data, one atom
    possibly at infinity."""
    atoms = [Atom(loc, draw(_REAL)) for loc in
             draw(st.lists(st.floats(0.5, 6.0) | st.just(math.inf), max_size=3, unique=True))]
    densities = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.floats(-6.0, 3.0))
        xs = np.linspace(lo, lo + draw(st.floats(0.5, 3.0)), draw(st.integers(2, 6)))
        densities.append(table_density(xs, [draw(_REAL) for _ in xs]))
    if draw(st.booleans()):
        densities.append(density_from_descriptor(
            {"kind": "catalog-power", "support": [-draw(st.floats(1.0, 1e3)), 0.0],
             "p": [draw(_P), 0.0]}))
    return BoundaryMeasure(tuple(atoms), tuple(densities), mixed_ok=True)


@st.composite
def _star_symmetric(draw):
    kind = draw(st.sampled_from(["tan", "cot", "csc2", "power", "power_log",
                                 "power_over_log", "tan_sigma_log", "cot_sigma_log",
                                 "csc2_sigma_log", "rational", "cauchy"]))
    params = {}
    if kind.startswith("power"):
        params["p"] = draw(_P)
    elif kind.endswith("sigma_log"):
        params["sigma"] = draw(st.floats(0.5, 3.0))
    elif kind == "rational":
        poles = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3, unique=True))
        params = {"a": draw(st.just(0.0) | _REAL), "b": draw(_REAL), "poles": poles,
                  "coeffs": [draw(_REAL) for _ in poles]}
    elif kind == "cauchy":
        params = {"measure": draw(_real_measures()), "constant": draw(_REAL)}
    f = catalog_build(CatalogSpec(kind, params))
    wrap = draw(st.sampled_from(["none", "mobius", "invert", "star"]))
    if wrap == "mobius":
        a, b, c, d = (draw(_REAL) for _ in range(4))
        assume(abs(a * d - b * c) > 0.1)
        f = compose_mobius(f, MobiusMatrix(a, b, c, d))
    elif wrap == "invert":
        f = invert_variable(f)
    elif wrap == "star":
        f = star_reflect(f)
    return f


@settings(max_examples=200)
@given(_star_symmetric(), st.integers(0, 2 ** 32 - 1))
def test_star_symmetric_functions_reflect_bit_for_bit(f, seed):
    assert f.star_symmetric
    rng = np.random.default_rng(seed)
    n = 6
    y = 10.0 ** rng.uniform(-12.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    z = rng.uniform(-5.0, 5.0, n) + 1j * y
    assert _same(f(np.conj(z)), np.conj(f(z))), f.descriptor


def _cauchy(atoms=(), densities=(), constant=0.0):
    m = BoundaryMeasure(tuple(atoms), tuple(densities), mixed_ok=True)
    return catalog_build(CatalogSpec("cauchy", {"measure": m, "constant": constant}))


def _table(vals):
    return table_density(np.linspace(-2.0, -1.0, len(vals)), vals)


def _disc_measure():
    return BoundaryMeasure((Atom(0.5, 1.0),), (), "circle")


@pytest.mark.parametrize("make", [
    lambda: catalog_build(CatalogSpec("power", {"p": 0.5 + 0.1j})),
    lambda: catalog_build(CatalogSpec("power_over_log", {"p": 0.3j})),
    lambda: catalog_build(CatalogSpec("rational", {"a": 0, "b": 0, "poles": [0.0, 1.0],
                                                   "coeffs": [1.0, 1.0 + 1e-3j]})),
    lambda: catalog_build(CatalogSpec("rational", {"a": 1j, "b": 0, "poles": [0.0],
                                                   "coeffs": [1.0]})),
    lambda: _cauchy([Atom(0.0, 1.0)], constant=0.5j),
    lambda: _cauchy([Atom(0.0, 1.0), Atom(math.inf, 1.0 - 2j)]),
    lambda: _cauchy([], [_table([1.0, 2.0 + 1e-9j, 1.0])]),
    # Real values but no descriptor of its own: its 257-node tabulation
    # would be real, yet nothing says the density is.
    lambda: _cauchy([], [DensityPart((-2.0, -1.0), lambda x: np.ones(np.shape(x)))]),
    lambda: compose_mobius(catalog_build(CatalogSpec("power", {"p": 0.2j})),
                           MobiusMatrix(1.0, 2.0, 0.0, 1.0)),
    lambda: star_reflect(catalog_build(CatalogSpec("power", {"p": 0.2j}))),
    lambda: catalog_build(CatalogSpec("disc_herglotz", {"measure": _disc_measure()})),
    lambda: to_disc(catalog_build(CatalogSpec("tan"))),
    lambda: star_reflect(to_disc(catalog_build(CatalogSpec("tan")))),
])
def test_complex_data_and_the_disc_leave_the_flag_off(make):
    assert make().star_symmetric is False


def test_the_flag_is_refused_on_the_disc():
    with pytest.raises(SpecError):
        AnalyticFunction(lambda w: w, "disc", star_symmetric=True)


# ---------------------------------------------------------------------------
# The readers


@pytest.fixture(scope="module")
def real_cauchy():
    xs = np.linspace(-3.0, -0.5, 65)
    table = table_density(xs, np.sqrt(-xs) / (np.pi * (1.0 + xs * xs)))
    return _cauchy([Atom(0.0, 0.5)], [table])


def test_density_readers_match_the_two_sided_path(two_sided, sqrt_fn, tan_fn, real_cauchy):
    for f, n in ((sqrt_fn, 301), (tan_fn, 301), (real_cauchy, 13)):
        assert f.star_symmetric
        xs = np.linspace(-4.0, 2.0, n)
        got, want = two_sided(lambda: density_grid(f, xs))
        assert all(_same(g, w) for g, w in zip(got, want)), f.descriptor["kind"]
        got, want = two_sided(lambda: density_at(f, -1.3))
        assert _same(_leaves(dataclasses.astuple(got)), _leaves(dataclasses.astuple(want)))


def test_scans_and_functionals_match_the_two_sided_path(two_sided, sqrt_fn, tan_fn,
                                                        real_cauchy):
    bump = smooth_bump(-2.0, -1.0)
    for f in (sqrt_fn, tan_fn, real_cauchy):
        for window in ((-2.0, 1.0), (-math.inf, 0.5), (0.2, math.inf)):
            got, want = two_sided(lambda: simple_scan(f, window))
            assert _same(_leaves(dataclasses.astuple(got)),
                         _leaves(dataclasses.astuple(want))), f.descriptor["kind"]
        sched = LimitSchedule(steps=6, order=4)
        got, want = two_sided(lambda: extract_functional(f, bump, sched))
        assert _same(_leaves(dataclasses.astuple(got)), _leaves(dataclasses.astuple(want)))


def test_reconstruct_tan_matches_the_two_sided_path(two_sided, tan_fn):
    sig = tuple(math.pi * n / 2.0 for n in range(-7, 8, 2))
    spec = ReconstructionSpec(window=(-4.0 * math.pi, 4.0 * math.pi), sigma_points=sig,
                              include_infinity=True, nodes_per_block=8)

    def run():
        res = reconstruct(tan_fn, spec)
        return [measure_to_json(res.measure), res.constant, res.residues,
                res.diagnostics, res.window_truncated]

    got, want = two_sided(run)
    assert _same(_leaves(got), _leaves(want))


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_files_match_the_two_sided_path(two_sided, tmp_path):
    xs = np.linspace(-3.0, -0.5, 129)
    measure = {"picture": "line", "atoms": [{"loc": 0.0, "mass": [0.5, 0.0]}],
               "densities": [{"kind": "table", "support": [xs[0], xs[-1]],
                              "xs": xs.tolist(),
                              "vals": [[v, 0.0] for v in np.sqrt(-xs) / (1.0 + xs * xs)]}]}
    _write(tmp_path / "m.json", measure)
    cauchy = _write(tmp_path / "c.json", {"kind": "cauchy", "measure": "m.json",
                                          "constant": [0.0, 0.0]})
    power = _write(tmp_path / "p.json", {"kind": "power", "p": [0.4, 0.0]})
    runs = [["check", "variation-bound", "--spec", cauchy],
            ["extract", "--spec", power, "--window=-6,-0.5", "--nodes", "201"]]
    for k, argv in enumerate(runs):
        sides = iter("ab")

        def run():
            out = tmp_path / f"{k}{next(sides)}"
            assert cli.main(argv + ["--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        got, want = two_sided(run)
        assert got and got == want, argv


def test_density_grid_evaluates_the_upper_side_only(function_points, sqrt_fn):
    xs = np.linspace(-3.0, -0.1, 500)
    sched = LimitSchedule()
    rows = len(extraction._limit_rows(sched.steps, sched.order))
    density_grid(sqrt_fn, xs, sched)
    assert function_points["points"] == xs.size * rows


def test_complex_data_takes_the_two_sided_path(function_points, two_sided):
    f = catalog_build(CatalogSpec("power", {"p": 0.4 + 0.3j}))
    assert not f.star_symmetric
    xs = np.linspace(-3.0, -0.1, 500)
    sched = LimitSchedule()
    rows = len(extraction._limit_rows(sched.steps, sched.order))
    got, want = two_sided(lambda: density_grid(f, xs, sched))
    assert function_points["points"] == 2 * (2 * xs.size * rows)
    assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64))
               for g, w in zip(got, want))
