import math

import numpy as np
import pytest

from herglotz import (AnalyticFunction, Atom, BoundaryMeasure, CatalogSpec,
                      MobiusMatrix, ReconstructionSpec, catalog_build, conjugate,
                      density_grid, integrate, pushforward_mobius, reconstruct,
                      resynthesis_residual, tan_sigma_log_masses)
from herglotz.catalog import compose_mobius, star_reflect
from herglotz.measures import DensityPart, density_from_descriptor
from herglotz.reconstruction import _window_truncated
from herglotz.errors import NonSimpleBehaviorError, SpecError
from herglotz.testing import smooth_bump


def _atoms(result):
    return {a.loc: a.mass for a in result.measure.atoms}


def test_spec_validation():
    with pytest.raises(SpecError):
        ReconstructionSpec(window=(1.0, -1.0))
    with pytest.raises(SpecError):
        ReconstructionSpec(window=(-1.0, 1.0), sigma_points=(5.0,))


def test_rational_reconstruction():
    f = catalog_build(CatalogSpec("rational",
                                  {"a": 2, "b": 3, "poles": [5.0], "coeffs": [4 + 1j]}))
    res = reconstruct(f, ReconstructionSpec(window=(-2.0, 8.0), sigma_points=(5.0,),
                                            include_infinity=True))
    atoms = _atoms(res)
    assert abs(atoms[5.0] - (4 + 1j) / 26.0) <= 1e-9
    assert abs(atoms[math.inf] - 2.0) <= 1e-9
    assert abs(res.constant - (3.0 + 5.0 * (4 + 1j) / 26.0)) <= 1e-10
    assert resynthesis_residual(f, res, [2j, -3j, 1 + 1j]) <= 1e-9


def test_residue_mass_consistency():
    f = catalog_build(CatalogSpec("rational",
                                  {"a": 0, "b": 1, "poles": [2.0, -1.0],
                                   "coeffs": [3.0, 1 - 2j]}))
    res = reconstruct(f, ReconstructionSpec(window=(-4.0, 4.0),
                                            sigma_points=(2.0, -1.0)))
    # rho(sigma) = -(1+sigma^2) lambda[sigma] must equal -c_j
    rho = dict(res.residues)
    assert abs(rho[2.0] + 3.0) <= 1e-9
    assert abs(rho[-1.0] + (1 - 2j)) <= 1e-9


def test_minus_inverse_reconstruction(minus_inverse):
    res = reconstruct(minus_inverse, ReconstructionSpec(window=(-3.0, 3.0),
                                                        sigma_points=(0.0,)))
    atoms = _atoms(res)
    assert abs(atoms[0.0] - 1.0) <= 1e-10
    assert abs(res.constant) <= 1e-14
    assert resynthesis_residual(minus_inverse, res, [2j, -3j, 1 + 1j]) <= 1e-10
    assert not res.window_truncated


def test_power_over_log_pole():
    f = catalog_build(CatalogSpec("power_over_log", {"p": 0.0}))
    res = reconstruct(f, ReconstructionSpec(window=(-4.0, 3.0),
                                            sigma_points=(0.0, 1.0),
                                            include_infinity=True))
    atoms = _atoms(res)
    assert abs(atoms[1.0] + 0.5) <= 1e-8
    assert abs(atoms[0.0]) <= 1e-5
    assert abs(atoms[math.inf]) <= 1e-6


def test_sqrt_truncated_window(sqrt_fn):
    res = reconstruct(sqrt_fn, ReconstructionSpec(window=(-6.0, 1.0),
                                                  sigma_points=(0.0,),
                                                  include_infinity=True))
    assert res.window_truncated
    atoms = _atoms(res)
    assert abs(atoms[0.0]) <= 1e-8
    assert abs(atoms[math.inf]) <= 1e-8
    assert abs(res.constant - math.cos(math.pi / 4.0)) <= 1e-12
    # density table matches the closed form at interior nodes
    part = res.measure.densities[0]
    xs = np.array([x for x in part.descriptor["xs"] if -5.5 < x < -0.2])
    expect = np.sqrt(-xs) / (np.pi * (1.0 + xs * xs))
    assert np.max(np.abs(part(xs) - expect)) <= 1e-8


def test_sqrt_resynthesis_improves_with_window(sqrt_fn):
    residuals = []
    for w in (1e2, 1e4, 1e6):
        res = reconstruct(sqrt_fn, ReconstructionSpec(window=(-w, 1.0),
                                                      sigma_points=(0.0,),
                                                      include_infinity=True))
        residuals.append(resynthesis_residual(sqrt_fn, res, [1j, 2j, -1 + 2j]))
    assert residuals[0] > residuals[1] > residuals[2]


def test_tan_truncation_residual_matches_series_tail(tan_fn):
    # window [-8, 8] keeps the six poles with |n| <= 5; the resynthesis gap
    # at 2i is then exactly the truncated series tail, computed directly.
    sig = tuple(np.pi * n / 2.0 for n in (-5, -3, -1, 1, 3, 5))
    res = reconstruct(tan_fn, ReconstructionSpec(window=(-8.0, 8.0),
                                                 sigma_points=sig,
                                                 include_infinity=True))
    assert res.window_truncated
    atoms = _atoms(res)
    for n in (1, 3, 5):
        x = np.pi * n / 2.0
        assert abs(atoms[x] - 1.0 / (1.0 + x * x)) <= 1e-6 / (1.0 + x * x)
    residual = resynthesis_residual(tan_fn, res, [2j])
    tail = np.tan(2j)
    for n in range(-5, 6):
        if n % 2 != 0:
            s = np.pi * n / 2.0
            tail -= (1.0 + s * 2j) / (s - 2j) / (1.0 + s * s)
    assert residual == pytest.approx(abs(tail), rel=1e-4)


def test_simple_behavior_gate():
    f = catalog_build(CatalogSpec("power", {"p": -1.5}))
    with pytest.raises(NonSimpleBehaviorError):
        reconstruct(f, ReconstructionSpec(window=(-2.0, 2.0), sigma_points=(0.0,)))


def test_scan_gate_sees_kink_between_abscissae():
    # The singularity at 0 falls between the scan abscissae of [-2, 0.999];
    # the column at the catalog's kink sees it.
    f = catalog_build(CatalogSpec("power", {"p": -1.5}))
    with pytest.raises(NonSimpleBehaviorError) as err:
        reconstruct(f, ReconstructionSpec(window=(-2.0, 2.0), sigma_points=(1.0,)))
    assert str(err.value) == "density scan piece [-2.0, 0.999]: |f| grows like y^-1.50"


def test_resynthesis_probes(minus_inverse):
    res = reconstruct(minus_inverse, ReconstructionSpec(window=(-3.0, 3.0),
                                                        sigma_points=(0.0,)))
    assert resynthesis_residual(minus_inverse, res, []) == 0.0
    with pytest.raises(SpecError):
        resynthesis_residual(minus_inverse, res, [2j, 1.0])


def test_scan_gate_names_first_failing_piece():
    # Double poles make |f| grow like y^-2; the pieces are [-2, -0.001],
    # [0.001, 2.999] and [3.001, 8], scanned in one pass.
    spec = ReconstructionSpec(window=(-2.0, 8.0), sigma_points=(0.0, 3.0))

    def double_poles(*poles):
        return AnalyticFunction(
            lambda z: sum(1.0 / (np.asarray(z) - q) ** 2 for q in poles), "half-plane")

    with pytest.raises(NonSimpleBehaviorError) as err:
        reconstruct(double_poles(5.0), spec)
    assert str(err.value) == "density scan piece [3.001, 8.0]: |f| grows like y^-1.64"
    with pytest.raises(NonSimpleBehaviorError) as err:
        reconstruct(double_poles(5.0, -1.5), spec)
    assert str(err.value) == "density scan piece [-2.0, -0.001]: |f| grows like y^-1.83"


def _bits(z):
    z = np.asarray(z, dtype=complex)
    return np.stack((z.real, z.imag), axis=-1).view(np.uint64)


@pytest.mark.parametrize("case", ["tan", "sqrt", "cauchy"])
def test_density_tables_match_per_piece_calls(case, tan_fn, sqrt_fn):
    # tan and z^(1/2) are pointwise and take one density pass for all pieces;
    # a Cauchy transform (here behind star_reflect, which keeps it as the
    # descriptor's base) integrates its measure per call and is evaluated
    # piece by piece.  Either way each table is its piece's own call.
    if case == "tan":
        sig = tuple(np.pi * n / 2.0 for n in range(-39, 40, 2))
        f, spec = tan_fn, ReconstructionSpec(window=(-20 * np.pi, 20 * np.pi),
                                             sigma_points=sig, include_infinity=True,
                                             nodes_per_block=8)
    elif case == "sqrt":
        f, spec = sqrt_fn, ReconstructionSpec(window=(-1e9, 1.0), sigma_points=(0.0,),
                                              include_infinity=True)
    else:
        dens = density_from_descriptor({"kind": "catalog-power", "p": [0.5, 0.0],
                                        "support": [-1e9, 0.0]})
        m = BoundaryMeasure((Atom(1.0, 0.5),), (dens,), "line")
        f = star_reflect(catalog_build(CatalogSpec("cauchy", {"measure": m})))
        spec = ReconstructionSpec(window=(-5.0, -0.5), sigma_points=(-2.0,),
                                  nodes_per_block=4)
    res = reconstruct(f, spec)
    assert len(res.measure.densities) == len(res.diagnostics["pieces"]) > 1
    worst, nodes = 0.0, 0
    for d in res.measure.densities:
        xs = np.array(d.descriptor["xs"])
        table = np.array([complex(re, im) for re, im in d.descriptor["vals"]])
        vals, errs = density_grid(f, xs, spec.schedule)
        assert np.array_equal(_bits(table), _bits(vals))
        worst, nodes = max(worst, float(np.max(errs))), nodes + len(xs)
    assert res.diagnostics["max_density_error_estimate"] == worst
    assert res.diagnostics["density_nodes"] == nodes


def test_star_covariance_of_reconstruction():
    f = catalog_build(CatalogSpec("power", {"p": 0.5 + 0.2j}))
    spec = ReconstructionSpec(window=(-5.0, -0.5), nodes_per_block=16)
    res = reconstruct(f, spec)
    res_star = reconstruct(star_reflect(f), spec)
    conj_measure = conjugate(res.measure)
    for c in (-4.0, -2.5, -1.2):
        test = smooth_bump(c - 0.4, c + 0.4)
        lhs = integrate(res_star.measure, test)
        rhs = integrate(conj_measure, test)
        assert abs(lhs - rhs) <= 1e-8
    assert abs(res_star.constant - np.conj(res.constant)) <= 1e-12


def test_mobius_covariance_small():
    f = catalog_build(CatalogSpec("power", {"p": 0.5}))
    base = reconstruct(f, ReconstructionSpec(window=(-40.0, -0.02),
                                             nodes_per_block=32))
    A = MobiusMatrix(1, 1, 0, 1)  # translation by 1
    f_a = compose_mobius(f, A)
    assert f_a.boundary_support == (("interval", -math.inf, -1.0),)
    rec_a = reconstruct(f_a, ReconstructionSpec(window=(-8.0, -2.0), nodes_per_block=32))
    assert rec_a.window_truncated
    pushed = pushforward_mobius(base.measure, A)
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.uniform(-7.0, -3.0)
        test = smooth_bump(c - 0.5, c + 0.5)
        assert abs(integrate(rec_a.measure, test)
                   - integrate(pushed, test)) <= 1e-4


def test_tan_sigma_log_masses_oracle():
    out = dict(tan_sigma_log_masses(1.0, [0, 1]))
    assert abs(out[1.0] + 0.5) < 1e-15
    loc = math.exp(math.pi / 2.0)
    assert abs(out[loc] - 1.0 / (loc + 1.0 / loc)) < 1e-15
    out2 = dict(tan_sigma_log_masses(2.0, [-2]))
    loc2 = math.exp(-math.pi / 2.0)
    assert abs(out2[loc2] + 0.5 / (loc2 + 1.0 / loc2)) < 1e-15
    with pytest.raises(SpecError):
        tan_sigma_log_masses(-1.0, [0])


def test_reconstruction_diagnostics(minus_inverse):
    res = reconstruct(minus_inverse, ReconstructionSpec(window=(-3.0, 3.0),
                                                        sigma_points=(0.0,)))
    d = res.diagnostics
    assert d["window"] == [-3.0, 3.0]
    assert d["density_nodes"] > 0
    assert "0.0" in d["exclusion_radii"]
    # Two massless points 1e-3 apart: the nearest neighbour caps each gap at
    # 0.45 of the distance, below the floor.
    res = reconstruct(minus_inverse, ReconstructionSpec(window=(-3.0, 3.0),
                                                        sigma_points=(1.001, 0.0, 1.0)))
    radii = res.diagnostics["exclusion_radii"]
    assert radii["1.0"] == radii["1.001"] == 0.45 * (1.001 - 1.0)
    assert radii["0.0"] == d["exclusion_radii"]["0.0"]


def test_wide_piece_splits_at_plus_minus_one():
    # A piece crossing 0 and wider than 100 gets blocks split at -1 and 1.  The
    # Cauchy transform of 1/(pi(1 + s^2)) is +-i; the one table holds that
    # density at its nodes (between nodes it is far coarser).
    lorentz = lambda s: (1.0 / (np.pi * (1.0 + np.asarray(s, dtype=float) ** 2))).astype(complex)
    f = catalog_build(CatalogSpec("cauchy", {"measure": BoundaryMeasure(
        (), (DensityPart((-np.inf, np.inf), lorentz),))}))
    res = reconstruct(f, ReconstructionSpec((-300.0, 200.0)))
    [table] = res.measure.densities
    xs = np.array(table.descriptor["xs"])
    assert -1.0 in xs and 1.0 in xs
    vals = np.array([complex(*v) for v in table.descriptor["vals"]])
    assert np.max(np.abs(vals - lorentz(xs))) <= 1e-10


def test_point_support_outside_the_window_truncates():
    f = catalog_build(CatalogSpec("rational", {"a": 0, "b": 0, "poles": [5.0],
                                               "coeffs": [1.0]}))
    assert _window_truncated(f, -3.0, 3.0)
    assert not _window_truncated(f, -3.0, 6.0)
