"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values come from closed forms or from independent quadrature of
closed-form densities (scipy.integrate.quad), never from the code path under
test.
"""
import math
import time

import numpy as np
from scipy.integrate import quad

from herglotz import (Atom, BoundaryMeasure, CatalogSpec, MobiusMatrix,
                      ReconstructionSpec, atomic_mass_at,
                      atomic_mass_at_infinity, catalog_build, consistency_gap,
                      extract_functional, integrate, inversion_duality_gap,
                      joined_distribution_check, normalized_antiderivative,
                      phi_profile, pushforward_mobius, reconstruct,
                      resynthesis_residual, tan_sigma_log_masses,
                      total_variation, vladimirov_norm)
from herglotz.catalog import compose_mobius
from herglotz.measures import DensityPart
from herglotz.quadrature import quad_real_line
from herglotz.testing import constant_one, smooth_bump

VLADIMIROV_COEFF = 0.5 * (1.0 + math.sqrt(2.0))


def _report(number, description, ok, detail):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}: {detail}")
    assert ok, f"criterion {number} ({description}): {detail}"


def _sqrt_density_part():
    return DensityPart(
        (-np.inf, 0.0),
        lambda x: (np.sqrt(-np.asarray(x, dtype=float))
                   / (np.pi * (1.0 + np.asarray(x, dtype=float) ** 2))).astype(complex))


def test_criterion_01_tangent_atoms(tan_fn):
    worst = 0.0
    for n in (1, -1, 3, -3, 5, -5):
        x = math.pi * n / 2.0
        expect = 1.0 / (1.0 + x * x)
        got = atomic_mass_at(tan_fn, x)
        worst = max(worst, abs(got - expect) / expect)
    _report(1, "tangent atomic masses", worst <= 1e-6, f"max rel err {worst:.2e}")


def test_criterion_02_power_density():
    tests = [smooth_bump(-4.0, -1.0), smooth_bump(-3.6, -1.2),
             smooth_bump(-4.0, -2.5), smooth_bump(-2.4, -1.0),
             smooth_bump(-3.2, -2.0)]
    worst = 0.0
    for p in (0.5, -0.5, 0.3 + 0.4j):
        f = catalog_build(CatalogSpec("power", {"p": p}))

        def dens(x, p=p):
            return np.exp(p * np.log(-x)) * np.sin(np.pi * p) / (np.pi * (1 + x * x))

        for test in tests:
            lo, hi = test.support
            got = extract_functional(f, test).value
            ore, _ = quad(lambda x: (test(np.array([x]))[0] * dens(x)).real,
                          lo, hi, limit=300)
            oim, _ = quad(lambda x: (test(np.array([x]))[0] * dens(x)).imag,
                          lo, hi, limit=300)
            oracle = ore + 1j * oim
            worst = max(worst, abs(got - oracle) / abs(oracle))
    _report(2, "power-function boundary density", worst <= 1e-6,
            f"max rel err {worst:.2e}")


def test_criterion_03_power_log_density():
    from herglotz.extraction import density_at
    worst = 0.0
    for p in (0.0, 0.5):
        f = catalog_build(CatalogSpec("power_log", {"p": p}))
        for x in (-0.5, -2.0):
            expect = ((math.sin(math.pi * p) * math.log(abs(x)) / math.pi
                       + math.cos(math.pi * p)) * abs(x) ** p / (1 + x * x))
            got = density_at(f, x).value
            worst = max(worst, abs(got - expect) / abs(expect))
    _report(3, "power-log boundary density", worst <= 1e-6,
            f"max rel err {worst:.2e}")


def test_criterion_04_inverse_log_pole():
    f = catalog_build(CatalogSpec("power_over_log", {"p": 0.0}))
    res = reconstruct(f, ReconstructionSpec(window=(-4.0, 3.0),
                                            sigma_points=(0.0, 1.0),
                                            include_infinity=True))
    mass = {a.loc: a.mass for a in res.measure.atoms}[1.0]
    err = abs(mass + 0.5)
    _report(4, "reconstructed pole mass of 1/log z at 1", err <= 1e-8,
            f"mass {mass:.10f}, err {err:.2e}")


def test_criterion_05_sigma_log_masses():
    worst = 0.0
    for sigma in (1.0, 2.0):
        f = catalog_build(CatalogSpec("csc2_sigma_log", {"sigma": sigma}))
        for loc, expect in tan_sigma_log_masses(sigma, range(-2, 3)):
            got = atomic_mass_at(f, loc)
            worst = max(worst, abs(got - expect) / abs(expect))
    _report(5, "sigma-log family atomic masses", worst <= 1e-6,
            f"max rel err {worst:.2e}")


def test_criterion_06_vladimirov(const_i):
    positive = BoundaryMeasure(
        (Atom(1.0, 0.5),),
        (DensityPart((-2.0, 0.0),
                     lambda x: 0.3 * np.ones(np.shape(x), dtype=complex)),))
    endofunctions = [
        catalog_build(CatalogSpec("tan")),
        catalog_build(CatalogSpec("power", {"p": 0.5})),
        catalog_build(CatalogSpec("tan_sigma_log", {"sigma": 1.0})),
        catalog_build(CatalogSpec("cauchy", {"measure": positive, "constant": 0.0})),
    ]
    ok = True
    detail = []
    for f in endofunctions:
        norm = vladimirov_norm(f)
        bound = VLADIMIROV_COEFF * abs(f(1j)) + 1e-9
        ok = ok and norm <= bound
        detail.append(f"{norm:.4f}<={bound:.4f}")
    const_sup = vladimirov_norm(const_i)
    ok = ok and abs(const_sup - 0.5) <= 1e-9
    detail.append(f"const sup {const_sup:.12f}")
    _report(6, "Vladimirov norm bounds", ok, "; ".join(detail))


def test_criterion_07_residue_identity():
    worst = 0.0
    for s in (0.0, 2.0, -3.0):
        for y in (1.0, 0.5, 0.1):
            def integrand(x, s=s, y=y):
                x = np.asarray(x, dtype=float)
                return (2.0 * y / ((1 + x * x) * ((s - x) ** 2 + y * y))).astype(complex)
            val, _ = quad_real_line(integrand, atol=1e-12)
            closed = 2.0 * math.pi * (y + 1.0) / (s * s + (y + 1.0) ** 2)
            worst = max(worst, abs(val.real - closed))
    _report(7, "weighted Poisson integral closed form", worst <= 1e-10,
            f"max abs err {worst:.2e}")


def test_criterion_08_functional_norm_bound():
    lam = BoundaryMeasure((Atom(0.0, 1.0),), (_sqrt_density_part(),), mixed_ok=True)
    tv_all = total_variation(lam)
    tv_fin = total_variation(lam, finite_part_only=True)
    f = catalog_build(CatalogSpec("cauchy", {"measure": lam, "constant": 0.0}))
    ok = True
    detail = []
    for y in (1.0, 0.1, 0.01):
        def integrand(x, y=y):
            x = np.asarray(x, dtype=float)
            return (np.abs(f(x + 1j * y) - f(x - 1j * y)) / (1 + x * x)).astype(complex)
        val, _ = quad_real_line(integrand, atol=2e-4, rtol=1e-6, max_panels=600)
        bound = 2.0 * math.pi * y * tv_all + 2.0 * math.pi * tv_fin
        ok = ok and val.real <= bound + 1e-8
        detail.append(f"y={y}: {val.real:.4f}<={bound:.4f}")
    _report(8, "functional norm stays under the variation bound", ok,
            "; ".join(detail))


def _phi_closed_form(x, a=-1.0, b=1.0):
    re = ((-x * math.log(abs(x)) if x != 0 else 0.0)
          + (b - x) / (b - a) * a * math.log(abs(a))
          + (x - a) / (b - a) * b * math.log(abs(b)))
    im = (-math.pi * min(0.0, x)
          + math.pi * min(0.0, a) * (b - x) / (b - a)
          + math.pi * min(0.0, b) * (x - a) / (b - a))
    return re + 1j * im


def test_criterion_09_phi_kernel(minus_inverse):
    profiles = {d: phi_profile(minus_inverse, -1.0, 1.0, d, nodes=21)
                for d in (0.25, 0.5)}
    worst_cf = max(abs(v - _phi_closed_form(t))
                   for prof in profiles.values()
                   for t, v in zip(prof.nodes, prof.values))
    gap_delta = max(abs(a - b) for a, b in zip(profiles[0.25].values,
                                               profiles[0.5].values))
    end_vals = max(abs(profiles[0.5].values[0]), abs(profiles[0.5].values[-1]))
    ok = worst_cf <= 1e-8 and gap_delta <= 1e-8 and end_vals <= 1e-8
    _report(9, "boundary-limit profile closed form", ok,
            f"node err {worst_cf:.2e}, delta gap {gap_delta:.2e}, "
            f"endpoints {end_vals:.2e}")


def test_criterion_10_circle_line(tan_fn, sqrt_fn, minus_inverse):
    g1 = consistency_gap(tan_fn, smooth_bump(0.2, 1.3)).gap
    g2 = consistency_gap(sqrt_fn, smooth_bump(-4.0, -1.0)).gap
    g3 = joined_distribution_check(minus_inverse, constant_one()).gap
    ok = g1 <= 1e-4 and g2 <= 1e-4 and g3 <= 1e-4
    _report(10, "circle/line compatibility", ok,
            f"tan {g1:.2e}, sqrt {g2:.2e}, joined {g3:.2e}")


def test_criterion_11_inversion_duality(minus_inverse):
    worst = max(inversion_duality_gap(minus_inverse, t).gap
                for t in (smooth_bump(1.0, 4.0), smooth_bump(1.5, 3.0)))
    _report(11, "inversion duality of boundary limits", worst <= 1e-8,
            f"max gap {worst:.2e}")


def test_criterion_12_mobius_covariance(sqrt_fn):
    rng = np.random.default_rng(7)
    base = reconstruct(sqrt_fn, ReconstructionSpec(window=(-40.0, -0.02),
                                                   nodes_per_block=32))
    cases = [
        ("translation", MobiusMatrix(1, 1, 0, 1), (-8.0, -2.0)),
        ("dilation", MobiusMatrix(2, 0, 0, 1), (-9.0, -2.0)),
        ("inversion", MobiusMatrix(0, -1, 1, 0), (0.15, 8.0)),
    ]
    worst = 0.0
    for _, A, twin in cases:
        rec_a = reconstruct(compose_mobius(sqrt_fn, A),
                            ReconstructionSpec(window=twin, nodes_per_block=32))
        pushed = pushforward_mobius(base.measure, A)
        for _ in range(10):
            c = rng.uniform(twin[0] + 0.3, twin[1] - 0.3)
            w = rng.uniform(0.2, min(c - twin[0], twin[1] - c, 1.5))
            test = smooth_bump(c - w, c + w)
            worst = max(worst, abs(integrate(rec_a.measure, test)
                                   - integrate(pushed, test)))
    _report(12, "Moebius covariance of reconstruction", worst <= 1e-4,
            f"worst pairing gap {worst:.2e}")


def test_criterion_13_resynthesis(sqrt_fn, minus_inverse, tan_fn):
    start = time.time()
    res_sqrt = reconstruct(sqrt_fn, ReconstructionSpec(window=(-1e9, 1.0),
                                                       sigma_points=(0.0,),
                                                       include_infinity=True))
    r_sqrt = resynthesis_residual(sqrt_fn, res_sqrt, [1j, 2j, -1 + 2j])

    res_inv = reconstruct(minus_inverse, ReconstructionSpec(window=(-3.0, 3.0),
                                                            sigma_points=(0.0,)))
    r_inv = resynthesis_residual(minus_inverse, res_inv, [2j, -3j, 1 + 1j])

    # the truncated-series tail scales like 0.81/N, so covering odd |n| <= 1001
    # brings the resynthesis gap under 1e-3
    n_max = 1001
    sig = tuple(np.pi * n / 2.0 for n in range(-n_max, n_max + 1) if n % 2 != 0)
    width = np.pi * (n_max + 1) / 2.0
    res_tan = reconstruct(tan_fn, ReconstructionSpec(window=(-width, width),
                                                     sigma_points=sig,
                                                     include_infinity=True,
                                                     nodes_per_block=8))
    r_tan = resynthesis_residual(tan_fn, res_tan, [2j])
    elapsed = time.time() - start
    ok = r_sqrt <= 1e-4 and r_inv <= 1e-10 and r_tan <= 1e-3 and elapsed <= 300.0
    _report(13, "resynthesis round trips", ok,
            f"sqrt {r_sqrt:.2e}, -1/z {r_inv:.2e}, tan {r_tan:.2e} "
            f"({len(sig)} atoms), {elapsed:.0f}s")


def test_criterion_14_infinity_blindness(identity_fn):
    line = extract_functional(identity_fn, constant_one()).value
    mass = atomic_mass_at_infinity(identity_fn)
    ok = abs(line) <= 1e-8 and abs(mass - 1.0) <= 1e-10
    _report(14, "line functional misses the mass at infinity", ok,
            f"functional {abs(line):.2e}, mass err {abs(mass - 1.0):.2e}")


def test_criterion_15_c02_norm_estimates():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 600)
    ok = True
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-4.0, 2.0)
        b = a + rng.uniform(0.3, 4.0)
        coeffs = rng.uniform(-3.0, 3.0, size=rng.integers(1, 7))
        H = lambda x, c=coeffs: np.polyval(c, np.asarray(x, dtype=float))
        c02 = normalized_antiderivative(H, a, b)
        xs = a + (b - a) * grid
        nh = float(np.max(np.abs(c02(xs))))
        nh1 = float(np.max(np.abs(c02.derivative(1)(xs))))
        nh2 = float(np.max(np.abs(c02.derivative(2)(xs))))
        r1 = nh / max((b - a) * nh1, 1e-300)
        r2 = nh1 / max(1.5 * (b - a) * nh2, 1e-300)
        worst = max(worst, r1, r2)
        ok = ok and r1 <= 1.0 + 1e-9 and r2 <= 1.0 + 1e-9
    _report(15, "normalized antiderivative norm chain", ok,
            f"worst ratio {worst:.6f}")
