"""The benchmark's three workloads: inputs drawn from a seed, the calls of one
round, and the checks of their outputs.

A workload is a fixed list of calls.  One round runs every call once, in
order; ``check`` turns a call's output into one pass flag per operation (an
evaluated point, a limit, a CLI run).  Only calls marked ``known_fault`` may
fail: the four near-boundary points, not drawn from the seed, at which the
peak window of ``cauchy_eval`` runs out of panels.  Any other failure makes
the run incorrect.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from herglotz import (BoundaryMeasure, CatalogSpec, DensityPart, MobiusMatrix,
                      ReconstructionSpec, boundary_functional,
                      boundary_limit_order_m, catalog_build, circle_limit,
                      consistency_gap, extract_functional, integrate,
                      inversion_duality_gap, joined_distribution_check,
                      normalized_antiderivative, pair_with_phi, phi_profile,
                      pushforward_mobius, reconstruct, resynthesis_residual)
from herglotz.catalog import compose_mobius
from herglotz.circle_line import RadiusSchedule
from herglotz.cli import main as cli_main
from herglotz.extraction import atomic_mass_batch, density_grid
from herglotz.measures import density_from_descriptor
from herglotz.testing import constant_one, smooth_bump

import oracles as orc

WORKLOADS = ("near-boundary", "nested-quadrature", "grid-reconstruct")


@dataclass
class Call:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]  # output -> pass flags, one per operation
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    calls: list
    functions: list  # every catalog function the calls evaluate

    def warm_up(self) -> None:
        """Evaluate each function once away from its boundary."""
        for f in self.functions:
            f(0.5j if f.picture == "disc" else 0.5 + 1j)

    def run_round(self) -> list:
        return [c.run() for c in self.calls]

    def check(self, outputs) -> dict:
        """Operations attempted and failed in one round, and which calls failed."""
        attempted = failed = 0
        bad, known_only = [], True
        for call, out in zip(self.calls, outputs):
            flags = np.atleast_1d(np.asarray(call.check(out), dtype=bool))
            attempted += flags.size
            n_bad = int(flags.size - np.count_nonzero(flags))
            failed += n_bad
            if n_bad:
                bad.append(f"{call.name} ({n_bad}/{flags.size})")
                known_only &= call.known_fault
        return {"attempted": attempted, "failed": failed, "failed_calls": bad,
                "failures_known_only": known_only}


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    functions = []

    def keep(f):
        functions.append(f)
        return f

    calls = {"near-boundary": _near_boundary,
             "nested-quadrature": _nested_quadrature,
             "grid-reconstruct": _grid_reconstruct}[name](rng, workdir, keep)
    return Workload(name, calls, functions)


# ---------------------------------------------------------------------------
# Shared inputs


def _power_measure(p: complex) -> BoundaryMeasure:
    d = density_from_descriptor({"kind": "catalog-power", "p": [p.real, p.imag],
                                 "support": [-math.inf, 0.0]})
    return BoundaryMeasure((), (d,))


def _power_transform(p: complex):
    """z**p as the Cauchy transform of its boundary density, constant cos(pi p / 2)."""
    return catalog_build(CatalogSpec("cauchy", {"measure": _power_measure(p),
                                                "constant": complex(np.cos(np.pi * p / 2))}))


def _disc_cosine(c: complex):
    dens = DensityPart((-np.pi, np.pi),
                       lambda t: np.cos(np.asarray(t, dtype=float)).astype(complex))
    return catalog_build(CatalogSpec("disc_herglotz", {
        "measure": BoundaryMeasure((), (dens,), "circle"), "constant": c}))


def _rational_minus_inverse():
    return catalog_build(CatalogSpec("rational", {"a": 0, "b": 0, "poles": [0.0],
                                                  "coeffs": [1.0]}))


def _cli(argv, out: Path):
    """Run the CLI in-process; returns the exit code and every output file's bytes."""
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv + ["--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _limit(res):
    return (res.value, res.error_estimate)


# ---------------------------------------------------------------------------
# near-boundary: evaluators and deep adaptive refinement, no extrapolation


def _halfplane_points(rng, n):
    """x = -+10^u with u in [-2, 2] (three in four on the support x < 0),
    heights 10^-k for k = 0..4, either half plane."""
    mag = 10.0 ** rng.uniform(-2.0, 2.0, n)
    x = np.where(rng.random(n) < 0.75, -mag, mag)
    y = 10.0 ** -rng.integers(0, 5, n).astype(float)
    return x + 1j * y * rng.choice([-1.0, 1.0], n)


def _disc_points(rng, n):
    """Angles in (-pi, pi], 1 - |z| in {0.5, 1e-1, ..., 1e-5}, inside or outside."""
    gap = np.array([0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5])[rng.integers(0, 6, n)]
    r = np.where(rng.random(n) < 0.5, 1.0 - gap, 1.0 / (1.0 - gap))
    return r * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


def _eval_calls(tag, f, zs, oracle, n_single, known_fault=False):
    """n_single points evaluated one by one, the rest in one batch."""
    calls = []
    for j, z in enumerate(zs[:n_single]):
        calls.append(Call(f"{tag} single {j} z={z:.6g}", lambda f=f, z=z: f(z),
                          lambda v, z=z: orc.close(v, oracle(z), orc.EVAL_TOL), known_fault))
    batch = np.asarray(zs[n_single:])
    if batch.size:
        calls.append(Call(f"{tag} batch", lambda f=f, b=batch: f(b),
                          lambda v, b=batch: orc.close(v, oracle(b), orc.EVAL_TOL),
                          known_fault))
    return calls


# Points of the near-boundary workload that do not depend on the seed.  The
# Cauchy points make the peak window of cauchy_eval hit its panel cap and miss
# the tolerance: the known fault.  The disc points hit the cap of the disc
# evaluator too but stay within the tolerance, so they must pass.
DEEP_CAUCHY_P = 0.5
DEEP_CAUCHY = (-1.0 + 1e-12j, -1000.0 - 1e-9j,          # evaluated singly
               -1.0 - 1e-12j, -1000.0 + 1e-9j)          # evaluated as one batch
DEEP_DISC_C = 0.1j
DEEP_DISC = ((1.0 - 1e-9) * np.exp(1.0j),               # evaluated singly
             np.exp(-2.0j) / (1.0 - 1e-9), (1.0 - 1e-9) * np.exp(2.5j))  # batch


def _near_boundary(rng, workdir, keep):
    calls = []
    ps = [complex(rng.uniform(-0.75, 0.75))] + [
        complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.5, 0.5)) for _ in range(2)]
    for p in ps:
        calls += _eval_calls(f"cauchy p={p:.4g}", keep(_power_transform(p)),
                             _halfplane_points(rng, 12),
                             lambda z, p=p: orc.principal_power(z, p), 6)
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    calls += _eval_calls(f"disc c={c:.4g}", keep(_disc_cosine(c)), _disc_points(rng, 12),
                         lambda z, c=c: orc.disc_cosine(z, c), 6)
    calls += _eval_calls("deep cauchy", keep(_power_transform(DEEP_CAUCHY_P)), DEEP_CAUCHY,
                         lambda z: orc.principal_power(z, DEEP_CAUCHY_P), 2,
                         known_fault=True)
    calls += _eval_calls("deep disc", keep(_disc_cosine(DEEP_DISC_C)), DEEP_DISC,
                         lambda z: orc.disc_cosine(z, DEEP_DISC_C), 1)
    return calls


# ---------------------------------------------------------------------------
# nested-quadrature: quadratures of quadratures and per-point quadrature loops


def _nested_quadrature(rng, workdir, keep):
    calls = []
    minus_inv = keep(_rational_minus_inverse())

    # CLI variation-bound on a 257-node table measure with an atom at 0.
    amp, mass = rng.uniform(0.8, 1.2), rng.uniform(0.4, 0.6)
    xs = np.linspace(-3.0, -0.5, 257)
    vals = amp * np.sqrt(-xs) / (np.pi * (1.0 + xs * xs))
    vdir = workdir / "variation"
    vdir.mkdir(exist_ok=True)
    _write_json(vdir / "m.json", {
        "picture": "line", "atoms": [{"loc": 0.0, "mass": [mass, 0.0]}],
        "densities": [{"kind": "table", "support": [xs[0], xs[-1]], "xs": xs.tolist(),
                       "vals": [[v, 0.0] for v in vals.tolist()]}]})
    spec = _write_json(vdir / "c.json", {"kind": "cauchy", "measure": "m.json",
                                         "constant": [0.0, 0.0]})

    def variation_ok(out):
        code, files = out
        report = json.loads(files["report.json"])
        tv_dens = orc.quad_complex(
            lambda x: amp * math.sqrt(-x) / (math.pi * (1.0 + x * x)), -3.0, -0.5).real
        tv = mass + tv_dens  # no atom at infinity: the finite part carries all of it
        # Slack 1e-3 covers the table's interpolation error against the closed form.
        return [code == 0 and report["pass"]] + [
            it["value"] <= 2 * math.pi * (y + 1.0) * tv * (1 + 1e-3)
            for it, y in zip(report["items"], (1.0, 0.1, 0.01))]

    calls.append(Call("cli check variation-bound",
                      lambda: _cli(["check", "variation-bound", "--spec", spec],
                                   vdir / "out"), variation_ok))

    # circle_limit of the disc cosine density.
    c = complex(0.0, rng.uniform(-1, 1))
    mid = rng.uniform(-0.5, 0.5)
    bump = smooth_bump(mid - 1.5, mid + 1.5)
    rsched = RadiusSchedule(steps=8, order=6)
    phi = keep(_disc_cosine(c))

    def circle_ok(v):
        ref = orc.quad_complex(lambda t: bump(np.array([t]))[0] * math.cos(t),
                               mid - 1.5, mid + 1.5)
        return orc.close(v[0], ref, 1e-6)

    calls.append(Call("circle_limit disc cosine",
                      lambda: _limit(circle_limit(phi, bump, rsched)), circle_ok))

    # boundary_functional on both sides, against the closed-form profile of -1/z.
    for j in range(2):
        a, b = -1.0, rng.uniform(1.0, 1.4)
        coef = rng.uniform(-1.0, 1.0, 3)
        H = lambda x, c=coef: c[0] + c[1] * np.asarray(x) + c[2] * np.asarray(x) ** 2
        h02 = normalized_antiderivative(H, a, b)
        delta = rng.uniform(0.3, 0.6)

        @functools.cache
        def ref(a=a, b=b, H=H):
            return orc.quad_complex(lambda t: H(t) * orc.phi_minus_inverse(t, a, b),
                                    a, b, points=[0.0])

        for side in ("upper", "lower"):
            calls.append(Call(
                f"boundary_functional {side} {j}",
                lambda h02=h02, d=delta, s=side: boundary_functional(minus_inv, h02, d, side=s),
                lambda v, s=side, ref=ref: orc.close(
                    v, ref() if s == "upper" else np.conj(ref()), 1e-8)))

        def profile_ok(out, a=a, b=b, ref=ref):
            nodes, values, paired = out
            return [bool(np.all(orc.close(values, orc.phi_minus_inverse(nodes, a, b), 1e-8))),
                    bool(orc.close(paired, ref(), 1e-6)[0])]

        def profile_run(a=a, b=b, h02=h02, d=delta):
            prof = phi_profile(minus_inv, a, b, d, nodes=33)
            return np.array(prof.nodes), np.array(prof.values), pair_with_phi(prof, h02)

        calls.append(Call(f"phi_profile -1/z {j}", profile_run, profile_ok))

    # Order-m limits: -1/z with m = 1 (PV plus a delta), z^(1/2) with m = 0.
    sqrt_fn = keep(catalog_build(CatalogSpec("power", {"p": 0.5})))
    lo, hi = rng.uniform(-1.2, -0.8), rng.uniform(0.8, 1.2)
    test = smooth_bump(lo, hi)
    t_real = lambda x: float(test(np.array([x]))[0].real)

    calls.append(Call(
        "boundary_limit_order_m -1/z m=1",
        lambda: boundary_limit_order_m(minus_inv, test, lo, hi, 0.5, 1),
        lambda v: orc.close(v, -orc.pv_over_x(t_real, lo, hi) + 1j * math.pi * t_real(0.0),
                            1e-7)))
    calls.append(Call(
        "boundary_limit_order_m z^1/2 m=0",
        lambda: boundary_limit_order_m(sqrt_fn, test, lo, hi, 0.5, 0),
        lambda v: orc.close(v, orc.quad_complex(
            lambda x: t_real(x) * (1j * math.sqrt(-x) if x < 0 else math.sqrt(x)),
            lo, hi, points=[0.0]), 1e-7)))

    # Single-level line functionals.
    p = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
    power_fn = keep(catalog_build(CatalogSpec("power", {"p": p})))
    e_lo = rng.uniform(-4.5, -3.0)
    e_test = smooth_bump(e_lo, e_lo + 2.5)
    calls.append(Call(
        "extract_functional z^p",
        lambda: _limit(extract_functional(power_fn, e_test)),
        lambda v: orc.close(v[0], orc.quad_complex(
            lambda x: e_test(np.array([x]))[0] * orc.power_density(x, p),
            e_lo, e_lo + 2.5), 1e-6)))

    tan_fn = keep(catalog_build(CatalogSpec("tan")))
    g_lo = rng.uniform(0.1, 0.3)
    g_test = smooth_bump(g_lo, g_lo + 1.1)

    def tan_gap_ok(gap):
        line = -1j * orc.quad_complex(
            lambda s: g_test(np.array([s]))[0] * math.tan(s) * 2.0 / (1.0 + s * s),
            g_lo, g_lo + 1.1)
        return [gap.gap <= 1e-6, bool(orc.close(gap.line, line, 1e-6)[0])]

    calls.append(Call("consistency_gap tan", lambda: consistency_gap(tan_fn, g_test),
                      tan_gap_ok))

    i_lo = rng.uniform(1.0, 1.5)
    i_test = smooth_bump(i_lo, i_lo + 2.5)

    def duality_ok(gap):
        lhs = orc.quad_complex(lambda x: -i_test(np.array([x]))[0] / (x * (1.0 + x * x)),
                               i_lo, i_lo + 2.5)
        return [gap.gap <= 1e-8, bool(orc.close(gap.circle, lhs, 1e-8)[0])]

    calls.append(Call("inversion_duality_gap -1/z",
                      lambda: inversion_duality_gap(minus_inv, i_test), duality_ok))
    calls.append(Call("joined_distribution_check -1/z",
                      lambda: joined_distribution_check(minus_inv, constant_one()),
                      lambda gap: gap.gap <= 1e-4))
    return calls


# ---------------------------------------------------------------------------
# grid-reconstruct: whole grids per evaluator call, tableaux and table densities


def _grid_reconstruct(rng, workdir, keep):
    calls = []
    sqrt_fn = keep(catalog_build(CatalogSpec("power", {"p": 0.5})))
    minus_inv = keep(_rational_minus_inverse())
    probes = list(rng.uniform(-2.0, 2.0, 3) + 1j * rng.uniform(1.0, 3.0, 3))

    def rec(f, spec, probe_pts):
        res = reconstruct(f, spec)
        return res, resynthesis_residual(f, res, probe_pts)

    sqrt_spec = ReconstructionSpec(window=(-1e9, 1.0), sigma_points=(0.0,),
                                   include_infinity=True)
    calls.append(Call(
        "reconstruct z^1/2", lambda: _summary(*rec(sqrt_fn, sqrt_spec, probes)),
        lambda s: [s["residual"] <= 1e-4,
                   all(abs(m) <= 1e-8 for m in s["masses"].values())]))

    inv_spec = ReconstructionSpec(window=(-3.0, 3.0), sigma_points=(0.0,))
    calls.append(Call(
        "reconstruct -1/z", lambda: _summary(*rec(minus_inv, inv_spec, probes)),
        lambda s: [s["residual"] <= 1e-10, abs(s["masses"][0.0] - 1.0) <= 1e-8]))

    inv_log = keep(catalog_build(CatalogSpec("power_over_log", {"p": 0.0})))
    log_spec = ReconstructionSpec(window=(-4.0, 3.0), sigma_points=(0.0, 1.0),
                                  include_infinity=True)
    calls.append(Call(
        "reconstruct 1/log z", lambda: _summary(reconstruct(inv_log, log_spec), None),
        lambda s: abs(s["masses"][1.0] + 0.5) <= 1e-8))

    # tan with the 1002 poles pi n / 2, n odd, |n| <= 1001.
    tan_fn = keep(catalog_build(CatalogSpec("tan")))
    n_max = 1001
    sig = tuple(np.pi * n / 2.0 for n in range(-n_max, n_max + 1) if n % 2)
    width = np.pi * (n_max + 1) / 2.0
    tan_spec = ReconstructionSpec(window=(-width, width), sigma_points=sig,
                                  include_infinity=True, nodes_per_block=8)

    def tan_ok(s):
        locs = np.array(sig)
        got = np.array([s["masses"][x] for x in sig])
        return [s["residual"] <= 1e-3,
                bool(np.all(np.abs(got - orc.tan_mass(locs)) <= 1e-6 * orc.tan_mass(locs)))]

    calls.append(Call("reconstruct tan 1002 poles",
                      lambda: _summary(*rec(tan_fn, tan_spec, [2j])), tan_ok))

    # Moebius covariance: reconstruct f(A.z), push the measure of f forward by A,
    # compare pairings with bumps.
    base_spec = ReconstructionSpec(window=(-40.0, -0.02), nodes_per_block=32)
    t, k = rng.uniform(0.5, 1.5), rng.uniform(1.5, 2.5)
    cases = [(MobiusMatrix(1, t, 0, 1), (-8.0, -1.0 - t)),
             (MobiusMatrix(k, 0, 0, 1), (-9.0, -2.0)),
             (MobiusMatrix(0, -1, 1, 0), (0.15, 8.0))]
    bumps = []
    for _, (lo, hi) in cases:
        row = []
        for _ in range(3):
            c = rng.uniform(lo + 0.3, hi - 0.3)
            w = rng.uniform(0.2, min(c - lo, hi - c, 1.5))
            row.append(smooth_bump(c - w, c + w))
        bumps.append(row)

    def covariance():
        base = reconstruct(sqrt_fn, base_spec).measure
        gaps = []
        for (A, twin), row in zip(cases, bumps):
            rec_a = reconstruct(compose_mobius(sqrt_fn, A),
                                ReconstructionSpec(window=twin, nodes_per_block=32))
            pushed = pushforward_mobius(base, A)
            gaps += [abs(integrate(rec_a.measure, b) - integrate(pushed, b)) for b in row]
        return np.array(gaps)

    calls.append(Call("mobius covariance z^1/2", covariance, lambda g: g <= 1e-4))

    # Large grids straight into the evaluators.
    xs = np.sort(-(10.0 ** rng.uniform(-1.0, math.log10(50.0), 100000)))
    calls.append(Call(
        "density_grid z^1/2 100000 points", lambda: density_grid(sqrt_fn, xs)[0],
        lambda v: bool(np.all(orc.close(v, orc.power_density(xs, 0.5), 1e-6)))))
    poles = np.pi * np.arange(-39999, 40000, 2) / 2.0
    calls.append(Call(
        "atomic_mass_batch tan 40000 poles", lambda: atomic_mass_batch(tan_fn, poles)[0],
        lambda v: bool(np.all(np.abs(v - orc.tan_mass(poles)) <= 1e-6 * orc.tan_mass(poles)))))
    sigma = rng.uniform(1.0, 2.0)
    csc2 = keep(catalog_build(CatalogSpec("csc2_sigma_log", {"sigma": sigma})))
    ns = np.arange(-2, 3)
    locs = np.exp(np.pi * ns / (2.0 * sigma))
    expect = np.array([orc.csc2_sigma_log_mass(sigma, int(n)) for n in ns])
    calls.append(Call(
        "atomic_mass_batch csc2 sigma-log", lambda: atomic_mass_batch(csc2, locs)[0],
        lambda v: bool(np.all(np.abs(v - expect) <= 1e-6 * np.abs(expect)))))

    # CLI extract and reconstruct writing CSV/JSON.
    cdir = workdir / "cli"
    cdir.mkdir(exist_ok=True)
    p = rng.uniform(0.3, 0.7)
    power_spec = _write_json(cdir / "power.json", {"kind": "power", "p": [p, 0.0]})

    def extract_ok(out):
        code, files = out
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in files["density.csv"].decode().splitlines()[1:]])
        dens = rows[:, 1] + 1j * rows[:, 2]
        return [code == 0,
                bool(np.all(orc.close(dens, orc.power_density(rows[:, 0], p), 1e-6)))]

    calls.append(Call("cli extract z^p",
                      lambda: _cli(["extract", "--spec", power_spec, "--window=-6,-0.5",
                                    "--nodes", "2001"], cdir / "extract"), extract_ok))

    # tan with the 202 poles pi n / 2, n odd, |n| <= 201: the truncated tail
    # leaves about 0.81 / 201 in the residual.
    tan_poles = [np.pi * n / 2.0 for n in range(-201, 202, 2)]
    tan_file = _write_json(cdir / "tan.json", {"kind": "tan"})
    tan_argv = ["reconstruct", "--spec", tan_file, f"--window=-{np.pi * 101},{np.pi * 101}",
                "--sigma-points=" + ",".join(repr(x) for x in tan_poles), "--infinity",
                "--nodes-per-block", "8", "--residual-bound", "1e-2"]

    def cli_rec_ok(out):
        code, files = out
        diag = json.loads(files["diagnostics.json"])
        atoms = json.loads(files["measure.json"])["atoms"]
        got = np.array([a["mass"][0] for a in atoms if a["loc"] != "inf"])
        locs = np.array([a["loc"] for a in atoms if a["loc"] != "inf"])
        return [code == 0, diag["resynthesis_residual"] <= 1e-2,
                bool(np.all(np.abs(got - orc.tan_mass(locs)) <= 1e-6 * orc.tan_mass(locs)))]

    calls.append(Call("cli reconstruct tan 202 poles",
                      lambda: _cli(tan_argv, cdir / "reconstruct"), cli_rec_ok))
    return calls


def _summary(res, residual):
    """The outputs of one reconstruction that the checks and the digest read."""
    tables = [np.asarray([v for pair in d.descriptor["vals"] for v in pair])
              for d in res.measure.densities]
    return {"masses": {a.loc: a.mass for a in res.measure.atoms}, "constant": res.constant, "residual": residual,
            "tables": tables}
