"""Command-line front end.

Subcommands
-----------
extract       density table + atom masses over a window, written as CSV/JSON
reconstruct   full measure recovery with resynthesis residual at probe points
check         named invariant suites (vladimirov, poisson-identity,
              variation-bound, circle-line, inversion-duality)
mobius        pushforward of a measure file under a 2x2 real matrix
phi-profile   boundary-limit profile sampled on a window, written as CSV
circle-line   circle/line compatibility gap report

Each subcommand, and each check suite, accepts only the flags it reads; any
other flag is a usage error.  Exit codes: 0 success, 1 configuration or usage
error, 2 divergent limit or non-simple behavior, 3 check failure.  Outputs use
shortest-roundtrip float formatting and fixed orderings, so identical
configurations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .catalog import (AnalyticFunction, CatalogSpec, _with_reflection,
                      boundary_atoms_in_window, catalog_build)
from .circle_line import consistency_gap, inversion_duality_gap
from .errors import (DomainError, NonConvergentLimitError,
                     NonSimpleBehaviorError, SpecError)
from .extrapolation import DIVERGENCE_FACTOR, LimitSchedule, diverged
from .extraction import (_height_rows, atomic_mass_batch, density_grid, simple_scan,
                         vladimirov_norm)
from .boundary_limits import phi_profile
from .measures import (measure_from_json, measure_to_json, pushforward_mobius,
                       total_variation)
from .quadrature import _quad_rows
from .reconstruction import ReconstructionSpec, reconstruct, resynthesis_residual
from .sphere import MobiusMatrix
from .testing import smooth_bump

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3

VLADIMIROV_COEFF = 0.5 * (1.0 + math.sqrt(2.0))


def _load_spec(path) -> AnalyticFunction:
    p = Path(path)
    if not p.exists():
        raise SpecError(f"function spec file not found: {path}")
    data = json.loads(p.read_text())
    spec = CatalogSpec.from_json(data)
    measure = spec.params.get("measure")
    if isinstance(measure, str):
        # measure given as a file reference, relative to the spec file
        mpath = (p.parent / measure).resolve()
        if not mpath.exists():
            raise SpecError(f"measure file not found: {measure}")
        spec.params["measure"] = measure_from_json(json.loads(mpath.read_text()))
    return catalog_build(spec)


def _parse_window(text: str):
    try:
        lo, hi = (float(v) for v in text.split(","))
    except Exception as exc:
        raise SpecError(f"bad window {text!r}; expected 'lo,hi'") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SpecError("window must be finite with lo < hi")
    return lo, hi


def _parse_numbers(text: str, kind=float):
    try:
        vals = [kind(v) for v in text.split(",")] if text else []
    except ValueError as exc:
        raise SpecError(f"bad number list {text!r}") from exc
    if not np.isfinite(vals).all():
        raise SpecError(f"non-finite number in {text!r}")
    return vals


def _positive(text: str) -> float:
    """The argparse type of tolerances and bounds: finite and above 0."""
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text!r}")
    return v


def _schedule(args) -> LimitSchedule:
    return LimitSchedule(y0=args.y0, ratio=args.ratio, steps=args.steps)


# The writers make the output directory, so that no subcommand makes it before
# it has a file to put there.
def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _global_simple_check(f: AnalyticFunction, window) -> str:
    """Return a diagnostic string if f fails simple behavior on the window or at infinity."""
    rep = simple_scan(f, window)
    if not rep.bounded:
        return (f"non-simple behavior on window [{window[0]}, {window[1]}]: "
                f"growth exponent {rep.alpha:.3f}")
    rep_inf = simple_scan(f, (1e3, math.inf))
    rep_minf = simple_scan(f, (-math.inf, -1e3))
    alpha = max(rep_inf.alpha, rep_minf.alpha)
    if not (rep_inf.bounded and rep_minf.bounded):
        return ("non-simple behavior near 0 in the inversion chart "
                f"(boundary point at infinity): growth exponent {alpha:.3f}")
    return ""


def cmd_extract(args) -> int:
    f = _load_spec(args.spec)
    lo, hi = _parse_window(args.window)
    if args.nodes < 2:
        raise SpecError(f"--nodes must be at least 2, got {args.nodes}")
    sigma = _parse_numbers(args.sigma_points)
    sched = _schedule(args)
    out = Path(args.out)

    diag = _global_simple_check(f, (lo, hi))
    if diag and not args.force:
        print(diag, file=sys.stderr)
        _write_json(out / "summary.json", {"status": "diverged", "diagnostic": diag})
        return EXIT_DIVERGED

    detected = [float(s) for s in boundary_atoms_in_window(f, lo, hi)]
    atom_sites = sorted(set(sigma) | set(detected))

    xs = np.linspace(lo, hi, args.nodes)
    step = (hi - lo) / (args.nodes - 1)
    for s in atom_sites:
        xs = xs[np.abs(xs - s) >= 5.0 * step]
    vals, errs = density_grid(f, xs, sched)

    atoms = []
    if atom_sites:
        masses, merrs = atomic_mass_batch(f, np.asarray(atom_sites), sched)
        for s, m, e in zip(atom_sites, np.atleast_1d(masses), np.atleast_1d(merrs)):
            atoms.append({"loc": s, "mass": [m.real, m.imag], "error": float(e)})

    _write_csv(out / "density.csv", ("x", "re", "im", "error_est"),
               [(x, v.real, v.imag, e) for x, v, e in zip(xs, vals, errs)])
    _write_json(out / "atoms.json", atoms)

    bad = xs[diverged(vals, errs, args.tol)].tolist()
    status = "ok" if not bad else "diverged"
    _write_json(out / "summary.json", {
        "status": status,
        "window": [lo, hi],
        "nodes": int(len(xs)),
        "atom_sites": atom_sites,
        "max_error_estimate": float(np.max(errs)) if len(xs) else 0.0,
        "divergent_points": bad,
        "tolerance": args.tol,
    })
    if bad:
        print(f"divergent density tableau at {len(bad)} points", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    f = _load_spec(args.spec)
    lo, hi = _parse_window(args.window)
    probes = _parse_numbers(args.probes.replace(" ", ""), complex)
    if any(z.imag == 0 for z in probes):
        raise SpecError("probes must lie off the real line")
    spec = ReconstructionSpec(
        window=(lo, hi),
        sigma_points=tuple(_parse_numbers(args.sigma_points)),
        include_infinity=args.infinity,
        nodes_per_block=args.nodes_per_block,
        schedule=_schedule(args),
    )
    out = Path(args.out)
    result = reconstruct(f, spec)
    residual = resynthesis_residual(f, result, probes)

    _write_json(out / "measure.json", measure_to_json(result.measure))
    diagnostics = dict(result.diagnostics)
    diagnostics.update({
        "constant": [result.constant.real, result.constant.imag],
        "residues": [[("inf" if math.isinf(loc) else loc),
                      [rho.real, rho.imag]] for loc, rho in
                     ((loc, complex(rho)) for loc, rho in result.residues)],
        "resynthesis_residual": residual,
        "probes": [[z.real, z.imag] for z in probes],
        "residual_bound": args.residual_bound,
    })
    _write_json(out / "diagnostics.json", diagnostics)
    if residual > args.residual_bound:
        print(f"resynthesis residual {residual:.3e} exceeds bound "
              f"{args.residual_bound:.3e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _check_vladimirov(args, report):
    f = _load_spec(args.spec)
    norm = vladimirov_norm(f)
    bound = VLADIMIROV_COEFF * abs(f(1j)) + 1e-9
    report["items"].append({"name": "vladimirov", "norm": norm, "bound": bound,
                            "pass": bool(norm <= bound)})


def _check_poisson_identity(args, report):
    ss, ys = np.repeat([0.0, 2.0, -3.0], 3), np.tile([1.0, 0.5, 0.1], 3)
    poisson = lambda x, g: 2.0 * ys[g] / ((1.0 + x * x) * ((ss[g] - x) ** 2 + ys[g] ** 2))
    vals, _ = _quad_rows(poisson, -math.inf, math.inf, ss.size, atol=1e-12)
    for s, y, val in zip(ss.tolist(), ys.tolist(), vals.tolist()):
        closed = 2.0 * math.pi * (y + 1.0) / (s * s + (y + 1.0) ** 2)
        err = abs(val.real - closed)
        report["items"].append({"name": f"poisson-identity(s={s},y={y})",
                                "value": val.real, "closed_form": closed,
                                "error": err, "pass": bool(err <= 1e-10)})


def _check_variation_bound(args, report):
    """int |f(x + iy) - f(x - iy)| / (1 + x^2) dx against its total-variation
    bound at three heights, the rows of one refinement; each node gets both
    sides from one call."""
    f = _load_spec(args.spec)
    if f.descriptor is None or f.descriptor.get("kind") != "cauchy":
        raise SpecError("variation-bound requires a cauchy-kind function spec")
    measure = measure_from_json(f.descriptor["measure"])
    tv_all = total_variation(measure)
    tv_fin = total_variation(measure, finite_part_only=True)
    ys = np.array([1.0, 0.1, 0.01])

    def integrand(x, y):
        upper, lower = _with_reflection(f, x + 1j * y)
        return np.abs(upper - lower).astype(complex) / (1.0 + x * x)

    vals = _height_rows(integrand, -math.inf, math.inf, 1e-8)(ys)
    for y, val in zip(ys.tolist(), vals.tolist()):
        bound = 2.0 * math.pi * y * tv_all + 2.0 * math.pi * tv_fin + 1e-8
        report["items"].append({"name": f"variation-bound(y={y})",
                                "value": val.real, "bound": bound,
                                "pass": bool(val.real <= bound)})


def _circle_line_gap(args):
    """Circle/line gap on the window's smooth bump; windows holding atoms need --force."""
    f = _load_spec(args.spec)
    lo, hi = _parse_window(args.window)
    atoms = boundary_atoms_in_window(f, lo, hi)
    if atoms.size and not args.force:
        raise SpecError(
            f"window ({lo}, {hi}) contains detected atoms at {atoms.tolist()}; "
            "pass --force to proceed")
    return consistency_gap(f, smooth_bump(lo, hi), _schedule(args))


def _check_circle_line(args, report):
    gap = _circle_line_gap(args)
    report["items"].append({"name": "circle-line", **gap.to_json(),
                            "pass": bool(gap.gap <= args.tol)})


def _check_inversion_duality(args, report):
    f = _load_spec(args.spec)
    lo, hi = _parse_window(args.window)
    gap = inversion_duality_gap(f, smooth_bump(lo, hi), _schedule(args))
    report["items"].append({"name": "inversion-duality", **gap.to_json(),
                            "pass": bool(gap.gap <= args.tol)})


_CHECKS = {
    "vladimirov": _check_vladimirov,
    "poisson-identity": _check_poisson_identity,
    "variation-bound": _check_variation_bound,
    "circle-line": _check_circle_line,
    "inversion-duality": _check_inversion_duality,
}


def cmd_check(args) -> int:
    out = Path(args.out)
    report = {"name": args.name, "items": []}
    _CHECKS[args.name](args, report)
    report["pass"] = all(item["pass"] for item in report["items"])
    _write_json(out / "report.json", report)
    for item in report["items"]:
        print(f"{item['name']}: {'pass' if item['pass'] else 'FAIL'}")
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_mobius(args) -> int:
    p = Path(args.measure)
    if not p.exists():
        raise SpecError(f"measure file not found: {args.measure}")
    measure = measure_from_json(json.loads(p.read_text()))
    vals = _parse_numbers(args.matrix)
    if len(vals) != 4:
        raise SpecError("matrix must be 'a,b,c,d'")
    moved = pushforward_mobius(measure, MobiusMatrix(*vals))
    out = Path(args.out)
    _write_json(out / "measure.json", measure_to_json(moved))
    return EXIT_OK


def cmd_phi_profile(args) -> int:
    f = _load_spec(args.spec)
    lo, hi = _parse_window(args.window)
    out = Path(args.out)
    prof = phi_profile(f, lo, hi, args.delta, nodes=args.nodes, side=args.side)
    _write_csv(out / "phi_profile.csv", ("t", "re", "im"), prof.rows())
    _write_json(out / "summary.json", {
        "window": [lo, hi], "delta": args.delta,
        "nodes": len(prof.nodes), "side": args.side,
    })
    return EXIT_OK


def cmd_circle_line(args) -> int:
    gap = _circle_line_gap(args)
    _write_json(Path(args.out) / "gap.json", gap.to_json())
    return EXIT_OK


def _add_schedule(parser):
    """Height schedule y0 * ratio^k, k < steps, of the y -> 0 limits."""
    parser.add_argument("--y0", type=float, default=0.5)
    parser.add_argument("--ratio", type=float, default=0.5)
    parser.add_argument("--steps", type=int, default=12)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herglotz",
        description="Boundary measures of holomorphic functions: extraction, "
                    "reconstruction, and consistency checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="density table and atom masses on a window")
    p.add_argument("--spec", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--sigma-points", default="", dest="sigma_points")
    p.add_argument("--nodes", type=int, default=71)
    p.add_argument("--out", required=True, help="output directory")
    _add_schedule(p)
    p.add_argument("--tol", type=_positive, default=DIVERGENCE_FACTOR)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("reconstruct", help="recover a full measure and resynthesize")
    p.add_argument("--spec", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--sigma-points", default="", dest="sigma_points")
    p.add_argument("--infinity", action="store_true")
    p.add_argument("--nodes-per-block", type=int, default=24, dest="nodes_per_block")
    p.add_argument("--probes", default="2j,-3j,1+1j")
    p.add_argument("--residual-bound", type=_positive, default=1e-3, dest="residual_bound")
    p.add_argument("--out", required=True, help="output directory")
    _add_schedule(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("check", help="named invariant suite")
    p.set_defaults(fn=cmd_check)
    suites = p.add_subparsers(dest="name", required=True)
    for name in _CHECKS:
        q = suites.add_parser(name)
        if name != "poisson-identity":
            q.add_argument("--spec", required=True)
        if name in ("circle-line", "inversion-duality"):
            q.add_argument("--window", required=True)
            _add_schedule(q)
            q.add_argument("--tol", type=_positive, default=DIVERGENCE_FACTOR)
        if name == "circle-line":
            q.add_argument("--force", action="store_true")
        q.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("mobius", help="pushforward a measure file")
    p.add_argument("--measure", required=True)
    p.add_argument("--matrix", required=True, help="a,b,c,d")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_mobius)

    p = sub.add_parser("phi-profile", help="sample the boundary-limit profile")
    p.add_argument("--spec", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--nodes", type=int, default=129)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--side", choices=("upper", "lower"), default="upper")
    p.set_defaults(fn=cmd_phi_profile)

    p = sub.add_parser("circle-line", help="circle/line compatibility gap")
    p.add_argument("--spec", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_schedule(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_circle_line)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the exit-code contract reserves 2
        # for divergence, so bad usage maps to the configuration code.
        if exc.code == 0:
            return EXIT_OK
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except (SpecError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonSimpleBehaviorError, NonConvergentLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
