"""Full measure recovery: density scan on a window, atoms at exceptional points,
mass at infinity, and resynthesis through the Cauchy transform.

The scan window is split at the exceptional points (each padded by an
exclusion radius, since pointwise density limits diverge at atoms) and each
piece is gridded on Chebyshev-Lobatto nodes in the 2*arctan coordinate, with
geometric decade blocks when a piece spans several scales.  Atom masses come
from the tangential limits y f(x+iy)/(i(1+x^2)) and f(iy)/(iy); the additive
constant is read off directly as (f(i) + f(-i))/2.

Reconstruction windows never silently hide truncation: results carry a
window_truncated flag whenever the catalog metadata shows boundary support
outside the window, and the resynthesis residual then reflects the missing
tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .catalog import AnalyticFunction, cauchy_eval
from .errors import NonSimpleBehaviorError, SpecError
from .extrapolation import LimitSchedule, diverged
from .extraction import (_require_simple, atomic_mass_at_infinity, atomic_mass_batch,
                         density_grid)
from .measures import Atom, BoundaryMeasure, _table_densities, INF
from .quadrature import _lobatto

__all__ = [
    "ReconstructionSpec",
    "ReconstructionResult",
    "reconstruct",
    "resynthesis_residual",
    "tan_sigma_log_masses",
]


@dataclass(frozen=True)
class ReconstructionSpec:
    """Scan window, exceptional points, and resolution knobs for reconstruct."""

    window: tuple
    sigma_points: tuple = ()
    include_infinity: bool = False
    nodes_per_block: int = 24
    schedule: LimitSchedule = field(default_factory=LimitSchedule)

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise SpecError("window must be a nonempty interval")
        for s in self.sigma_points:
            if not (lo < s < hi):
                raise SpecError(f"exceptional point {s} outside the window")
        if self.nodes_per_block < 4:
            raise SpecError("need at least 4 nodes per block")


@dataclass(frozen=True)
class ReconstructionResult:
    measure: BoundaryMeasure
    constant: complex
    residues: tuple  # ((sigma or inf, rho), ...)
    diagnostics: dict
    window_truncated: bool


def _exclusion_radii(spec: ReconstructionSpec, sigmas: np.ndarray,
                     has_mass: np.ndarray) -> np.ndarray:
    """Half-widths of the density-scan gaps around the sorted exceptional points.

    A point carrying mass contaminates pointwise density limits out to the
    largest height whose sample the extrapolated value weights, the first of
    the last order + 1, so the gap must clear that scale.  A massless
    exceptional point only pins a candidate; the density continues through it
    and the gap stays at the floor 1e-3 so no real mass is truncated.  The
    nearest other exceptional point, a neighbour in sorted order, bounds the
    gap from above.
    """
    sched = spec.schedule
    y_eff = sched.y0 * sched.ratio ** max(0, sched.steps - 1 - sched.order)
    r = np.where(has_mass, max(1e-3, 3.2 * y_eff), 1e-3)
    gaps = np.diff(sigmas)
    nearest = np.minimum(np.append(gaps, INF), np.insert(gaps, 0, INF))
    return np.minimum(r, 0.45 * nearest)


def _decade_edges(lo: float, hi: float):
    """Edges of decade blocks for a same-sign interval spanning many scales."""
    m1, m2 = sorted((abs(lo), abs(hi)))
    if m1 <= 0 or m2 / m1 <= 10.0:
        return [lo, hi]
    sign = 1.0 if lo > 0 else -1.0
    mags = [m1]
    while mags[-1] * 10.0 < m2:
        mags.append(mags[-1] * 10.0)
    mags.append(m2)
    pts = sorted(sign * m for m in mags)
    pts[0], pts[-1] = min(lo, hi), max(lo, hi)
    return pts


def _piece_blocks(lo: float, hi: float):
    """Block edges for one scan piece; splits at +-1 when the piece crosses zero widely."""
    if lo < 0.0 < hi and (hi - lo) > 100.0:
        parts = [(lo, -1.0), (-1.0, 1.0), (1.0, hi)]
    else:
        parts = [(lo, hi)]
    edges = []
    for u, v in parts:
        if u < 0.0 < v:
            edges.append([u, v])
        else:
            edges.append(_decade_edges(u, v))
    blocks = []
    for es in edges:
        blocks.extend(zip(es[:-1], es[1:]))
    return blocks


def _lobatto_arctan(lo: float, hi: float, n: int) -> np.ndarray:
    xs = np.tan(0.5 * _lobatto(2.0 * math.atan(lo), 2.0 * math.atan(hi), n))
    if math.isfinite(lo):
        xs[0] = lo
    if math.isfinite(hi):
        xs[-1] = hi
    return xs


def _window_truncated(f: AnalyticFunction, lo: float, hi: float) -> bool:
    for entry in f.boundary_support:
        if entry[0] == "interval":
            if entry[1] < lo or entry[2] > hi:
                return True
        else:
            p = entry[1]
            if math.isinf(p):
                continue
            if not lo <= p <= hi:
                return True
    if f.pole_locator is not None:
        # Probe bands adjacent to the window; enumeration far out is neither
        # possible nor needed for a truncation diagnostic.
        span = 10.0 * (hi - lo) + 100.0
        outside = np.concatenate([
            np.atleast_1d(f.pole_locator(lo - span, lo)),
            np.atleast_1d(f.pole_locator(hi, hi + span)),
        ])
        if outside.size:
            return True
    return False


def reconstruct(f: AnalyticFunction, spec: ReconstructionSpec) -> ReconstructionResult:
    """Recover density table, atoms, and constant for f over the scan window."""
    lo, hi = spec.window
    sigmas = sorted(set(float(s) for s in spec.sigma_points))

    atoms = []
    atom_errs = {}
    if sigmas:
        masses, errs = atomic_mass_batch(f, np.asarray(sigmas), spec.schedule)
        for s, m, e, bad in zip(sigmas, masses, errs, diverged(masses, errs)):
            if bad:
                raise NonSimpleBehaviorError(
                    f"atomic mass limit at {s} diverged (error estimate {e:.2e})")
            atoms.append(Atom(s, complex(m)))
            atom_errs[s] = float(e)
    if spec.include_infinity:
        atoms.append(Atom(INF, atomic_mass_at_infinity(f)))

    mass_floor = 1e-9
    mass_at = {a.loc: a.mass for a in atoms}
    has_mass = np.array([abs(mass_at.get(s, 0j)) > mass_floor for s in sigmas], dtype=bool)
    radii = dict(zip(sigmas, _exclusion_radii(spec, np.array(sigmas), has_mass).tolist()))
    cut_points = [lo]
    for s in sigmas:
        cut_points.extend((s - radii[s], s + radii[s]))
    cut_points.append(hi)
    pieces = [(u, v) for u, v in zip(cut_points[::2], cut_points[1::2]) if u < v]

    # Every piece's nodes first; then the scan and the density limits run
    # over all pieces in one batch, split back per piece.  The extrapolation
    # adds weighted samples column by column and every evaluator is batch
    # invariant, so each piece gets exactly the values a call of its own gives.
    blocks = [_piece_blocks(u, v) for u, v in pieces]
    piece_xs = [np.unique(np.concatenate([_lobatto_arctan(blo, bhi, spec.nodes_per_block)
                                          for blo, bhi in bs])) for bs in blocks]
    density_parts = []
    max_density_err = 0.0
    if pieces:
        scan_nx = int(max(9, min(61, 4000 / sum(map(len, blocks)))))
        _require_simple(f, *np.array(pieces).T, 1.0, "density scan piece", nx=scan_nx, ny=9)
        vals, errs = density_grid(f, np.concatenate(piece_xs), spec.schedule)
        max_density_err = max(max_density_err, float(np.max(errs)))
        tables = np.split(vals, np.cumsum([len(xs) for xs in piece_xs])[:-1])
        density_parts = _table_densities(piece_xs, tables)

    constant = 0.5 * (f(1j) + f(-1j))
    residues = tuple(
        (a.loc, a.mass if math.isinf(a.loc) else -a.mass * (1.0 + a.loc ** 2))
        for a in atoms)
    truncated = _window_truncated(f, lo, hi)
    measure = BoundaryMeasure(tuple(atoms), tuple(density_parts), "line")
    diagnostics = {
        "window": [lo, hi],
        "pieces": [[u, v] for u, v in pieces],
        "exclusion_radii": {str(s): radii[s] for s in sigmas},
        "density_nodes": sum(map(len, piece_xs)),
        "max_density_error_estimate": max_density_err,
        "atom_error_estimates": {str(k): v for k, v in atom_errs.items()},
        "window_truncated": truncated,
    }
    return ReconstructionResult(measure, complex(constant), residues,
                                diagnostics, truncated)


def resynthesis_residual(f: AnalyticFunction, result: ReconstructionResult,
                         probes: Sequence[complex]) -> float:
    """Max over probes of |f(z) - resynthesized Cauchy transform at z|."""
    zs = np.asarray(probes, dtype=complex).ravel()
    if np.any(zs.imag == 0.0):
        raise SpecError("probes must lie off the real line")
    if not zs.size:
        return 0.0
    synth = cauchy_eval(result.measure, result.constant, zs)
    return float(np.max(np.abs(f(zs) - synth)))


def tan_sigma_log_masses(sigma: float, n_range: Sequence[int]):
    """Closed-form atom list for 2/sin(2 sigma log z): locations exp(pi n/(2 sigma)).

    Mass at index n is (-1)^(n+1) (1/sigma) / (exp(pi n/(2 sigma)) + exp(-pi n/(2 sigma))):
    the odd-n family belongs to tan(sigma log z), the even-n family to
    cot(sigma log z).
    """
    if sigma <= 0:
        raise SpecError("sigma must be positive")
    out = []
    for n in n_range:
        loc = math.exp(math.pi * n / (2.0 * sigma))
        mass = (-1.0) ** (n + 1) / sigma / (loc + 1.0 / loc)
        out.append((loc, mass))
    return out
