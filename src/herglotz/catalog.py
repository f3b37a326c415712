"""Holomorphic function catalog: evaluatable objects with boundary metadata.

Every function familiar from the boundary-measure theory is available as an
``AnalyticFunction``: an off-boundary evaluator together with its boundary
support and a serializable build recipe.
The generic member is the Cauchy-type transform of an arbitrary boundary
measure,

    phi(z) = c + integral of (1 + s z)/(s - z) lambda(ds),

whose kernel takes the value z at s = infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SpecError
from .measures import (BoundaryMeasure, measure_from_json, measure_to_json,
                       INF, _image_pieces, _image_point)
from .quadrature import _refine, _row_totals, adaptive_quad, quad_real_line
from .sphere import MobiusMatrix

__all__ = [
    "AnalyticFunction",
    "CatalogSpec",
    "principal_log",
    "principal_power",
    "catalog_build",
    "cauchy_kernel",
    "cauchy_eval",
    "invert_variable",
    "star_reflect",
    "boundary_atoms_in_window",
]


def _as_complex_array(z):
    arr = np.asarray(z, dtype=complex)
    return arr, (arr.ndim == 0)


@dataclass(frozen=True)
class AnalyticFunction:
    """Evaluator on the complement of the boundary (real line or unit circle).

    boundary_support entries are ("interval", lo, hi) or ("point", loc) with
    loc possibly infinite; pole_locator enumerates atom candidates inside a
    window for families with infinitely many poles.

    star_symmetric means f(conj z) = conj f(z), so the lower side of a
    reflection pair is the conjugate of the upper one.  ``catalog_build``
    derives it from real recipe data, and ``compose_mobius`` (real matrices)
    and ``star_reflect`` keep it; no spec field or CLI flag sets it.  The
    disc is left out: there the mirror value 2 Re c - conj phi(w) is not
    bit-equal to an evaluation at 1/conj(w).
    """

    fn: Callable = field(repr=False)
    picture: str = "half-plane"
    boundary_support: tuple = ()
    has_representing_measure: Optional[bool] = None
    descriptor: Optional[dict] = None
    pole_locator: Optional[Callable] = field(default=None, repr=False)
    star_symmetric: bool = False

    def __post_init__(self):
        if self.picture not in ("half-plane", "disc"):
            raise SpecError(f"unknown picture {self.picture!r}")
        if self.star_symmetric and self.picture == "disc":
            raise SpecError("star_symmetric applies to half-plane functions only")

    def __call__(self, z):
        arr, scalar = _as_complex_array(z)
        if self.picture == "half-plane":
            if np.any(arr.imag == 0.0):
                raise DomainError("evaluator invoked on the real boundary")
        else:
            if np.any(np.abs(arr) == 1.0):
                raise DomainError("evaluator invoked on the unit circle")
        out = np.asarray(self.fn(arr), dtype=complex)
        return complex(out.ravel()[0]) if scalar else out


def _with_reflection(f: AnalyticFunction, z):
    """(f(z), f(z*)) from one call of f, z* the mirror image of z across the
    boundary: conj(z) on the half plane, 1/conj(z) on the disc.

    An evaluator that integrates a measure refines one joint quadrature over
    the points of a call, and a point and its mirror image need the same
    panels, so the pair costs one refinement instead of two.  A pointwise
    evaluator gives the values of two separate calls bit for bit.  A
    star-symmetric f is called on z alone and f(z*) is conj f(z).
    """
    z = np.asarray(z, dtype=complex)
    if f.star_symmetric:
        v = f(z)
        return v, np.conj(v)
    mirror = np.conj(z) if f.picture == "half-plane" else 1.0 / np.conj(z)
    both = f(np.concatenate([z.ravel(), mirror.ravel()]))
    return both[:z.size].reshape(z.shape), both[z.size:].reshape(z.shape)


def principal_log(z):
    """Principal branch of the logarithm; domain error on (-inf, 0], 0 and infinity."""
    arr, scalar = _as_complex_array(z)
    if np.any(~np.isfinite(arr)):
        raise DomainError("logarithm undefined at infinity")
    on_cut = (arr.imag == 0.0) & (arr.real <= 0.0)
    if np.any(on_cut):
        raise DomainError("logarithm evaluated on the branch cut (-inf, 0]")
    out = np.log(arr)
    return complex(out) if scalar else out


def principal_power(z, p):
    """z**p = exp(p log z) on the cut plane; satisfies (z**p)* = z**conj(p)."""
    lg = principal_log(z)
    out = np.exp(np.asarray(p, dtype=complex) * lg)
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Overflow-safe trigonometric kernels (one-sided exponential forms)


def _tan_values(z):
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    up = z.imag >= 0
    if np.any(up):
        w = np.exp(2j * z[up])
        out[up] = -1j * (w - 1.0) / (w + 1.0)
    if np.any(~up):
        v = np.exp(-2j * z[~up])
        out[~up] = -1j * (1.0 - v) / (1.0 + v)
    return out


def _cot_values(z):
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    up = z.imag >= 0
    if np.any(up):
        w = np.exp(2j * z[up])
        out[up] = 1j * (w + 1.0) / (w - 1.0)
    if np.any(~up):
        v = np.exp(-2j * z[~up])
        out[~up] = 1j * (1.0 + v) / (1.0 - v)
    return out


def _inv_sin_values(zeta):
    zeta = np.asarray(zeta, dtype=complex)
    out = np.empty_like(zeta)
    up = zeta.imag >= 0
    if np.any(up):
        out[up] = 2j * np.exp(1j * zeta[up]) / (np.exp(2j * zeta[up]) - 1.0)
    if np.any(~up):
        out[~up] = 2j * np.exp(-1j * zeta[~up]) / (1.0 - np.exp(-2j * zeta[~up]))
    return out


# ---------------------------------------------------------------------------
# Catalog specs


_KNOWN_KINDS = (
    "tan", "cot", "csc2", "power", "power_log", "power_over_log",
    "tan_sigma_log", "cot_sigma_log", "csc2_sigma_log", "rational",
    "cauchy", "disc_herglotz",
)


@dataclass(frozen=True)
class CatalogSpec:
    """Structured build recipe for a catalog function."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KNOWN_KINDS:
            raise SpecError(f"unknown catalog kind {self.kind!r}")

    @staticmethod
    def from_json(data: dict) -> "CatalogSpec":
        kind = data.get("kind")
        params = {}
        if "p" in data:
            params["p"] = complex(data["p"][0], data["p"][1])
        if "sigma" in data:
            params["sigma"] = float(data["sigma"])
        if kind == "rational":
            params["a"] = complex(data["a"][0], data["a"][1])
            params["b"] = complex(data["b"][0], data["b"][1])
            params["poles"] = [float(s) for s in data["poles"]]
            params["coeffs"] = [complex(c[0], c[1]) for c in data["coeffs"]]
        if kind in ("cauchy", "disc_herglotz"):
            m = data["measure"]
            params["measure"] = measure_from_json(m) if isinstance(m, dict) else m
            c = data.get("constant", [0.0, 0.0])
            params["constant"] = complex(c[0], c[1])
        return CatalogSpec(kind, params)


# ---------------------------------------------------------------------------
# Cauchy transform


def cauchy_kernel(s, z):
    """(1 + s z)/(s - z) with the limiting value z at s = infinity."""
    s, z = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(z, dtype=complex))
    out = np.empty(s.shape, dtype=complex)
    fin = np.isfinite(s)
    out[fin] = (1.0 + s[fin] * z[fin]) / (s[fin] - z[fin])
    out[~fin] = z[~fin]
    return out


def _merge_intervals(intervals):
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [list(intervals[0])]
    for u, v in intervals[1:]:
        if u <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], v)
        else:
            merged.append([u, v])
    return [(u, v) for u, v in merged if u < v]


# Singularity subtraction (Helsing & Ojala, J. Comput. Phys. 227, 2008).  Over a
# window around the projection x_j of an evaluation point z_j onto a support,
# the density enters as rho(s) - rho(x_j), and rho(x_j) times the closed-form
# integral of the kernel over the window is added back.  The remainder stays
# bounded at the scale |Im z_j|, so neither cost nor accuracy depends on the
# distance to the boundary.  Only points whose peak clears the support
# endpoints by this factor are subtracted: near a singular endpoint the
# added-back term would cancel against the quadrature tolerance.
_CLEARANCE = 100.0


def _subtracted_integrand(d, kernel, rho=None):
    """s -> (d(s) - rho_j) K(s, z_j), one column per point; no rho, no subtraction."""
    def integrand(s):
        s = np.asarray(s, dtype=float)
        dens = d(s)[:, None]
        return (dens if rho is None else dens - rho) * kernel(s)
    return integrand


def _windowed_integrals(parts, kernel, atol, window_quad):
    """Integral of d(s) K(s, z_j) over the support of d, one array over the
    points j for each entry (d, windows, proj, rho, window_integral) of
    ``parts``.

    The merged windows of each density run through ``window_quad`` and the
    gaps between them through ``quad_real_line``, all to ``atol``.  Points j
    whose projection proj_j lies in a window and whose rho_j is nonzero are
    subtracted there: the quadrature sees (d(s) - rho_j) K(s, z_j), and
    rho_j * window_integral(a, b, j) is added.  The remainder is smaller than
    the window's integral, so its tolerance is relative to the added part:
    atol is raised to the quadratures' default rtol (1e-9) of the largest
    added term.

    The finite gaps no wider than 200, which ``quad_real_line`` passes on to
    ``adaptive_quad``, are the rows of one ``_refine`` call across all
    densities, each row refined as a call of its own; an integrand call
    evaluates each of its densities once.  Only gaps are grouped: a gap holds
    no point's peak and settles in a few panels, so sharing the calls saves
    the per-gap overhead, while windows hold the peaks and refine deeply,
    where the one-row loop is faster.  Windows, a lone gap, and infinite or
    wider gaps keep a call each.  Each density adds its pieces left to right.
    """
    plans, gaps = [], []
    for k, (d, windows, *_) in enumerate(parts):
        lo, hi = d.support
        plan, cursor = [], lo
        for a, b in _merge_intervals(windows) + [(hi, hi)]:
            if cursor < a:
                plan.append((cursor, a, len(gaps)))
                gaps.append((k, cursor, a))
            if a < b:
                plan.append((a, b, None))
            cursor = b
        plans.append(plan)

    # b - a is infinite where an end is.
    rows = [i for i, (_, a, b) in enumerate(gaps) if b - a <= 200.0]
    if len(rows) < 2:
        rows = []
    gap_parts, grouped = [None] * len(gaps), set(rows)
    for i, (k, a, b) in enumerate(gaps):
        if i not in grouped:
            gap_parts[i], _ = quad_real_line(_subtracted_integrand(parts[k][0], kernel),
                                             a, b, atol=atol)
    if rows:
        owner = np.array([gaps[i][0] for i in rows])

        def integrand(s, g):
            dens = np.empty(s.shape, dtype=complex)
            k = owner[g]
            for j in sorted(set(k.tolist())):  # np.unique would import numpy.ma
                at = k == j
                dens[at] = parts[j][0](s[at])
            return dens[:, None] * kernel(s)

        # adaptive_quad's default rtol and panel budget, as quad_real_line's.
        g, _, _, val, _ = _refine(integrand, np.array([gaps[i][1:] for i in rows]),
                                  atol, 1e-9, 4000)
        for i, part in zip(rows, _row_totals(g, val, len(rows))):
            gap_parts[i] = part

    totals = []
    for (d, _, proj, rho, window_integral), plan in zip(parts, plans):
        total = np.zeros(proj.shape, dtype=complex)
        for a, b, gap in plan:
            if gap is not None:
                total = total + gap_parts[gap]
                continue
            rho_w, cols, added, tol = None, [], 0.0, atol
            if rho is not None:
                rho_w = np.where((a <= proj) & (proj <= b), rho, 0.0)
                cols = np.flatnonzero(rho_w)
                added = rho_w[cols] * window_integral(a, b, cols)
                tol = max(atol, 1e-9 * float(np.max(np.abs(added), initial=0.0)))
            part, _ = window_quad(_subtracted_integrand(d, kernel, rho_w), a, b, atol=tol)
            total = total + part
            total[cols] += added
        totals.append(total)
    return totals


def cauchy_eval(measure: BoundaryMeasure, constant, z, *, atol: float = 1e-10):
    """Evaluate c + integral of (1+sz)/(s-z) dlambda(s) off the extended real line."""
    arr, scalar = _as_complex_array(z)
    if np.any(arr.imag == 0.0):
        raise DomainError("Cauchy transform evaluated on the real boundary")
    flat = np.atleast_1d(arr).ravel()
    out = np.full(flat.shape, complex(constant), dtype=complex)
    for a in measure.atoms:
        if math.isinf(a.loc):
            out += a.mass * flat
        else:
            out += a.mass * (1.0 + a.loc * flat) / (a.loc - flat)
    x, y = flat.real, np.abs(flat.imag)
    points = list(zip(x.tolist(), y.tolist()))
    peak_clear = _CLEARANCE * y

    def kernel(s):
        return (1.0 + s[:, None] * flat[None, :]) / (s[:, None] - flat[None, :])

    def window_integral(u, v, cols):
        # K = z + (1+z^2)/(s-z); Im(s - z) keeps one sign, so the principal
        # logarithm is continuous along [u, v].
        zc = flat[cols]
        return zc * (v - u) + (1.0 + zc * zc) * (np.log(v - zc) - np.log(u - zc))

    parts = []
    for d in measure.densities:
        lo, hi = d.support
        dist = np.minimum(x - lo, hi - x)
        sub = peak_clear < dist
        windows, rho = [], None
        if sub.any():
            # The window must be wide: the 1/(s - x) flank beside it has to be
            # smooth at the scale the tail map resolves.
            half = np.minimum(np.maximum(50.0 * y, 0.25 * (1.0 + np.abs(x))), 0.5 * dist)
            windows = list(zip((x - half)[sub].tolist(), (x + half)[sub].tolist()))
            rho = np.zeros(flat.shape, dtype=complex)
            rho[sub] = d(x[sub])
        # Unsubtracted points integrate their peak directly, in a window in the
        # s variable covering the peak (width |Im z|) and every flank scale the
        # tail map cannot represent, which grows like eps * (1 + x^2).
        for (xj, yj), subtracted in zip(points, sub.tolist()):
            w = max(50.0 * yj, 1e-13 * (1.0 + xj * xj))
            if not subtracted and yj < 5.0 and xj + w > lo and xj - w < hi:
                windows.append((max(lo, xj - w), min(hi, xj + w)))
        parts.append((d, windows, x, rho, window_integral))
    for total in _windowed_integrals(parts, kernel, atol,
                                     partial(adaptive_quad, min_panels=4)):
        out += total
    out = out.reshape(np.atleast_1d(arr).shape)
    return complex(out.ravel()[0]) if scalar else out


def _disc_herglotz_eval(measure: BoundaryMeasure, constant, atol=1e-10):
    def fn(z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(z).ravel()
        out = np.full(flat.shape, complex(constant), dtype=complex)
        for a in measure.atoms:
            zeta = np.exp(1j * a.loc)
            out += a.mass * (zeta + flat) / (zeta - flat) / (2.0 * np.pi)
        peak_clear = _CLEARANCE * np.abs(1.0 - np.abs(flat))

        def kernel(t):
            zeta = np.exp(1j * t)[:, None]
            return (zeta + flat[None, :]) / (zeta - flat[None, :])

        parts = []
        for d in measure.densities:
            lo, hi = d.support
            theta = lo + np.mod(np.angle(flat) - lo, 2.0 * np.pi)

            if hi - lo == 2.0 * np.pi:
                # A full period has no endpoints: every point subtracts over
                # the whole support, where the kernel integrates to exactly
                # 2 pi (|z| < 1) or -2 pi (|z| > 1).
                sub = np.ones(flat.shape, dtype=bool)
                windows = [(lo, hi)]

                def window_integral(u, v, cols):
                    return np.where(np.abs(flat[cols]) < 1.0, 2.0 * np.pi, -2.0 * np.pi)
            else:
                dist = np.minimum(theta - lo, hi - theta)
                sub = peak_clear < dist
                half = np.minimum(0.5 * np.pi, 0.5 * dist)
                windows = list(zip((theta - half)[sub].tolist(), (theta + half)[sub].tolist()))

                def window_integral(u, v, cols, theta=theta):
                    # Antiderivative -t - 2i log(e^{it} - z).  A merged window
                    # is shorter than 2 pi; both of its sides of theta are cut
                    # in quarters, under pi/2 each, on which arg(e^{it} - z)
                    # turns by less than pi, so the principal log of the ratio
                    # of the end values of each piece is its increment.
                    tc = theta[cols]
                    frac = np.linspace(0.0, 1.0, 5)[:, None]
                    t = np.concatenate([u + (tc - u) * frac, tc + (v - tc) * frac[1:]])
                    w = np.exp(1j * t) - flat[cols]
                    return -(v - u) - 2j * np.sum(np.log(w[1:] / w[:-1]), axis=0)
            rho = None
            if sub.any():
                rho = np.zeros(flat.shape, dtype=complex)
                rho[sub] = d(theta[sub])
            parts.append((d, windows, theta, rho, window_integral))
        for total in _windowed_integrals(parts, kernel, atol, adaptive_quad):
            out += total / (2.0 * np.pi)
        return out.reshape(np.atleast_1d(z).shape)
    return fn


# ---------------------------------------------------------------------------
# Builders


def _odd_multiples(step: float, lo: float, hi: float, parity: str):
    # Multiples n*step inside (lo, hi) with n odd / even / any.
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecError(f"the poles accumulate at ±inf: ({lo}, {hi}) holds infinitely many")
    ns = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1)
    if parity == "odd":
        ns = ns[ns % 2 != 0]
    elif parity == "even":
        ns = ns[ns % 2 == 0]
    return (ns * step).astype(float)


def _exp_lattice(sigma: float, lo: float, hi: float, parity: str):
    # Points exp(pi n / (2 sigma)) inside (lo, hi) for n of the given parity.
    if hi <= 0:
        return np.array([])
    if math.isinf(hi):
        raise SpecError(f"the poles accumulate at +inf: ({lo}, {hi}) holds infinitely many")
    lo = max(lo, 1e-300)
    step = math.pi / (2.0 * sigma)
    n_lo = math.ceil(math.log(lo) / step - 1e-12)
    n_hi = math.floor(math.log(hi) / step + 1e-12)
    ns = np.arange(n_lo, n_hi + 1)
    if parity == "odd":
        ns = ns[ns % 2 != 0]
    elif parity == "even":
        ns = ns[ns % 2 == 0]
    return np.exp(ns * step)


def _real_density(d) -> bool:
    """Whether the density's own descriptor makes it real: a table with zero
    imaginary parts or a catalog power density of real p.  An undescribed
    density counts as complex."""
    desc = d.descriptor or {}
    if desc.get("kind") == "table":
        return all(v[1] == 0 for v in desc["vals"])
    return desc.get("kind", "").startswith("catalog-power") and desc["p"][1] == 0


def catalog_build(spec: CatalogSpec) -> AnalyticFunction:
    """Construct the evaluator and boundary metadata for a catalog recipe."""
    kind, p = spec.kind, spec.params

    if kind == "tan":
        return AnalyticFunction(
            _tan_values, "half-plane",
            (("point", INF),),
            True, {"kind": "tan"},
            lambda lo, hi: _odd_multiples(math.pi / 2.0, lo, hi, "odd"), True)

    if kind == "cot":
        return AnalyticFunction(
            _cot_values, "half-plane",
            (("point", INF),),
            True, {"kind": "cot"},
            lambda lo, hi: _odd_multiples(math.pi, lo, hi, "any"), True)

    if kind == "csc2":
        return AnalyticFunction(
            lambda z: 2.0 * _inv_sin_values(2.0 * np.asarray(z, dtype=complex)),
            "half-plane", (("point", INF),),
            True, {"kind": "csc2"},
            lambda lo, hi: _odd_multiples(math.pi / 2.0, lo, hi, "any"), True)

    if kind in ("power", "power_log", "power_over_log"):
        pw = complex(p["p"])
        if kind == "power":
            fn = lambda z: np.exp(pw * np.log(z))
            has_rep = (-1.0 < pw.real < 1.0) or pw in (-1, 0, 1)
            support = (("interval", -INF, 0.0),)
            locator = None
        elif kind == "power_log":
            fn = lambda z: np.exp(pw * np.log(z)) * np.log(z)
            has_rep = -1.0 < pw.real < 1.0
            support = (("interval", -INF, 0.0),)
            locator = None
        else:
            fn = lambda z: np.exp(pw * np.log(z)) / np.log(z)
            has_rep = -1.0 < pw.real < 1.0
            support = (("interval", -INF, 0.0), ("point", 1.0))
            locator = (lambda lo, hi:
                       np.array([1.0]) if lo < 1.0 < hi else np.array([]))
        return AnalyticFunction(
            fn, "half-plane", support, has_rep,
            {"kind": kind, "p": [pw.real, pw.imag]}, locator, pw.imag == 0)

    if kind in ("tan_sigma_log", "cot_sigma_log", "csc2_sigma_log"):
        sigma = float(p["sigma"])
        if sigma <= 0:
            raise SpecError("sigma must be positive")
        if kind == "tan_sigma_log":
            fn = lambda z: _tan_values(sigma * np.log(np.asarray(z, dtype=complex)))
            parity = "odd"
        elif kind == "cot_sigma_log":
            fn = lambda z: _cot_values(sigma * np.log(np.asarray(z, dtype=complex)))
            parity = "even"
        else:
            fn = lambda z: 2.0 * _inv_sin_values(
                2.0 * sigma * np.log(np.asarray(z, dtype=complex)))
            parity = "any"
        return AnalyticFunction(
            fn, "half-plane",
            (("interval", -INF, 0.0), ("point", 0.0), ("point", INF)),
            True,
            {"kind": kind, "sigma": sigma},
            lambda lo, hi, s=sigma, q=parity: _exp_lattice(s, lo, hi, q), True)

    if kind == "rational":
        a, b = complex(p["a"]), complex(p["b"])
        poles = [float(s) for s in p["poles"]]
        coeffs = [complex(c) for c in p["coeffs"]]
        if len(poles) != len(coeffs):
            raise SpecError("rational spec requires one coefficient per pole")
        if len(set(poles)) != len(poles):
            raise SpecError("rational poles must be distinct")
        if any(c == 0 for c in coeffs):
            raise SpecError("rational coefficients must be nonzero")

        def fn(z):
            z = np.asarray(z, dtype=complex)
            out = a * z + b
            for s, c in zip(poles, coeffs):
                out = out + c / (s - z)
            return out

        support = tuple(("point", s) for s in poles)
        if a != 0:
            support = support + (("point", INF),)
        return AnalyticFunction(
            fn, "half-plane", support, True,
            {"kind": "rational", "a": [a.real, a.imag], "b": [b.real, b.imag],
             "poles": poles, "coeffs": [[c.real, c.imag] for c in coeffs]},
            lambda lo, hi: np.array([s for s in poles if lo < s < hi]),
            all(v.imag == 0 for v in [a, b, *coeffs]))

    if kind == "cauchy":
        m: BoundaryMeasure = p["measure"]
        c = complex(p.get("constant", 0))
        support = tuple(("interval", d.support[0], d.support[1]) for d in m.densities) \
            + tuple(("point", a.loc) for a in m.atoms)
        atom_locs = np.array([a.loc for a in m.atoms if math.isfinite(a.loc)])
        return AnalyticFunction(
            lambda z, m=m, c=c: cauchy_eval(m, c, z),
            "half-plane", support, True,
            {"kind": "cauchy", "measure": measure_to_json(m),
             "constant": [c.real, c.imag]},
            lambda lo, hi: atom_locs[(atom_locs > lo) & (atom_locs < hi)],
            c.imag == 0 and all(a.mass.imag == 0 for a in m.atoms)
            and all(_real_density(d) for d in m.densities))

    if kind == "disc_herglotz":
        m = p["measure"]
        if m.picture != "circle":
            raise SpecError("disc_herglotz requires a circle-picture measure")
        c = complex(p.get("constant", 0))
        return AnalyticFunction(
            _disc_herglotz_eval(m, c), "disc",
            tuple(("point", a.loc) for a in m.atoms)
            + tuple(("interval", d.support[0], d.support[1]) for d in m.densities),
            True,
            {"kind": "disc_herglotz", "measure": measure_to_json(m),
             "constant": [c.real, c.imag]})

    raise SpecError(f"unknown catalog kind {kind!r}")


# ---------------------------------------------------------------------------
# Function-level operations


# z -> -1/z; its inverse, which moves boundary data, sends infinity to +0.0.
_INVERSION = MobiusMatrix(0.0, 1.0, -1.0, 0.0)


def invert_variable(f: AnalyticFunction) -> AnalyticFunction:
    """The inversion z -> f(-1/z); preserves the upper and lower half planes."""
    return compose_mobius(f, _INVERSION)


def compose_mobius(f: AnalyticFunction, m: MobiusMatrix) -> AnalyticFunction:
    """z -> f(A.z) for a real invertible matrix A; stays off the real line.

    Boundary support and pole candidates of f move to their preimages under A.
    """
    if f.picture != "half-plane":
        raise SpecError("mobius composition acts on half-plane functions")
    minv = m.inverse()

    def fn(z):
        z = np.asarray(z, dtype=complex)
        return f.fn((m.a * z + m.b) / (m.c * z + m.d))

    support = []
    for entry in f.boundary_support:
        if entry[0] == "point":
            support.append(("point", _image_point(minv, entry[1])))
        else:
            support += [("interval", lo, hi) for lo, hi in _image_pieces(minv, *entry[1:])]
    locator = None
    if f.pole_locator is not None:
        def locator(lo, hi):
            # Only the poles of f in the image of the window can pull back into it.
            pts = (_image_point(minv, p) for u, v in _image_pieces(m, lo, hi)
                   for p in np.atleast_1d(f.pole_locator(u, v)))
            return np.array(sorted(p for p in pts if lo < p < hi))

    return AnalyticFunction(fn, "half-plane", tuple(support), f.has_representing_measure,
                            {"kind": "mobius-composition", "base": f.descriptor,
                             "matrix": [m.a, m.b, m.c, m.d]}, locator, f.star_symmetric)


def star_reflect(f: AnalyticFunction) -> AnalyticFunction:
    """Reflection w -> conj(f(conj w)) (half plane) or its circle analogue; involutive."""
    if f.picture == "half-plane":
        fn = lambda z: np.conj(f.fn(np.conj(np.asarray(z, dtype=complex))))
    else:
        fn = lambda z: -np.conj(f.fn(1.0 / np.conj(np.asarray(z, dtype=complex))))
    return AnalyticFunction(fn, f.picture, f.boundary_support,
                            f.has_representing_measure,
                            {"kind": "star", "base": f.descriptor},
                            f.pole_locator, f.star_symmetric)


def boundary_atoms_in_window(f: AnalyticFunction, lo: float, hi: float) -> np.ndarray:
    """Catalog-known atom candidate locations inside (lo, hi); empty if unknown."""
    if f.pole_locator is None:
        return np.array([])
    return np.atleast_1d(np.asarray(f.pole_locator(lo, hi), dtype=float))


def _interior_kinks(f: AnalyticFunction, a: float, b: float) -> list:
    """Sorted points inside (a, b) where the boundary values of f may lose
    analyticity: finite ends of its boundary support and located poles."""
    pts = [p for entry in f.boundary_support for p in entry[1:]]
    pts += boundary_atoms_in_window(f, a, b).tolist()
    return sorted({float(p) for p in pts if math.isfinite(p) and a < p < b})
