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
from functools import cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SpecError
from .measures import (BoundaryMeasure, measure_from_json, measure_to_json,
                       INF, _conjugate_descriptor, _image_pieces, _image_point)
from .quadrature import _WK, _XK, _by_row, _refine, _tail_nodes, _walk
from .sphere import MobiusMatrix, mobius_apply_values

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
    """(f(z), f(z*)), z* the mirror image of z across the boundary: conj(z)
    on the half plane, 1/conj(z) on the disc.  A star-symmetric f is called
    on z alone and f(z*) is conj f(z).

    Otherwise the two sides stay two calls: grids reach 11 x 100 000 points
    on closed-form functions, where one joint call saves no work and its
    joined copies raise peak memory.  For the same reason z is dropped before
    the second side is formed, so a grid passed as a temporary does not
    outlive f(z).
    """
    z = np.asarray(z, dtype=complex)
    upper = f(z)
    if f.star_symmetric:
        del z
        return upper, np.conj(upper)
    z = np.conj(z) if f.picture == "half-plane" else 1.0 / np.conj(z)
    return upper, f(z)


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


def _one_sided(upper, lower):
    """A kernel from upper(w, z), w = exp(2iz), where Im z >= 0 and lower(v, z),
    v = exp(-2iz), below: on each side the exponential decays."""
    def values(z):
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        up = z.imag >= 0
        for side, fn, k in ((up, upper, 2j), (~up, lower, -2j)):
            if side.any():
                half = z[side]
                out[side] = fn(np.exp(k * half), half)
        return out
    return values


# The trigonometric kinds: values, and the parity of the n whose n pi/2 are the
# poles, which is also that of the n whose exp(pi n / (2 sigma)) are the poles
# of the kind's sigma-log composition.
_TRIG = {
    "tan": (_one_sided(lambda w, z: -1j * (w - 1.0) / (w + 1.0),
                       lambda v, z: -1j * (1.0 - v) / (1.0 + v)), "odd"),
    "cot": (_one_sided(lambda w, z: 1j * (w + 1.0) / (w - 1.0),
                       lambda v, z: 1j * (1.0 + v) / (1.0 - v)), "even"),
    "csc2": (_one_sided(lambda w, z: 2.0 * (2j * w / (np.exp(4j * z) - 1.0)),  # 2 / sin(2z)
                        lambda v, z: 2.0 * (2j * v / (1.0 - np.exp(-4j * z)))), "any"),
}


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


# Fixed density panels with a near-panel product rule.  Each density is sampled
# once, on panels of 15 Kronrod nodes that depend on the density alone: a
# table's node intervals in s, split evenly in asinh s where wider than 1/2
# there (the cubic in 2 arctan s is analytic up to s = +-i); for a catalog power
# density, panels in |x| at ratio sqrt 2 (dyadic ones missed 1e-10), cut where
# the neglected ends x^(1 + Re p) at 0 and x^(Re p - 1) at infinity fall under
# 2^-60; otherwise panels that ``_refine`` fits to the density alone, on the
# line those of the pieces and tail maps of ``quad_real_line`` from one
# ``_walk`` over all such densities, on the circle from uniform panels no
# wider than pi/8.  A point with a pole u0 of the kernel
# within _NEAR of a panel, in the panel's local coordinate, takes weights exact
# for g(u)/(u - u0), g of degree 14 (Helsing & Ojala, J. Comput. Phys. 227,
# 2008), on the smooth g = (u - u0) K rho; on the circle u0 = -i log w (the
# singularity swap of af Klinteberg & Barnett, BIT 61, 2021).  Farther out the
# plain rule meets 1e-14.  A value costs panels x points at any distance from
# the boundary, and each point sums its own terms in panel order, so it is
# bit-equal in any batch.
_NEAR = 2.0

# Node x point entries of each temporary in the panel sums.
_BLOCK = 1 << 13


def _cauchy_weights(w, p0):
    """Weights lam (n, 15), sum_j lam_j g(x_j) = integral over [-1, 1] of
    g(x)/(x - w_i) dx for g of degree < 15 at the Kronrod nodes x, from p0,
    that integral for g = 1: the moments by their recurrence, then the dual
    Bjorck-Pereyra algorithm (Golub & Van Loan, Alg. 4.6.2), without LAPACK.
    p0 comes from the panel's own edges, so panels sharing an edge see its
    logarithmic term bit for bit alike."""
    n, x = _XK.size, _XK
    lam = np.empty((w.size, n), dtype=complex)
    lam[:, 0] = p0
    for k in range(n - 1):
        lam[:, k + 1] = w * lam[:, k] + (2.0 / (k + 1) if k % 2 == 0 else 0.0)
    for k in range(n - 1):
        lam[:, k + 1:] = lam[:, k + 1:] - x[k] * lam[:, k:-1]
    for k in range(n - 2, -1, -1):
        lam[:, k + 1:] = lam[:, k + 1:] / (x[k + 1:] - x[:n - 1 - k])
        lam[:, k:-1] = lam[:, k:-1] - lam[:, k + 1:]
    return lam


def _panel_sum(z, P, kernel, poles, near_terms):
    """Sum over the panels P of q times kernel(s, z) at each point of z.

    ``poles(z, ib)`` gives the local coordinates of the kernel's poles for
    points z and panels ib broadcast together; a pair with one within _NEAR
    takes the 15 terms ``near_terms(z[i], ib[i])``, every other pair the plain
    rule.  Blocks of panels hold about ``_BLOCK`` terms, and each point adds
    its panel sums one by one in panel order."""
    n = P["mid"].size
    step = max(8, _BLOCK // (_XK.size * max(z.size, 1)))
    starts = range(0, n, step)
    pairs = [np.nonzero(np.any([np.abs(w) < _NEAR
                                for w in poles(z[:, None], np.arange(b, min(b + step, n)))],
                               axis=0)) for b in starts]
    iz = np.concatenate([p[0] for p in pairs]).astype(int)
    ib = np.concatenate([p[1] + b for p, b in zip(pairs, starts)]).astype(int)
    near = near_terms(z[iz], ib)
    bounds = np.cumsum([0] + [p[0].size for p in pairs])
    out = np.zeros(z.shape, dtype=complex)
    for k, b in enumerate(starts):
        sl, r = slice(b, b + step), slice(bounds[k], bounds[k + 1])
        terms = kernel(P["s"][sl], z[:, None, None]) * (P["q"][sl] * (P["half"][sl, None] * _WK))
        terms[iz[r], ib[r] - b] = near[r]
        sums = terms.sum(axis=2)
        sums[:, 0] += out
        out = np.cumsum(sums, axis=1)[:, -1]
    return out


def _table_edges(xs):
    gaps = np.diff(np.arcsinh(xs))
    if np.all(gaps <= 0.5):
        return xs
    split = [np.sinh(np.linspace(np.arcsinh(a), np.arcsinh(b), n + 1)[1:-1])
             for a, b, n in zip(xs[:-1], xs[1:], np.ceil(2.0 * gaps).astype(int))]
    return np.concatenate([np.append(a, c) for a, c in zip(xs[:-1], split)] + [xs[-1:]])


def _power_edges(lo, hi, re_p):
    k_lo = max(-1000, math.floor(-60.0 / max(1.0 + re_p, 0.06)))
    k_hi = min(1000, math.ceil(60.0 / max(1.0 - re_p, 0.06)))
    start, end = max(lo, -2.0 ** k_hi), min(hi, -2.0 ** k_lo)
    mags = 2.0 ** (np.arange(2 * k_lo, 2 * k_hi + 1) / 2.0)
    inner = -mags[(mags > -end) & (mags < -start)][::-1]
    return np.concatenate(([start], inner, [end]))


def _density_panels(parts):
    """The panels of densities (d, lo, hi, A), A per panel that of its line
    tail or 0, stacked in a dict of per-panel arrays: edges, midpoints,
    half-widths, A, Kronrod nodes u in the panel variable, boundary points s
    (u, or A/u^2 on a tail) and samples q of d times ds/du there.  Each
    density is called once, on all its nodes."""
    P = {"lo": np.concatenate([p[1] for p in parts]),
         "hi": np.concatenate([p[2] for p in parts]),
         "A": np.concatenate([p[3] for p in parts])}
    P["mid"], P["half"] = 0.5 * (P["lo"] + P["hi"]), 0.5 * (P["hi"] - P["lo"])
    u = P["u"] = P["mid"][:, None] + P["half"][:, None] * _XK
    tail = P["A"] != 0.0
    s = P["s"] = u.copy() if tail.any() else u
    s[tail], w = _tail_nodes(P["A"][tail, None], u[tail])
    q = P["q"] = np.empty(u.shape, dtype=complex)
    for (d, lo, _, _), end in zip(parts, np.cumsum([p[1].size for p in parts])):
        q[end - lo.size:end] = d(s[end - lo.size:end].ravel()).reshape(-1, _XK.size)
    q[tail] *= w
    return P


def _line_panels(measure: BoundaryMeasure):
    """The panels of a line measure's densities: those in s and the tails in
    v, each a dict as from ``_density_panels``, None where there are none."""
    kinds = [(d.descriptor or {}).get("kind", "") for d in measure.densities]
    fit = [d for d, kind in zip(measure.densities, kinds)
           if kind != "table" and not kind.startswith("catalog-power")]
    if fit:
        row, piece, A, lo, hi = _walk(_by_row(fit), *np.array([d.support for d in fit]).T)[:5]
        cut = np.searchsorted(row[piece], np.arange(1, len(fit)))
        fitted = zip(*(np.split(x, cut) for x in (lo, hi, A)))
    parts = []
    for d, kind in zip(measure.densities, kinds):
        if kind == "table" or kind.startswith("catalog-power"):
            edges = (_table_edges(np.asarray(d.descriptor["xs"], dtype=float)) if kind == "table"
                     else _power_edges(*d.support, d.descriptor["p"][0]))
            parts.append((d, edges[:-1], edges[1:], np.zeros(edges.size - 1)))
        else:
            parts.append((d,) + next(fitted))
    P = _density_panels(parts) if parts else {"A": np.zeros(0)}
    tail = P["A"] != 0.0
    return tuple(None if not keep.any() else P if keep.all() else {k: v[keep] for k, v in P.items()}
                 for keep in (~tail, tail))


def _line_near(P):
    """Poles and near terms of panels in s: the pole is z, and
    (s - z) K = 1 + s z."""
    def poles(z, ib):
        return [(z - P["mid"][ib]) / P["half"][ib]]

    def terms(z, ib):
        p0 = np.log(P["hi"][ib] - z) - np.log(P["lo"][ib] - z)
        return (P["q"][ib] * _cauchy_weights(poles(z, ib)[0], p0)
                * (1.0 + P["s"][ib] * z[:, None]))
    return poles, terms


def _tail_near(P):
    """Poles and near terms of tail panels in v, s = A/v^2: K has the poles
    +-v0, v0^2 = A/z, and K = -(v^2 + A z) / (2 v0 z) (1/(v - v0) - 1/(v + v0));
    a pole within _NEAR takes product weights, the other the plain ones."""
    def poles(z, ib):
        v0 = np.sqrt(P["A"][ib] / z)
        return [(v0 - P["mid"][ib]) / P["half"][ib], (-v0 - P["mid"][ib]) / P["half"][ib]]

    def terms(z, ib):
        A, v0 = P["A"][ib], np.sqrt(P["A"][ib] / z)

        def log_gap(e):
            # log(e - v0) from (e^2 z - A) / (z (e + v0)), free of cancellation
            # at the edge v = 1 that a tail shares with the middle piece.
            q = (e * e * z - A) / (z * (e + v0))
            return np.log(np.abs(q)) + 1j * np.copysign(np.abs(np.angle(q)), -v0.imag)

        v, lo, hi = P["u"][ib], P["lo"][ib], P["hi"][ib]
        lam = []
        for w, pole, p0 in zip(poles(z, ib), (v0, -v0),
                               (log_gap(hi) - log_gap(lo), np.log(hi + v0) - np.log(lo + v0))):
            weights = P["half"][ib, None] * _WK / (v - pole[:, None])
            close = np.abs(w) < _NEAR
            weights[close] = _cauchy_weights(w[close], p0[close])
            lam.append(weights)
        return (P["q"][ib] * (lam[0] - lam[1])
                * (-(v * v + A[:, None] * z[:, None]) / (2.0 * (v0 * z)[:, None])))
    return poles, terms


def _measure_evaluator(measure: BoundaryMeasure, constant):
    """z -> c + integral of (1+sz)/(s-z) dlambda(s) on the complement of the
    extended real line.  The densities are sampled on their panels at the
    first call, and the samples are kept."""
    if measure.picture != "line":
        raise SpecError("the Cauchy transform requires a line-picture measure")
    panels = cache(lambda: _line_panels(measure))

    def fn(z):
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
        for P, near in zip(panels(), (_line_near, _tail_near)):
            if P is not None:
                out += _panel_sum(flat, P, lambda s, z: (1.0 + s * z) / (s - z), *near(P))
        out = out.reshape(np.atleast_1d(arr).shape)
        return complex(out.ravel()[0]) if scalar else out
    return fn


def cauchy_eval(measure: BoundaryMeasure, constant, z):
    """Evaluate c + integral of (1+sz)/(s-z) dlambda(s) off the extended real
    line; densities without a descriptor are refined to quadrature's
    tolerance."""
    return _measure_evaluator(measure, constant)(z)


def _circle_near(P):
    """Poles and near terms of panels in the angle t: the pole t0 = -i log w,
    2 pi k from the panel, and with d = t - t0, (t - t0) K = (e^{it} + w) d /
    (w expm1(i d)).  The panel moves by 2 pi k, not the pole, so that the two
    panels at the seam of a full period see the pole alike."""
    def pole(w, ib):
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = -1j * np.log(w)
            shift = 2.0 * np.pi * np.round((P["mid"][ib] - t0.real) / (2.0 * np.pi))
            return t0, shift, (t0 - (P["mid"][ib] - shift)) / P["half"][ib]

    def terms(w, ib):
        t0, k, loc = pole(w, ib)
        p0 = np.log((P["hi"][ib] - k) - t0) - np.log((P["lo"][ib] - k) - t0)
        d = (P["u"][ib] - k[:, None]) - t0[:, None]
        return (P["q"][ib] * _cauchy_weights(loc, p0)
                * (P["s"][ib] + w[:, None]) * d / (w[:, None] * np.expm1(1j * d)))
    return (lambda w, ib: [pole(w, ib)[2]]), terms


def _disc_herglotz_eval(measure: BoundaryMeasure, constant):
    """w -> c + sum of the atoms + (1/2pi) integral of (e^{it}+w)/(e^{it}-w)
    rho(t) dt off the unit circle.  The densities are sampled on their panels
    at the first call, and the samples are kept."""
    def build():
        ds = measure.densities
        if not ds:
            return None
        starts = [np.linspace(lo, hi, math.ceil((hi - lo) / (np.pi / 8.0)) + 1)
                  for lo, hi in (d.support for d in ds)]
        row, lo, hi = _refine(_by_row(ds), starts)[:3]
        cut = np.searchsorted(row, np.arange(1, len(ds)))
        P = _density_panels([(d, l, h, np.zeros(l.size))
                             for d, l, h in zip(ds, np.split(lo, cut), np.split(hi, cut))])
        P["s"] = np.exp(1j * P["u"])
        return P

    panels = cache(build)

    def fn(z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(z).ravel()
        out = np.full(flat.shape, complex(constant), dtype=complex)
        for a in measure.atoms:
            zeta = np.exp(1j * a.loc)
            out += a.mass * (zeta + flat) / (zeta - flat) / (2.0 * np.pi)
        P = panels()
        if P is not None:
            out += _panel_sum(flat, P, lambda e, w: (e + w) / (e - w),
                              *_circle_near(P)) / (2.0 * np.pi)
        return out.reshape(np.atleast_1d(z).shape)
    return fn


# ---------------------------------------------------------------------------
# Builders


def _parity(ns, parity: str):
    """The integers ns that are odd, even or any, as ``parity`` says."""
    return ns if parity == "any" else ns[ns % 2 == (parity == "odd")]


def _multiples(step: float, lo: float, hi: float, parity: str):
    # Multiples n*step inside (lo, hi) with n of the given parity.
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecError(f"the poles accumulate at ±inf: ({lo}, {hi}) holds infinitely many")
    return (_parity(np.arange(math.ceil(lo / step), math.floor(hi / step) + 1), parity)
            * step).astype(float)


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
    return np.exp(_parity(np.arange(n_lo, n_hi + 1), parity) * step)


def catalog_build(spec: CatalogSpec) -> AnalyticFunction:
    """Construct the evaluator and boundary metadata for a catalog recipe."""
    kind, p = spec.kind, spec.params

    base = kind.removesuffix("_sigma_log")
    if base in _TRIG:
        values, parity = _TRIG[base]
        if kind == base:
            return AnalyticFunction(
                values, "half-plane", (("point", INF),), True, {"kind": kind},
                lambda lo, hi: _multiples(math.pi / 2.0, lo, hi, parity), True)
        sigma = float(p["sigma"])
        if sigma <= 0:
            raise SpecError("sigma must be positive")
        return AnalyticFunction(
            lambda z: values(sigma * np.log(np.asarray(z, dtype=complex))), "half-plane",
            (("interval", -INF, 0.0), ("point", 0.0), ("point", INF)), True,
            {"kind": kind, "sigma": sigma},
            lambda lo, hi: _exp_lattice(sigma, lo, hi, parity), True)

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
            _measure_evaluator(m, c),
            "half-plane", support, True,
            {"kind": "cauchy", "measure": measure_to_json(m),
             "constant": [c.real, c.imag]},
            lambda lo, hi: atom_locs[(atom_locs > lo) & (atom_locs < hi)],
            c.imag == 0 and all(a.mass.imag == 0 for a in m.atoms)
            # A real density is its own conjugate; an undescribed one counts as complex.
            and all(d.descriptor is not None and _conjugate_descriptor(d.descriptor) == d.descriptor
                    for d in m.densities))

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
        w = mobius_apply_values(m, z)
        if not np.all(np.isfinite(w)):
            raise DomainError("the image of a point under the matrix overflows the doubles")
        return f.fn(w)

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
