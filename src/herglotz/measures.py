"""Complex Radon measures on the extended real line (or the circle) and their transport.

A measure is stored as an atomic part plus a list of absolutely continuous
parts (support interval and density evaluator).  Every closed-form example in
this domain is of that shape; overlapping atom/density carriers are rejected
unless explicitly permitted.

The Moebius pushforward implements, for an invertible real matrix A,

    lambda^A(dt) = (1/det A) * ((a t + b)^2 + (c t + d)^2) / (1 + t^2) * lambda(A.dt),

where lambda(A.dt) is the transfer of lambda under the change of variables
s = A.t.  Atoms move along the inverse sphere action with the displayed weight
(at t = infinity the finite limit a^2 + c^2 of the numerator is used);
densities are reparametrized as closures so no interpolation error stacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SpecError
from .quadrature import _by_row, _quad_rows
from .sphere import INFINITY, MobiusMatrix, mobius_apply, mobius_apply_values

__all__ = [
    "Atom",
    "DensityPart",
    "TestFunction",
    "BoundaryMeasure",
    "integrate",
    "conjugate",
    "total_variation",
    "pushforward_mobius",
    "table_density",
    "density_from_descriptor",
    "measure_to_json",
    "measure_from_json",
]

INF = math.inf


def _normalize_loc(loc: float) -> float:
    # The extended real line has a single point at infinity.
    if math.isinf(loc):
        return INF
    return float(loc)


@dataclass(frozen=True)
class Atom:
    loc: float
    mass: complex

    def __post_init__(self):
        object.__setattr__(self, "loc", _normalize_loc(self.loc))
        object.__setattr__(self, "mass", complex(self.mass))


def _on_support(fn: Callable, support: tuple, x) -> np.ndarray:
    """fn(x) on the closed support interval, zero outside it."""
    x = np.asarray(x, dtype=float)
    lo, hi = support
    inside = (x >= lo) & (x <= hi)
    out = np.zeros(x.shape, dtype=complex)
    if np.any(inside):
        out[inside] = np.asarray(fn(x[inside]), dtype=complex)
    return out


@dataclass(frozen=True)
class DensityPart:
    """Absolutely continuous piece: density evaluator on a support interval."""

    support: tuple
    fn: Callable = field(repr=False)
    descriptor: Optional[dict] = None

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise SpecError(f"empty density support {self.support}")
        object.__setattr__(self, "support", (float(lo), float(hi)))

    def __call__(self, x):
        return _on_support(self.fn, self.support, x)


@dataclass(frozen=True)
class TestFunction:
    """Continuous test function with declared support and optional derivatives."""

    __test__ = False  # not a pytest collection target

    fn: Callable = field(repr=False)
    support: tuple = (-INF, INF)
    derivs: tuple = field(default_factory=tuple, repr=False)
    value_at_inf: Optional[complex] = None

    def __call__(self, x):
        return _on_support(self.fn, self.support, x)

    def derivative(self, k: int) -> Callable:
        if k == 0:
            return self.__call__
        if len(self.derivs) < k:
            raise SpecError(f"test function provides {len(self.derivs)} derivatives, need {k}")
        fn_k = self.derivs[k - 1]
        return lambda x: _on_support(fn_k, self.support, x)


@dataclass(frozen=True)
class BoundaryMeasure:
    """Atoms plus densities on the extended line (picture 'line') or circle angles (picture 'circle').

    Circle-picture locations are angles in (-pi, pi]; the boundary point -1 is
    stored at angle pi.
    """

    atoms: tuple = ()
    densities: tuple = ()
    picture: str = "line"
    mixed_ok: bool = False

    def __post_init__(self):
        atoms = tuple(a if isinstance(a, Atom) else Atom(*a) for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "densities", tuple(self.densities))
        if self.picture not in ("line", "circle"):
            raise SpecError(f"unknown picture {self.picture!r}")
        locs = [a.loc for a in atoms]
        if len(set(locs)) != len(locs):
            raise SpecError("atom locations must be pairwise distinct")
        if not self.mixed_ok and self.densities:
            # Supports sorted by left end, with the running maximum of their
            # right ends: the supports that can hold an atom are found by
            # walking left from the last one starting before it, and the walk
            # stops where no support further left reaches the atom.
            pieces = sorted(self.densities, key=lambda d: d.support[0])
            los = np.array([d.support[0] for d in pieces])
            reach = np.maximum.accumulate([d.support[1] for d in pieces])
            for a in atoms:
                if math.isinf(a.loc):
                    continue
                j = int(np.searchsorted(los, a.loc)) - 1
                while j >= 0 and reach[j] > a.loc:
                    d = pieces[j]
                    if d.support[1] > a.loc and abs(complex(d(np.array([a.loc]))[0])) > 0.0:
                        raise SpecError(
                            f"atom at {a.loc} sits inside a density support with nonzero "
                            "density; pass mixed_ok=True to permit")
                    j -= 1


def integrate(m: BoundaryMeasure, f: TestFunction, *, atol: float = 1e-10) -> complex:
    """Pair the measure with a test function: atoms plus one rows call over the densities."""
    total = 0j
    for a in m.atoms:
        if math.isinf(a.loc):
            if f.value_at_inf is None:
                raise SpecError("measure has an atom at infinity but the test "
                                "function supplies no value there")
            total += a.mass * complex(f.value_at_inf)
        else:
            total += a.mass * complex(f(np.array([a.loc]))[0])
    # Rows where the supports miss each other are empty and add zero.
    lo, hi = np.clip(np.reshape([d.support for d in m.densities], (-1, 2)), *f.support).T
    vals, _ = _quad_rows(_by_row([lambda x, d=d: f(x) * d(x) for d in m.densities]), lo, hi,
                         len(m.densities), atol=atol)
    for val in vals.tolist():
        total += val
    return total


def conjugate(m: BoundaryMeasure) -> BoundaryMeasure:
    """Complex-conjugate all masses and density values; locations unchanged."""
    atoms = tuple(Atom(a.loc, np.conj(a.mass)) for a in m.atoms)
    densities = []
    for d in m.densities:
        desc = None
        if d.descriptor is not None:
            kind = d.descriptor.get("kind")
            if kind == "table":
                desc = dict(d.descriptor)
                desc["vals"] = [[v[0], -v[1]] for v in d.descriptor["vals"]]
            elif kind in ("catalog-power", "catalog-power-log", "catalog-power-over-log"):
                desc = dict(d.descriptor)
                desc["p"] = [d.descriptor["p"][0], -d.descriptor["p"][1]]
        if desc is not None:
            densities.append(density_from_descriptor(desc))
        else:
            densities.append(DensityPart(d.support, _conj_wrap(d.fn), None))
    return BoundaryMeasure(atoms, tuple(densities), m.picture, m.mixed_ok)


def _conj_wrap(fn):
    return lambda x: np.conj(np.asarray(fn(x), dtype=complex))


def total_variation(m: BoundaryMeasure, *, atol: float = 1e-10,
                    finite_part_only: bool = False) -> float:
    """Sum of |mass| over atoms plus integrals of |density|, one rows call.

    With finite_part_only=True the atom at infinity is excluded, matching the
    variation of the restriction to the finite line.
    """
    tv = 0.0
    for a in m.atoms:
        if not (finite_part_only and math.isinf(a.loc)):
            tv += abs(a.mass)
    vals, _ = _quad_rows(_by_row([lambda x, d=d: np.abs(d(x)) for d in m.densities]),
                         *np.reshape([d.support for d in m.densities], (-1, 2)).T,
                         len(m.densities), atol=atol)
    for val in vals.real.tolist():
        tv += val
    return tv


# ---------------------------------------------------------------------------
# Moebius pushforward


def _mobius_weight(m: MobiusMatrix, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return ((m.a * t + m.b) ** 2 + (m.c * t + m.d) ** 2) / (1.0 + t * t)


def _weight_at(m: MobiusMatrix, loc: float) -> float:
    if math.isinf(loc):
        return m.a * m.a + m.c * m.c
    return float(_mobius_weight(m, loc))


def _image_interval(binv: MobiusMatrix, lo: float, hi: float,
                    lo_is_pole: bool = False, hi_is_pole: bool = False):
    """Image of one pole-free support piece under the action of binv; monotone.

    Endpoints flagged as the pole of the action map to the point at infinity
    symbolically; rounding in the pole location would otherwise produce a huge
    finite image of arbitrary sign.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        probes = [lo + (hi - lo) / 3.0, lo + 2.0 * (hi - lo) / 3.0]
    elif math.isfinite(lo):
        probes = [lo + 1.0, lo + 2.0]
    elif math.isfinite(hi):
        probes = [hi - 2.0, hi - 1.0]
    else:
        probes = [-1.0, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        img = mobius_apply_values(binv, np.asarray(probes, dtype=complex)).real
    if not np.all(np.isfinite(img)):
        raise SpecError(f"the image of ({lo}, {hi}) overflows the doubles")
    increasing = img[1] > img[0]
    e_lo = INF if lo_is_pole else _image_point(binv, lo)
    e_hi = INF if hi_is_pole else _image_point(binv, hi)
    left, right = (e_lo, e_hi) if increasing else (e_hi, e_lo)
    return (-INF if left == INF else left), right


def _image_point(binv: MobiusMatrix, loc: float) -> float:
    """Image of a boundary point under the action of binv; INF for infinity."""
    target = mobius_apply(binv, INFINITY if math.isinf(loc) else loc)
    return INF if target.infinite else target.value.real


def _image_pieces(binv: MobiusMatrix, lo: float, hi: float) -> list:
    """Image of the interval (lo, hi) under the action of binv, one piece per
    side of the pole of the action when (lo, hi) holds it."""
    pieces = [(lo, hi, False, False)]
    if binv.c != 0.0:
        pole = -binv.d / binv.c  # the point the action sends to infinity
        if lo < pole < hi:
            pieces = [(lo, pole, False, True), (pole, hi, True, False)]
    return [_image_interval(binv, *piece) for piece in pieces]


def pushforward_mobius(m: BoundaryMeasure, A: MobiusMatrix) -> BoundaryMeasure:
    """Transport a line-picture measure under the fractional-linear action of A."""
    if m.picture != "line":
        raise SpecError("pushforward is defined for line-picture measures")
    binv = A.inverse()
    det = A.det
    atoms = []
    for a in m.atoms:
        loc = _image_point(binv, a.loc)
        atoms.append(Atom(loc, a.mass * _weight_at(A, loc) / det))
    densities = [DensityPart(piece, _pushforward_density(A, d, det), None)
                 for d in m.densities for piece in _image_pieces(binv, *d.support)]
    return BoundaryMeasure(tuple(atoms), tuple(densities), "line", m.mixed_ok)


def _pushforward_density(A: MobiusMatrix, d: DensityPart, det: float):
    sign = 1.0 if det > 0 else -1.0

    def rho(t):
        t = np.asarray(t, dtype=float)
        den = (A.c * t + A.d) ** 2
        s = (A.a * t + A.b) / (A.c * t + A.d)
        return sign * _mobius_weight(A, t) / den * d(s)

    return rho


# ---------------------------------------------------------------------------
# Densities from descriptors (file format support)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the end monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    cap = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(keep, np.where(cap, 3.0 * m0, d), 0.0)


def _table_densities(xs_list, vals_list) -> list:
    """Sampled densities with monotone cubic interpolation, one per table.

    Interpolation runs in the 2*arctan coordinate so that tables on unbounded
    or very wide supports stay well conditioned; real and imaginary parts are
    interpolated apart.  Slopes are the Fritsch-Butland weighted harmonic
    means of the neighbouring secants, zero where they differ in sign or
    vanish, with one-sided three-point ends (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17, 1980); two nodes give the line.  The operations and
    their order are those of the reference PCHIP the tests compare against
    bit for bit.  All tables are built at once on their concatenated nodes,
    with masks at the table boundaries, so that no slope reads across one
    and each table gets the coefficients a build of its own would.  Invalid
    tables and coefficients that overflow raise SpecError.
    """
    xs_list = [np.asarray(x, dtype=float) for x in xs_list]
    vals_list = [np.asarray(v, dtype=complex) for v in vals_list]
    if not xs_list:
        return []
    sizes = np.array([x.size for x in xs_list])
    if any(x.ndim != 1 for x in xs_list) or np.any(sizes < 2):
        raise SpecError("table nodes must be strictly increasing, length >= 2")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    xs = np.concatenate(xs_list)
    # Intervals between two nodes of one table; the others straddle a boundary.
    same = np.ones(xs.size - 1, dtype=bool)
    same[ends[:-1] - 1] = False
    if np.any(np.diff(xs)[same] <= 0):
        raise SpecError("table nodes must be strictly increasing, length >= 2")
    vals = np.concatenate([v.ravel() for v in vals_list])
    if (any(v.shape != x.shape for x, v in zip(xs_list, vals_list))
            or not np.all(np.isfinite(vals))):
        raise SpecError("table values must be finite, one per node")
    ts = 2.0 * np.arctan(xs)
    if not np.all(np.diff(ts)[same] > 0):
        raise SpecError("table nodes collide in the 2*arctan coordinate")
    ys = np.stack((vals.real, vals.imag), axis=1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.diff(ts)[:, None]
        m = np.diff(ys, axis=0) / h
        # Interior slopes at every node but the first and last, then the
        # ends of each table written over the nodes at its boundaries.
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        d = np.empty_like(ys)
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        s, e = starts[sizes > 2], ends[sizes > 2] - 1
        d[s] = _pchip_end_slope(h[s], h[s + 1], m[s], m[s + 1])
        d[e] = _pchip_end_slope(h[e - 1], h[e - 2], m[e - 1], m[e - 2])
        line = starts[sizes == 2]
        d[line] = d[line + 1] = m[line]
        h, m, d0, d1 = h[same], m[same], d[:-1][same], d[1:][same]
        t = (d0 + d1 - 2 * m) / h
        coef = np.stack((t / h, (m - d0) / h - t, d0, ys[:-1][same]), axis=1)
    if not np.all(np.isfinite(coef)):
        raise SpecError("table interpolant overflows; nodes too close for their values")
    # Table k's intervals are rows starts[k] - k .. ends[k] - k - 2 of coef.
    return [_table_part(ts[a:b], coef[a - k:b - k - 1], x, v)
            for k, (a, b, x, v) in enumerate(zip(starts, ends, xs_list, vals_list))]


def _table_part(ts: np.ndarray, coef: np.ndarray, xs: np.ndarray,
                vals: np.ndarray) -> DensityPart:
    """The density of one table: nodes ts in the 2*arctan coordinate and its
    (n - 1, 4, 2) interval coefficients, the cubic one first."""
    last = len(ts) - 2

    def fn(x):
        t = np.clip(2.0 * np.arctan(np.asarray(x, dtype=float)), ts[0], ts[-1])
        # Interval k holds ts[k] <= t < ts[k+1]; the last one is closed.
        k = np.minimum(np.searchsorted(ts, t, "right") - 1, last)
        s = (t - ts[k])[..., None]
        c = coef[k]
        v = 0.0 + c[..., 3, :] + c[..., 2, :] * s + c[..., 1, :] * (s * s) \
            + c[..., 0, :] * (s * s * s)
        return v[..., 0] + 1j * v[..., 1]

    lo, hi = float(xs[0]), float(xs[-1])
    desc = {"kind": "table", "support": [lo, hi], "xs": xs.tolist(),
            "vals": np.stack((vals.real, vals.imag), axis=1).tolist()}
    return DensityPart((lo, hi), fn, desc)


def table_density(xs: Sequence[float], vals: Sequence[complex]) -> DensityPart:
    """Sampled density with monotone cubic interpolation (``_table_densities``
    of the one table)."""
    return _table_densities([xs], [vals])[0]


def _power_density(p: complex):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.exp(p * np.log(-x)) * np.sin(np.pi * p) / (np.pi * (1.0 + x * x))
    return fn


def _power_log_density(p: complex):
    def fn(x):
        x = np.asarray(x, dtype=float)
        lg = np.log(-x)
        return ((np.sin(np.pi * p) / np.pi) * lg + np.cos(np.pi * p)) \
            * np.exp(p * lg) / (1.0 + x * x)
    return fn


def _power_over_log_density(p: complex):
    def fn(x):
        x = np.asarray(x, dtype=float)
        lg = np.log(-x)
        return ((np.sin(np.pi * p) / np.pi) * lg - np.cos(np.pi * p)) \
            * np.exp(p * lg) / ((1.0 + x * x) * (np.pi ** 2 + lg * lg))
    return fn


_CATALOG_DENSITIES = {
    "catalog-power": _power_density,
    "catalog-power-log": _power_log_density,
    "catalog-power-over-log": _power_over_log_density,
}


def density_from_descriptor(desc: dict) -> DensityPart:
    kind = desc.get("kind")
    if kind == "table":
        return table_density(desc["xs"], [complex(re, im) for re, im in desc["vals"]])
    if kind in _CATALOG_DENSITIES:
        p = complex(desc["p"][0], desc["p"][1])
        support = tuple(_json_loc(v) for v in desc.get("support", [-INF, 0.0]))
        if support[1] > 0.0:
            raise SpecError(f"{kind} densities live on the negative axis")
        return DensityPart(support, _CATALOG_DENSITIES[kind](p),
                           {"kind": kind, "support": list(support), "p": [p.real, p.imag]})
    raise SpecError(f"unknown density descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON round trip


def _loc_json(loc: float):
    if math.isinf(loc):
        return "inf" if loc > 0 else "-inf"
    return float(loc)


def _json_loc(v) -> float:
    if isinstance(v, str):
        if v == "inf":
            return INF
        if v == "-inf":
            return -INF
        raise SpecError(f"bad location string {v!r}")
    return float(v)


def _tabulate(d: DensityPart, n: int = 257) -> DensityPart:
    lo, hi = d.support
    ta, tb = 2.0 * math.atan(lo), 2.0 * math.atan(hi)
    # Open Chebyshev nodes in the compactified coordinate avoid the endpoints.
    k = np.arange(n)
    t = 0.5 * (ta + tb) + 0.5 * (tb - ta) * np.cos((2 * k + 1) * np.pi / (2 * n))
    xs = np.sort(np.tan(0.5 * t))
    return table_density(xs, d(xs))


def measure_to_json(m: BoundaryMeasure) -> dict:
    densities = []
    for d in m.densities:
        desc = d.descriptor if d.descriptor is not None else _tabulate(d).descriptor
        densities.append(desc)
    return {
        "picture": m.picture,
        "atoms": [{"loc": _loc_json(a.loc),
                   "mass": [a.mass.real, a.mass.imag]} for a in m.atoms],
        "densities": densities,
    }


def measure_from_json(data: dict) -> BoundaryMeasure:
    atoms = tuple(Atom(_json_loc(a["loc"]), complex(a["mass"][0], a["mass"][1]))
                  for a in data.get("atoms", ()))
    densities = tuple(density_from_descriptor(d) for d in data.get("densities", ()))
    return BoundaryMeasure(atoms, densities, data.get("picture", "line"))
