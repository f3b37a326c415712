"""Adaptive complex-valued quadrature kernels.

A Gauss-Kronrod 7/15 pair drives panel refinement; the embedded Gauss rule
supplies the error indicator.  Line integrals split at |s| = 8: the middle
runs on the panel rule directly and each far tail goes through the
inverse-square map s = A/v^2, under which algebraic tails become polynomial.
All rules use open node sets, so integrands are never evaluated at interval
endpoints; integrable endpoint singularities are handled by subdivision alone.

``adaptive_quad`` refines in generations, after Shampine, "Vectorized adaptive
quadrature in MATLAB", J. Comput. Appl. Math. 211 (2008): each bisects the
shortest worst-first prefix of panels whose errors cover the excess over the
tolerance, and the integrand gets at most eight panels (120 nodes) per call.
Panels are summed in interval order, so results do not depend on refinement
history.

The private ``_refine`` also takes rows: G independent integrals, integrand
f(x, g) with g the row of each node.  Every row keeps its own tolerance
max(atol, rtol * |row total|), its own panel budget and its own stops, and
refines as a call of its own would; only the integrand calls are shared, the
halves of every row going to f together, still eight panels per call.  The
corner integrals of the boundary limits run this way, one row per point.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "adaptive_quad",
    "quad_real_line",
]

# 15-point Kronrod abscissae on [-1, 1]; the embedded 7-point Gauss nodes are
# the odd-indexed entries.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _lobatto(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-Lobatto nodes on [lo, hi], ends pinned exactly."""
    k = np.arange(n)
    ts = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(k * np.pi / (n - 1))
    ts[0], ts[-1] = lo, hi
    return ts


# Panels per integrand call.  A nested evaluator builds (inner nodes x outer
# nodes) arrays, so an unbounded generation would grow its memory with the
# generation's size.
_CALL_PANELS = 8


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray, rows=None):
    """Kronrod values and Gauss-Kronrod errors of the panels [lo[i], hi[i]].

    The nodes of up to ``_CALL_PANELS`` panels go to f in one call, as f(x),
    or as f(x, g) with g the row of each node when panel i belongs to row
    ``rows[i]``.  Values have shape (n_panels, ...) with the integrand's
    trailing axes; errors are the largest component difference of each panel,
    shape (n_panels,).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK
    if rows is not None:
        node_rows = np.broadcast_to(rows[:, None], nodes.shape)
    values, errors = [], []
    for s in range(0, lo.size, _CALL_PANELS):
        x = nodes[s:s + _CALL_PANELS]
        g = () if rows is None else (node_rows[s:s + _CALL_PANELS].ravel(),)
        vals = np.asarray(f(x.ravel(), *g), dtype=complex)
        cols = vals.reshape(x.shape + (-1,))  # (panels, 15, columns)
        scale = half[s:s + _CALL_PANELS, None]
        k15 = scale * (_WK @ cols)
        g7 = scale * (_WG @ cols[:, 1::2])
        values.append(k15.reshape(x.shape[:1] + vals.shape[1:]))
        errors.append(np.max(np.abs(k15 - g7), axis=1))
    return np.concatenate(values), np.concatenate(errors)


def _bisect(f: Callable, lo: np.ndarray, hi: np.ndarray, rows=None):
    """Halves of the panels [lo[i], hi[i]], left then right for each panel,
    as (lo, hi, values, errors), followed by their rows when given."""
    mid = 0.5 * (lo + hi)
    c_lo = np.column_stack((lo, mid)).ravel()
    c_hi = np.column_stack((mid, hi)).ravel()
    if rows is None:
        return (c_lo, c_hi) + _panels(f, c_lo, c_hi)
    c_rows = np.repeat(rows, 2)
    return (c_lo, c_hi) + _panels(f, c_lo, c_hi, c_rows) + (c_rows,)


def _zero(f: Callable):
    """The integral over an empty interval: zero with the integrand's trailing
    shape, read from one call of f on no nodes."""
    shape = np.shape(f(np.empty(0)))[1:]
    return (np.zeros(shape, dtype=complex) if shape else 0j), 0.0


def _refine(f: Callable, edges: np.ndarray, atol: float, rtol: float,
            max_panels: int):
    """Refine the panels between consecutive ``edges`` until the error sum
    meets tol = max(atol, rtol * max|value|), within ``max_panels`` panels.

    ``edges`` is one row of n+1 edges, integrand f(x), or a (G, n+1) array of
    G independent rows, integrand f(x, g) with g the row of each node.  Each
    row refines as a call of its own would, up to the rounding of its totals:
    its own tolerance, its own ``max_panels`` budget, its own stops.  Only the
    integrand calls are shared.  Returns the final panels (lo, hi, values,
    errors) in interval order, for rows preceded by the row of each panel and
    ordered by row first; panels only ever split, so every initial edge stays
    a panel edge.

    Each generation sorts the live panels worst-first, ties in creation order
    (a panel's position: kept panels keep their order and halves are
    appended), and bisects the shortest prefix whose errors cover the excess
    over tol, no more than ``max_panels`` allows.  A panel holding most of the
    prefix's error is bisected alone first; if a half is still worse than the
    next panel in line, the generation ends there, as a one-panel-at-a-time
    refinement would take that half next.  The integrand sees at most
    ``_CALL_PANELS`` panels per call.  A panel too narrow to bisect in floating
    point leaves refinement: its error leaves the running sum but stays in the
    returned errors.  A NaN error stops refinement.
    """
    if edges.ndim == 2:
        return _refine_rows(f, edges, atol, rtol, max_panels)
    lo, hi = edges[:-1], edges[1:]
    val, err = _panels(f, lo, hi)
    live = np.ones(lo.size, dtype=bool)  # False once at floating-point width
    while True:
        tol = max(atol, rtol * float(np.max(np.abs(val.sum(axis=0)))))
        total_err = float(err[live].sum())
        room = max_panels - lo.size
        if not (total_err > tol and room > 0):
            break
        order = np.flatnonzero(live)
        order = order[np.lexsort((-err[order],))]
        take = order[:np.searchsorted(np.cumsum(err[order]), total_err - tol) + 1]
        mid = 0.5 * (lo[take] + hi[take])
        ok = (lo[take] < mid) & (mid < hi[take])
        live[take[~ok]] = False
        split = take[ok][:room]
        if not split.size:
            continue
        lead = split.size
        if lead > 1 and err[split[0]] > err[split[1:]].sum():
            lead = 1
        kids = _bisect(f, lo[split[:lead]], hi[split[:lead]])
        if lead < split.size and np.max(kids[3]) <= err[split[lead]]:
            rest = _bisect(f, lo[split[lead:]], hi[split[lead:]])
            kids = tuple(np.concatenate(p) for p in zip(kids, rest))
        else:
            split = split[:lead]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo, hi, val, err = (np.concatenate((old[keep], kid))
                            for old, kid in zip((lo, hi, val, err), kids))
        live = np.concatenate((live[keep], np.ones(kids[0].size, dtype=bool)))
    order = np.argsort(lo)
    return lo[order], hi[order], val[order], err[order]


def _row_sums(x: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum of the entries of x in each row, in entry order."""
    out = np.zeros((n_rows,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out, rows, x)
    return out


def _rank(rows: np.ndarray) -> np.ndarray:
    """Position of each entry within its row, for entries sorted by row."""
    return np.arange(rows.size) - np.searchsorted(rows, rows)


def _refine_rows(f: Callable, edges: np.ndarray, atol: float, rtol: float,
                 max_panels: int):
    """``_refine`` on the G rows of ``edges``: the one-row generation, run on
    every row still refining, with every row's halves evaluated together.

    A single row keeps its own loop in ``_refine``, since this per-row
    bookkeeping would slow single integrals by 20-60 %.  Row totals here are
    summed in panel order where the one-row loop sums pairwise, so a row
    decides as a call of its own unless a total lands within rounding of a
    threshold; the running sum that picks the prefix is exact.
    """
    n_rows = edges.shape[0]
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    row = np.repeat(np.arange(n_rows), edges.shape[1] - 1)
    val, err = _panels(f, lo, hi, row)
    live = np.ones(lo.size, dtype=bool)
    while True:
        peak = np.abs(_row_sums(val, row, n_rows)).reshape(n_rows, -1).max(axis=1)
        excess = _row_sums(err[live], row[live], n_rows) - np.maximum(atol, rtol * peak)
        room = max_panels - np.bincount(row, minlength=n_rows)
        go = (excess > 0) & (room > 0)
        if not go.any():
            break
        # Live panels of the rows still refining, by row, then worst first.
        order = np.flatnonzero(live & go[row])
        order = order[np.lexsort((-err[order], row[order]))]
        r = row[order]
        rank = _rank(r)
        # Each row's running error sum, exactly as one row's cumsum.
        run = np.zeros((n_rows, rank.max() + 1))
        run[r, rank] = err[order]
        before = np.cumsum(run, axis=1)[r, rank - 1]
        take = order[(rank == 0) | (before < excess[r])]
        mid = 0.5 * (lo[take] + hi[take])
        ok = (lo[take] < mid) & (mid < hi[take])
        live[take[~ok]] = False
        split = take[ok]
        rs = row[split]
        rank = _rank(rs)
        fits = rank < room[rs]
        split, rs, rank = split[fits], rs[fits], rank[fits]
        if not split.size:
            continue
        e = err[split]
        first = rank == 0
        alone = np.zeros(n_rows, dtype=bool)
        alone[rs[first]] = e[first] > _row_sums(e[~first], rs[~first], n_rows)[rs[first]]
        head = first | ~alone[rs]
        kids = _bisect(f, lo[split[head]], hi[split[head]], rs[head])
        worst = np.zeros(n_rows)
        worst[rs[head]] = kids[3].reshape(-1, 2).max(axis=1)
        second = np.full(n_rows, -np.inf)
        second[rs[rank == 1]] = e[rank == 1]
        tail = ~head & (alone & (worst <= second))[rs]
        if tail.any():
            rest = _bisect(f, lo[split[tail]], hi[split[tail]], rs[tail])
            kids = tuple(np.concatenate(p) for p in zip(kids, rest))
        keep = np.ones(lo.size, dtype=bool)
        keep[split[head | tail]] = False
        lo, hi, val, err, row = (np.concatenate((old[keep], kid))
                                 for old, kid in zip((lo, hi, val, err, row), kids))
        live = np.concatenate((live[keep], np.ones(kids[0].size, dtype=bool)))
    order = np.lexsort((lo, row))
    return row[order], lo[order], hi[order], val[order], err[order]


def _row_totals(rows: np.ndarray, x: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum of x over each row's panels, for panels sorted by row, each row
    summed in order exactly as ``np.cumsum(x_row, axis=0)[-1]``."""
    counts = np.bincount(rows, minlength=n_rows)
    rank = _rank(rows)
    run = np.zeros((n_rows, counts.max()) + x.shape[1:], dtype=x.dtype)
    run[rows, rank] = x
    return np.cumsum(run, axis=1)[np.arange(n_rows), counts - 1]


def adaptive_quad(f: Callable, a: float, b: float, *, atol: float = 1e-10,
                  rtol: float = 1e-9, max_panels: int = 4000,
                  min_panels: int = 1):
    """Integrate a vectorized complex integrand over the finite interval [a, b].

    The integrand maps a node array of shape (k,) to values of shape (k,) or
    (k, ...): trailing axes integrate jointly under a shared refinement driven
    by the worst component.  Returns (value, error_estimate).  ``min_panels``
    forces an initial uniform split, which ``_refine`` then refines.
    """
    if a == b:
        return _zero(f)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    _, _, val, err = _refine(f, np.linspace(a, b, max(1, min_panels) + 1),
                             atol, rtol, max_panels)
    # Sum in interval order so results do not depend on refinement history.
    value = np.cumsum(val, axis=0)[-1]
    err = float(np.cumsum(err)[-1])
    if np.ndim(value) == 0:
        return sign * complex(value), err
    return sign * value, err


_TAIL_START = 8.0


def _tail_map(f: Callable, A: float) -> Callable:
    """f's far tail in v under s = A / v^2, v in (0, 1], A the end of smaller
    magnitude: algebraic tails ~ |s|^(-3/2) become polynomial in v, where the
    angle compactification would crawl."""
    def g(v):
        s = A / (v * v)
        vals = np.asarray(f(s), dtype=complex)
        w = 2.0 * abs(A) / (v * v * v)
        return vals * w.reshape(w.shape + (1,) * (vals.ndim - 1))
    return g


def _line_pieces(lo: float, hi: float) -> list:
    """The pieces ``quad_real_line`` integrates lo < hi in: (a, b, A), the
    interval (a, b) on the panel rule directly when A is None, else the v
    interval of a one-signed tail under ``_tail_map`` with that A."""
    if math.isfinite(lo) and math.isfinite(hi) and (hi - lo) <= 200.0:
        return [(lo, hi, None)]
    if hi <= -_TAIL_START:
        return [(0.0 if math.isinf(lo) else math.sqrt(hi / lo), 1.0, hi)]
    if lo >= _TAIL_START:
        return [(0.0 if math.isinf(hi) else math.sqrt(lo / hi), 1.0, lo)]
    # Far tails plus a direct middle piece.
    cut_lo, cut_hi = max(lo, -_TAIL_START), min(hi, _TAIL_START)
    pieces = _line_pieces(lo, cut_lo) if lo < cut_lo else []
    pieces += _line_pieces(cut_lo, cut_hi)
    return pieces + (_line_pieces(cut_hi, hi) if hi > cut_hi else [])


def quad_real_line(f: Callable, lo: float = -math.inf, hi: float = math.inf, *,
                   atol: float = 1e-10, rtol: float = 1e-9,
                   max_panels: int = 4000):
    """Integrate f over an interval of the extended real line.

    Moderate finite intervals go to the panel rule directly; far tails go
    through the inverse-square map, starting from two panels.  A split
    interval gives each piece an equal share of atol.
    """
    if lo == hi:
        return _zero(f)
    if lo > hi:
        val, err = quad_real_line(f, hi, lo, atol=atol, rtol=rtol,
                                  max_panels=max_panels)
        return -val, err
    pieces = _line_pieces(lo, hi)
    total, total_err = None, 0.0
    for a, b, A in pieces:
        val, err = adaptive_quad(f if A is None else _tail_map(f, A), a, b,
                                 atol=atol / len(pieces), rtol=rtol,
                                 max_panels=max_panels, min_panels=1 if A is None else 2)
        total = val if total is None else total + val
        total_err += err
    return total, total_err


def _power_weighted_zero(g: Callable, delta: float, m: int, n_rows: int, *,
                         atol: float, rtol: float):
    """Improper integrals of y^m g(y, r) over (0, delta] for the ``n_rows``
    rows r, g bounded near 0, each row refined to its own tolerance: the
    values (n_rows, ...) and errors (n_rows,) of the rows.

    The substitution y = delta*u^2 concentrates nodes at the lower endpoint,
    where g is bounded but need not be smooth.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")

    def h(u, *rows):
        y = delta * u * u
        vals = np.asarray(g(y, *rows), dtype=complex)
        w = (y ** m) * (2.0 * delta * u)
        return vals * w.reshape(w.shape + (1,) * (vals.ndim - 1))

    edges = np.broadcast_to(np.linspace(0.0, 1.0, 3), (n_rows, 3))
    rows, _, _, val, err = _refine(h, edges, atol, rtol, 2000)
    return _row_totals(rows, val, n_rows), _row_totals(rows, err, n_rows)
