"""Adaptive complex-valued quadrature kernels.

A Gauss-Kronrod 7/15 pair drives panel refinement; the embedded Gauss rule
supplies the error indicator.  Line integrals split at |s| = 8: the middle
runs on the panel rule directly and each far tail goes through the
inverse-square map s = A/v^2, under which algebraic tails become polynomial.
All rules use open node sets, so integrands are never evaluated at interval
endpoints; integrable endpoint singularities are handled by subdivision alone.

One loop, ``_refine``, does all refinement, in generations after Shampine,
"Vectorized adaptive quadrature in MATLAB", J. Comput. Appl. Math. 211
(2008).  It takes rows: G independent integrals, each from edges of its own,
integrand f(x, g) with g the row of each node.  Every row keeps its own
tolerance max(atol, rtol * |row total|), its own panel budget and its own
stops, and refines as a call of its own would; only the integrand calls are
shared, at most eight panels (120 nodes) per call.  A generation bisects each
row's worst panels once; a panel that dominates them is bisected alone, and
its row's generation ends there.  Row totals are summed in interval order, so
results do not depend on refinement history.  One walk, ``_walk``, cuts every
line integral into pieces, direct pieces and tails alike the rows of one
``_refine`` call (the heights of a limit, the densities of a pairing or of the
Cauchy evaluator, the points of a CLI check); ``adaptive_quad`` and
``quad_real_line`` are one-row wrappers.  The library's integrals all refine
to this module's ``_ATOL``, ``_RTOL`` and ``_MAX_PANELS``.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

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


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    """Kronrod values and Gauss-Kronrod errors of the panels [lo[i], hi[i]],
    panel i in row ``rows[i]``.

    The nodes of up to ``_CALL_PANELS`` panels go to f in one call, as f(x, g)
    with g the row of each node.  Values have shape (n_panels, ...) with the
    integrand's trailing axes; errors are the largest component difference of
    each panel, shape (n_panels,).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK
    node_rows = np.repeat(rows, _XK.size).reshape(nodes.shape)
    values, errors = [], []
    for s in range(0, lo.size, _CALL_PANELS):
        x = nodes[s:s + _CALL_PANELS]
        vals = np.asarray(f(x.ravel(), node_rows[s:s + _CALL_PANELS].ravel()), dtype=complex)
        cols = vals.reshape(x.shape + (-1,))  # (panels, 15, columns)
        scale = half[s:s + _CALL_PANELS, None]
        k15 = scale * (_WK @ cols)
        g7 = scale * (_WG @ cols[:, 1::2])
        values.append(k15.reshape(x.shape[:1] + vals.shape[1:]))
        errors.append(np.abs(k15 - g7).max(axis=1))
    return np.concatenate(values), np.concatenate(errors)


def _bisect(f: Callable, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    """Halves of the panels [lo[i], hi[i]], left then right for each panel,
    as (lo, hi, values, errors, rows)."""
    mid = 0.5 * (lo + hi)
    c_lo, c_hi = np.repeat(lo, 2), np.repeat(hi, 2)
    c_lo[1::2] = c_hi[::2] = mid
    c_rows = np.repeat(rows, 2)
    return (c_lo, c_hi) + _panels(f, c_lo, c_hi, c_rows) + (c_rows,)


def _zero(f: Callable, n_rows: int):
    """The integrals over an empty interval: zeros of shape (n_rows, ...) with
    the integrand's trailing shape, read from one call of f on no nodes, and
    zero errors."""
    shape = np.shape(f(np.empty(0), np.empty(0, dtype=int)))[1:]
    return np.zeros((n_rows,) + shape, dtype=complex), np.zeros(n_rows)


def _rank(rows: np.ndarray) -> np.ndarray:
    """Position of each entry within its row, for entries sorted by row."""
    return np.arange(rows.size) - np.searchsorted(rows, rows)


# The convergence threshold of every integral in the library: a row is done
# once its error sum is at most max(_ATOL, _RTOL * |row total|), or it holds
# _MAX_PANELS panels.  Only the CLI checks pass budgets of their own.
_ATOL = 1e-10
_RTOL = 1e-9
_MAX_PANELS = 4000


def _refine(f: Callable, edges: Sequence[np.ndarray], atol: float = _ATOL,
            rtol: float = _RTOL, max_panels: int = _MAX_PANELS):
    """Refine the panels between consecutive edges of each row of ``edges``,
    G 1-D edge arrays of any lengths (a (G, n+1) array is G rows) for G
    independent integrals with integrand f(x, g), g the row of each node,
    until each row's error sum meets its tol = max(atol, rtol * max|row
    total|), within ``max_panels`` panels per row; atol is a scalar or one per
    row, shape (G,).

    Each row refines as a call of its own would: its own tolerance, its own
    budget, its own stops.  Only the integrand calls are shared, every row's
    halves going to f together.  Returns the final panels (rows, lo, hi,
    values, errors), ordered by row and then by interval; panels only ever
    split, so every initial edge stays a panel edge.

    Each generation sorts every refining row's live panels worst-first, ties
    in creation order (a panel's position: kept panels keep their order and
    halves are appended), and bisects the shortest prefix whose errors cover
    the row's excess over tol, no more than its budget allows, all in one
    batch of integrand calls.  A panel holding most of its prefix's error is
    bisected alone, and the row's generation ends there: the next generation
    sorts its halves into line, as a one-panel-at-a-time refinement would.
    The integrand sees at most ``_CALL_PANELS`` panels per call.  A panel too
    narrow to bisect in floating point leaves refinement: its error leaves the
    running sum but stays in the returned errors.  A NaN error stops its row.
    """
    n_rows = len(edges)
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    row = np.repeat(np.arange(n_rows), [len(e) - 1 for e in edges])
    val, err = _panels(f, lo, hi, row)
    live = np.ones(lo.size, dtype=bool)  # False once at floating-point width
    while True:
        # Row sums in entry order: np.add.at and np.bincount add sequentially.
        totals = np.zeros((n_rows,) + val.shape[1:], dtype=complex)
        np.add.at(totals, row, val)
        peak = np.abs(totals).reshape(n_rows, -1).max(axis=1)
        excess = np.bincount(row[live], err[live], n_rows) - np.maximum(atol, rtol * peak)
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
        # A panel holding most of its row's prefix error is bisected alone.
        first = rank == 0
        e = err[split]
        alone = np.zeros(n_rows, dtype=bool)
        alone[rs[first]] = e[first] > np.bincount(rs[~first], e[~first], n_rows)[rs[first]]
        split = split[first | ~alone[rs]]
        kids = _bisect(f, lo[split], hi[split], row[split])
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
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


def _one_row(val: np.ndarray, err: np.ndarray):
    """Row 0 of a rows result as the one-row wrappers return it: a complex
    for a scalar integrand, else the array, with the error as a float."""
    value = val[0]
    return (complex(value) if np.ndim(value) == 0 else value), float(err[0])


def adaptive_quad(f: Callable, a: float, b: float, *, atol: float = _ATOL,
                  rtol: float = _RTOL, max_panels: int = _MAX_PANELS):
    """Integrate a vectorized complex integrand over the finite interval [a, b].

    The integrand maps a node array of shape (k,) to values of shape (k,) or
    (k, ...): trailing axes integrate jointly under a shared refinement driven
    by the worst component.  Returns (value, error_estimate), from one row of
    ``_refine`` on the single panel [a, b].
    """
    row = lambda x, g: f(x)
    if a == b:
        return _one_row(*_zero(row, 1))
    rows, _, _, val, err = _refine(row, np.array([sorted((a, b))], dtype=float), atol, rtol,
                                   max_panels)
    value, err = _one_row(_row_totals(rows, val, 1), _row_totals(rows, err, 1))
    return (-1.0 if b < a else 1.0) * value, err


_TAIL_START = 8.0


def _tail_map(f: Callable, A: np.ndarray) -> Callable:
    """The rows integrand f with the far tails of the rows g with A[g] != 0 in
    v under s = A[g] / v^2, v in (0, 1] and A[g] the tail's end of smaller
    magnitude: algebraic tails ~ |s|^(-3/2) become polynomial in v, where the
    angle compactification would crawl.  Rows with A[g] = 0 stay unmapped."""
    def g(v, rows):
        a = A[rows]
        tail = a != 0.0
        if not tail.any():
            return f(v, rows)
        s = v.copy()
        s[tail], w = _tail_nodes(a[tail], v[tail])
        vals = np.array(f(s, rows), dtype=complex)
        vals[tail] *= w.reshape(w.shape + (1,) * (vals.ndim - 1))
        return vals
    return g


def _tail_nodes(A, v):
    """The points s = A/v^2 of a tail at the nodes v and the weights |ds/dv| =
    2|A|/v^3 there; A broadcasts against v."""
    return A / (v * v), 2.0 * np.abs(A) / (v * v * v)


def _line_pieces(lo: float, hi: float) -> list:
    """The pieces ``quad_real_line`` integrates lo < hi in: (a, b, A), the
    interval (a, b) on the panel rule directly when A is 0, else the v
    interval of a one-signed tail under ``_tail_map`` with that A."""
    if math.isfinite(lo) and math.isfinite(hi) and (hi - lo) <= 200.0:
        return [(lo, hi, 0.0)]
    if hi <= -_TAIL_START:
        return [(0.0 if math.isinf(lo) else math.sqrt(hi / lo), 1.0, hi)]
    if lo >= _TAIL_START:
        return [(0.0 if math.isinf(hi) else math.sqrt(lo / hi), 1.0, lo)]
    # Far tails plus a direct middle piece.
    cuts = [lo] + [c for c in (-_TAIL_START, _TAIL_START) if lo < c < hi] + [hi]
    return [p for a, b in zip(cuts, cuts[1:]) for p in _line_pieces(a, b)]


def _by_row(fns) -> Callable:
    """The rows integrand f(x, g) = fns[g](x) of pointwise scalar integrands."""
    def f(x, rows):
        out = np.empty(x.shape, dtype=complex)
        for g in np.flatnonzero(np.bincount(rows)).tolist():  # np.unique imports numpy.ma
            out[rows == g] = fns[g](x[rows == g])
        return out
    return f


def _walk(f: Callable, lo: np.ndarray, hi: np.ndarray, atol: float = _ATOL,
          rtol: float = _RTOL, max_panels: int = _MAX_PANELS):
    """The panels of f(x, g) on (lo[g], hi[g]), lo <= hi, not all empty: each
    row's ``_line_pieces`` to atol / (its pieces), every piece a row of one
    ``_refine`` call, a direct piece from its two ends and a tail from two
    panels.  Returns the row of each piece (pieces numbered by row and
    position) and the panels (piece, A, lo, hi, values, errors) by piece and
    position; A = 0 off tails."""
    row, a, b, A = np.array([(g, *p) for g, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))
                             if l != h for p in _line_pieces(l, h)]).T
    row = row.astype(int)
    edges = [e if t else e[::2] for e, t in zip(np.linspace(a, b, 3).T, A != 0.0)]
    fn = lambda x, g: f(x, row[g])
    piece, *panels = _refine(_tail_map(fn, A) if A.any() else fn, edges,
                             atol / np.bincount(row)[row], rtol, max_panels)
    return (row, piece, A[piece], *panels)


def _quad_rows(f: Callable, lo, hi, n_rows: int, *, atol: float = _ATOL,
               rtol: float = _RTOL, max_panels: int = _MAX_PANELS):
    """``quad_real_line`` of the rows integrand f(x, g) on (lo[g], hi[g]) for
    the ``n_rows`` rows g, lo and hi scalars or (n_rows,) arrays: the values
    (n_rows, ...) and errors (n_rows,).  Each row sums its pieces from one
    ``_walk`` in order, as a call of its own would; a reversed row negates."""
    lo, hi = np.full(n_rows, lo, dtype=float), np.full(n_rows, hi, dtype=float)
    if np.all(lo == hi):
        return _zero(f, n_rows)
    piece_row, piece, *_, val, err = _walk(f, np.minimum(lo, hi), np.maximum(lo, hi), atol,
                                           rtol, max_panels)
    val = _row_totals(piece_row, _row_totals(piece, val, piece_row.size), n_rows)
    val[lo > hi] = -val[lo > hi]
    return val, np.bincount(piece_row, np.bincount(piece, err), n_rows)  # sequential sums


def quad_real_line(f: Callable, lo: float = -math.inf, hi: float = math.inf, *,
                   atol: float = _ATOL, rtol: float = _RTOL,
                   max_panels: int = _MAX_PANELS):
    """Integrate f over an interval of the extended real line.

    Moderate finite intervals go to the panel rule directly; far tails go
    through the inverse-square map, starting from two panels.  A split
    interval gives each piece an equal share of atol.  One row of
    ``_quad_rows``, equal bit for bit to the same row of any rows call.
    """
    return _one_row(*_quad_rows(lambda x, g: f(x), lo, hi, 1, atol=atol, rtol=rtol,
                                max_panels=max_panels))


def _power_weighted_zero(g: Callable, delta: float, m: int, n_rows: int, *,
                         atol: float = _ATOL, rtol: float = _RTOL):
    """Improper integrals of y^m g(y, r) over (0, delta] for the ``n_rows``
    rows r, g bounded near 0, each row refined to its own tolerance: the
    values (n_rows, ...) and errors (n_rows,) of the rows.

    The substitution y = delta*u^2 concentrates nodes at the lower endpoint,
    where g is bounded but need not be smooth.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")

    def h(u, rows):
        y = delta * u * u
        vals = np.asarray(g(y, rows), dtype=complex)
        w = (y ** m) * (2.0 * delta * u)
        return vals * w.reshape(w.shape + (1,) * (vals.ndim - 1))

    edges = np.broadcast_to(np.linspace(0.0, 1.0, 3), (n_rows, 3))
    rows, _, _, val, err = _refine(h, edges, atol, rtol, 2000)
    return _row_totals(rows, val, n_rows), _row_totals(rows, err, n_rows)
