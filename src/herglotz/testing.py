"""Smooth compactly supported test functions with closed-form derivatives."""
from __future__ import annotations

import numpy as np

from .errors import SpecError
from .measures import TestFunction

__all__ = ["smooth_bump", "constant_one"]


def smooth_bump(lo: float, hi: float) -> TestFunction:
    """C-infinity bump exp(1 - 1/(1-u^2)) on (lo, hi), u the affine chart to (-1, 1).

    Supplies first and second derivatives analytically; all higher derivatives
    vanish at the support endpoints.
    """
    if not lo < hi:
        raise SpecError("require lo < hi")
    c = 2.0 / (hi - lo)
    mid = 0.5 * (lo + hi)

    def _u(x):
        return c * (np.asarray(x, dtype=float) - mid)

    def _core(u):
        out = np.zeros(u.shape, dtype=float)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out, inside

    def fn(x):
        u = _u(x)
        g, _ = _core(u)
        return g.astype(complex)

    def d1(x):
        u = _u(x)
        g, inside = _core(u)
        out = np.zeros(u.shape, dtype=complex)
        ui = u[inside]
        w = 1.0 - ui * ui
        out[inside] = g[inside] * (-2.0 * ui / w ** 2)
        return c * out

    def d2(x):
        u = _u(x)
        g, inside = _core(u)
        out = np.zeros(u.shape, dtype=complex)
        ui = u[inside]
        w = 1.0 - ui * ui
        out[inside] = g[inside] * (4.0 * ui * ui / w ** 4
                                   - 2.0 / w ** 2 - 8.0 * ui * ui / w ** 3)
        return c * c * out

    return TestFunction(fn, (lo, hi), (d1, d2))


def constant_one() -> TestFunction:
    """The constant test function 1 on the extended real line."""
    return TestFunction(lambda x: np.ones(np.asarray(x, dtype=float).shape, dtype=complex),
                        (-np.inf, np.inf),
                        (lambda x: np.zeros(np.asarray(x).shape, dtype=complex),
                         lambda x: np.zeros(np.asarray(x).shape, dtype=complex)),
                        value_at_inf=1.0 + 0j)
