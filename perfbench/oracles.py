"""Reference values written independently of the package under test.

Nothing here calls into ``herglotz``: closed forms are typed out anew and
pairings go through ``scipy.integrate.quad``.  scipy.integrate is imported
lazily so that it never counts towards a workload's set-up time.
"""
from __future__ import annotations

import math

import numpy as np

# Near-boundary evaluations pass when |value - oracle| <= EVAL_TOL * (1 + |oracle|).
# Ten times the default relative tolerance (1e-9) of the package's quadrature.
EVAL_TOL = 1e-8


def close(value, oracle, tol):
    """Per-entry pass flags for |value - oracle| <= tol * (1 + |oracle|)."""
    value = np.atleast_1d(np.asarray(value, dtype=complex))
    oracle = np.atleast_1d(np.asarray(oracle, dtype=complex))
    return np.abs(value - oracle) <= tol * (1.0 + np.abs(oracle))


def principal_power(z, p):
    """z**p on the plane cut along (-inf, 0], by numpy's complex power."""
    return np.power(np.asarray(z, dtype=complex), complex(p))


def power_density(x, p):
    """Boundary density of z**p: |x|**p sin(pi p) / (pi (1 + x^2)) on x < 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, np.abs(x) ** complex(p) * np.sin(np.pi * p)
                    / (np.pi * (1.0 + x * x)), 0j)


def disc_cosine(z, c):
    """Herglotz transform of the density cos t on the circle: c + z inside, c - 1/z outside."""
    z = np.asarray(z, dtype=complex)
    return np.where(np.abs(z) < 1.0, c + z, c - 1.0 / z)


def phi_minus_inverse(t, a, b):
    """Closed-form profile of f = -1/z on [a, b] with a < 0 < b.

    Phi'' is the boundary value -1/(t + i0) = -PV 1/t + i pi delta, so
    Phi = g - (linear interpolant of g between a and b), with
    g(t) = -t log|t| - i pi min(0, t).
    """
    def g(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            xlog = np.where(s == 0.0, 0.0, s * np.log(np.abs(s)))
        return -xlog - 1j * np.pi * np.minimum(0.0, s)

    t = np.asarray(t, dtype=float)
    return g(t) - ((b - t) * g(a) + (t - a) * g(b)) / (b - a)


def quad_complex(fn, lo, hi, points=None, **kw):
    """scipy.integrate.quad of a complex scalar integrand, real and imaginary parts apart."""
    from scipy.integrate import quad
    opts = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
    if points is not None:
        opts["points"] = points
    opts.update(kw)
    re, _ = quad(lambda x: complex(fn(x)).real, lo, hi, **opts)
    im, _ = quad(lambda x: complex(fn(x)).imag, lo, hi, **opts)
    return complex(re, im)


def pv_over_x(fn, lo, hi):
    """Principal value of the integral of fn(x)/x over (lo, hi), lo < 0 < hi, fn real."""
    from scipy.integrate import quad
    val, _ = quad(fn, lo, hi, weight="cauchy", wvar=0.0, limit=400,
                  epsabs=1e-13, epsrel=1e-12)
    return val


def tan_mass(x):
    """Atomic mass of tan at a pole x = pi n / 2, n odd: 1 / (1 + x^2)."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + x * x)


def csc2_sigma_log_mass(sigma, n):
    """Atomic mass of 2 / sin(2 sigma log z) at z0 = exp(pi n / (2 sigma)).

    Near z0 the sine is (-1)^n 2 sigma (z - z0) / z0, so f ~ (-1)^n z0 / (sigma (z - z0))
    and the mass lim y f(z0 + iy) / (i (1 + z0^2)) is (-1)^(n+1) z0 / (sigma (1 + z0^2)).
    """
    z0 = math.exp(math.pi * n / (2.0 * sigma))
    return (-1.0) ** (n + 1) * z0 / (sigma * (1.0 + z0 * z0))
