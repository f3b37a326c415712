"""Riemann-sphere points, real Moebius matrices, and the Cayley maps between half plane and disc.

The sphere point at infinity is represented explicitly instead of through IEEE
infinities so that fractional-linear actions are total and branch-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError

__all__ = [
    "SpherePoint",
    "INFINITY",
    "MobiusMatrix",
    "mobius_apply",
    "mobius_apply_values",
    "cayley_to_disc",
    "cayley_to_halfplane",
    "cayley_to_disc_values",
    "cayley_to_halfplane_values",
    "disc_rotation_matrix",
]


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: either a finite complex value or infinity."""

    value: complex = 0j
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", 0j)
        else:
            object.__setattr__(self, "value", complex(self.value))

    @staticmethod
    def of(z) -> "SpherePoint":
        if isinstance(z, SpherePoint):
            return z
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return INFINITY
        return SpherePoint(z)

    def isclose(self, other: "SpherePoint", tol: float = 1e-13) -> bool:
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        scale = max(1.0, abs(self.value), abs(other.value))
        return abs(self.value - other.value) <= tol * scale

    def __repr__(self):
        return "SpherePoint(inf)" if self.infinite else f"SpherePoint({self.value})"


INFINITY = SpherePoint(infinite=True)


@dataclass(frozen=True)
class MobiusMatrix:
    """Real invertible 2x2 matrix acting on the sphere by z -> (az+b)/(cz+d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise SpecError("matrix entries must be finite reals")
        if self.det == 0.0:
            raise SpecError("matrix must be invertible (ad - bc != 0)")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "MobiusMatrix":
        # Unnormalized adjugate: induces the inverse sphere action.
        return MobiusMatrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MobiusMatrix") -> "MobiusMatrix":
        return MobiusMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "MobiusMatrix":
        return MobiusMatrix(1.0, 0.0, 0.0, 1.0)


def mobius_apply(m: MobiusMatrix, p) -> SpherePoint:
    """Total sphere action: infinity maps to a/c, zeros of cz+d and images too
    large for a double map to infinity."""
    p = SpherePoint.of(p)
    if p.infinite:
        if m.c == 0.0:
            return INFINITY
        return SpherePoint.of(m.a / m.c)
    num = m.a * p.value + m.b
    den = m.c * p.value + m.d
    if den == 0:
        return INFINITY
    q = SpherePoint.of(num / den)
    if q.infinite and p.value != 0:
        # num or den overflowed: divide both by p first.
        den = m.c + m.d / p.value
        q = SpherePoint.of((m.a + m.b / p.value) / den) if den != 0 else INFINITY
    return q


def mobius_apply_values(m: MobiusMatrix, z):
    """(az+b)/(cz+d) on complex scalars or arrays.

    Intended for points off the real line, where cz+d cannot vanish for a real
    invertible matrix.  A quotient that is not finite is recomputed as
    (a + b/z)/(c + d/z), as in ``mobius_apply``, and left as it then comes.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray((m.a * z + m.b) / (m.c * z + m.d))
        redo = ~np.isfinite(out) & (z != 0)
        out[redo] = (m.a + m.b / z[redo]) / (m.c + m.d / z[redo])
    return out


def cayley_to_disc(w) -> SpherePoint:
    """z = (i-w)/(i+w): bijection of the sphere carrying the upper half plane onto the unit disc."""
    w = SpherePoint.of(w)
    if w.infinite:
        return SpherePoint(-1.0 + 0j)
    den = 1j + w.value
    if den == 0:
        return INFINITY
    return SpherePoint((1j - w.value) / den)


def cayley_to_halfplane(z) -> SpherePoint:
    """w = i(1-z)/(1+z): the two-sided inverse of cayley_to_disc."""
    z = SpherePoint.of(z)
    if z.infinite:
        return SpherePoint(-1j)
    den = 1 + z.value
    if den == 0:
        return INFINITY
    return SpherePoint(1j * (1 - z.value) / den)


def cayley_to_disc_values(w):
    w = np.asarray(w, dtype=complex)
    return (1j - w) / (1j + w)


def cayley_to_halfplane_values(z):
    z = np.asarray(z, dtype=complex)
    return 1j * (1 - z) / (1 + z)


def disc_rotation_matrix(theta: float) -> MobiusMatrix:
    """Half-plane matrix whose Cayley conjugate rotates the disc coordinate by the angle theta.

    Angle in radians; no principal range is enforced since the action is periodic.
    """
    h = 0.5 * theta
    return MobiusMatrix(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))
