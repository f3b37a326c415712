import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from herglotz import (INFINITY, MobiusMatrix, SpherePoint, cayley_to_disc,
                      cayley_to_halfplane, disc_rotation_matrix, mobius_apply)
from herglotz.errors import SpecError
from herglotz.sphere import cayley_to_disc_values, cayley_to_halfplane_values


def test_matrix_rejects_singular():
    with pytest.raises(SpecError):
        MobiusMatrix(1.0, 2.0, 2.0, 4.0)


def test_mobius_identity():
    m = MobiusMatrix.identity()
    assert mobius_apply(m, 2 + 3j).isclose(SpherePoint(2 + 3j))


def test_mobius_inversion_fixes_i():
    m = MobiusMatrix(0, -1, 1, 0)
    assert mobius_apply(m, 1j).isclose(SpherePoint(1j))


def test_mobius_at_infinity():
    m = MobiusMatrix(1, 1, 0, 1)
    assert mobius_apply(m, INFINITY).infinite
    m2 = MobiusMatrix(2, 1, 1, 3)
    assert mobius_apply(m2, INFINITY).isclose(SpherePoint(2.0))


def test_pole_routes_to_infinity():
    m = MobiusMatrix(1, 0, 1, -2)
    assert mobius_apply(m, 2.0).infinite


def test_overflowing_images_are_infinity():
    # 2e308 is not a double; 2 * 1.7e308 overflows, but the image is 2.
    assert mobius_apply(MobiusMatrix(2, 0, 5e-324, 1), 1e308) == INFINITY
    got = mobius_apply(MobiusMatrix(2, 0, 1, 1), 1.7e308)
    assert not got.infinite and got.value == 2.0


_EXTREME = st.sampled_from([0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -3.0,
                            1e300, -1e308, 1.7e308]) | st.floats(-1e3, 1e3)


@given(st.tuples(*[_EXTREME] * 4), _EXTREME, _EXTREME, st.booleans())
def test_mobius_apply_never_flags_an_overflow_as_finite(entries, re, im, at_infinity):
    try:
        m = MobiusMatrix(*entries)
    except SpecError:
        assume(False)
    p = INFINITY if at_infinity else complex(re, im)
    got = mobius_apply(m, p)
    assert got.infinite or (math.isfinite(got.value.real) and math.isfinite(got.value.imag))
    # Wherever the plain quotient is finite, its bits are kept.
    if at_infinity:
        plain = m.a / m.c if m.c != 0.0 else None
    else:
        den = m.c * p + m.d
        plain = (m.a * p + m.b) / den if den != 0 else None
    if plain is not None and cmath.isfinite(plain):
        assert not got.infinite and got.value == complex(plain)
        assert repr(got.value) == repr(complex(plain))


def test_group_law_on_samples():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = MobiusMatrix(*rng.uniform(-3, 3, size=4))
        b = MobiusMatrix(*rng.uniform(-3, 3, size=4))
        z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        lhs = mobius_apply(a, mobius_apply(b, z))
        rhs = mobius_apply(a @ b, z)
        assert lhs.isclose(rhs, 1e-12)


def test_cayley_special_points():
    assert cayley_to_disc(1j).isclose(SpherePoint(0j))
    assert cayley_to_disc(0j).isclose(SpherePoint(1.0))
    assert cayley_to_disc(INFINITY).isclose(SpherePoint(-1.0))
    assert cayley_to_halfplane(0j).isclose(SpherePoint(1j))
    assert cayley_to_halfplane(-1.0).infinite


def test_cayley_roundtrip_samples():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(1000, 2))
    w = pts[:, 0] + 1j * pts[:, 1]
    back = cayley_to_halfplane_values(cayley_to_disc_values(w))
    assert np.max(np.abs(back - w) / np.maximum(1.0, np.abs(w))) < 1e-13
    p = cayley_to_halfplane(cayley_to_disc(2 + 5j))
    assert abs(p.value - (2 + 5j)) <= 1e-14 * abs(2 + 5j)


def test_cayley_upper_halfplane_iff_disc():
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, size=500) + 1j * rng.uniform(-2, 2, size=500)
    z = z[np.abs(np.abs(z) - 1.0) > 1e-3]
    w = cayley_to_halfplane_values(z)
    assert np.all((w.imag > 0) == (np.abs(z) < 1))


def test_rotation_matrix_basics():
    m0 = disc_rotation_matrix(0.0)
    assert (m0.a, m0.b, m0.c, m0.d) == (1.0, 0.0, -0.0, 1.0)
    mpi = disc_rotation_matrix(math.pi)
    # theta = pi transfers to the inversion w -> -1/w.
    assert abs(mpi.a) < 1e-15 and abs(mpi.d) < 1e-15
    assert mpi.b == pytest.approx(1.0) and mpi.c == pytest.approx(-1.0)
    z = 0.7 + 1.9j
    assert mobius_apply(mpi, z).isclose(SpherePoint(-1.0 / z))


def test_rotation_group_law_up_to_sign():
    t1, t2 = 0.9, 1.7
    prod = disc_rotation_matrix(t1) @ disc_rotation_matrix(t2)
    combo = disc_rotation_matrix(t1 + t2)
    entries = np.array([prod.a - combo.a, prod.b - combo.b,
                        prod.c - combo.c, prod.d - combo.d])
    flipped = np.array([prod.a + combo.a, prod.b + combo.b,
                        prod.c + combo.c, prod.d + combo.d])
    assert np.allclose(entries, 0, atol=1e-12) or np.allclose(flipped, 0, atol=1e-12)


def test_rotation_conjugate_rotates_disc():
    theta = 0.63
    m = disc_rotation_matrix(theta)
    z = 0.3 - 0.4j
    w = cayley_to_halfplane(z).value
    moved = mobius_apply(m, w)
    z_moved = cayley_to_disc(moved.value).value
    assert abs(z_moved - np.exp(1j * theta) * z) < 1e-13
