import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from herglotz import (Atom, BoundaryMeasure, CatalogSpec, MobiusMatrix, catalog_build,
                      cauchy_eval, cauchy_kernel, conjugate, invert_variable,
                      mobius_apply, principal_log, principal_power, pushforward_mobius,
                      star_reflect, table_density, to_disc)
from herglotz import catalog, measures, quadrature
from herglotz.catalog import compose_mobius
from herglotz.errors import DomainError, SpecError
from herglotz.measures import DensityPart, density_from_descriptor
from herglotz.sphere import mobius_apply_values


def test_principal_log_values():
    assert abs(principal_log(1j) - 1j * np.pi / 2) < 1e-15
    assert abs(principal_log(np.e) - 1.0) < 1e-15
    near_cut = principal_log(-1.0 + 1e-12j)
    assert abs(near_cut.imag - np.pi) < 1e-11


def test_principal_log_domain_errors():
    for bad in (-1.0, 0.0, np.inf):
        with pytest.raises(DomainError):
            principal_log(bad)


def test_principal_power_values():
    assert abs(principal_power(1j, 0.5) - np.exp(1j * np.pi / 4)) < 1e-15
    assert abs(principal_power(4.0, 0.5) - 2.0) < 1e-15


def test_principal_power_inversion_identity():
    # (-1/z)^p = e^{i pi p} / z^p in the upper half plane
    rng = np.random.default_rng(2)
    p = 0.37 + 0.21j
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        lhs = principal_power(-1.0 / z, p)
        rhs = np.exp(1j * np.pi * p) / principal_power(z, p)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_principal_power_star_identity():
    p = 0.6 - 0.3j
    z = 1.4 + 0.8j
    assert abs(np.conj(principal_power(z, p))
               - principal_power(np.conj(z), np.conj(p))) < 1e-14


def test_tan_values(tan_fn):
    assert abs(tan_fn(1j) - 1j * np.tanh(1.0)) < 1e-14
    # overflow-safe far from the axis
    assert abs(tan_fn(3 + 900j) - 1j) < 1e-15
    assert abs(tan_fn(3 - 900j) + 1j) < 1e-15


def test_csc2_matches_tan_plus_cot():
    csc2 = catalog_build(CatalogSpec("csc2"))
    tan = catalog_build(CatalogSpec("tan"))
    cot = catalog_build(CatalogSpec("cot"))
    rng = np.random.default_rng(4)
    z = rng.uniform(-3, 3, 50) + 1j * rng.uniform(0.1, 2, 50)
    assert np.max(np.abs(csc2(z) - tan(z) - cot(z))) < 1e-12


def test_boundary_guard():
    tan = catalog_build(CatalogSpec("tan"))
    with pytest.raises(DomainError):
        tan(1.0 + 0j)
    disc = catalog_build(CatalogSpec("disc_herglotz",
                                     {"measure": BoundaryMeasure((Atom(0.0, 2 * np.pi),), (), "circle"),
                                      "constant": 0}))
    with pytest.raises(DomainError):
        disc(1j)  # |z| = 1 exactly


def test_rational_example():
    f = catalog_build(CatalogSpec("rational",
                                  {"a": 0, "b": 0, "poles": [0.0], "coeffs": [1.0]}))
    assert abs(f(2j) - 1j / 2) < 1e-15


def test_rational_validation():
    with pytest.raises(SpecError):
        catalog_build(CatalogSpec("rational", {"a": 0, "b": 0,
                                               "poles": [1.0, 1.0], "coeffs": [1, 1]}))
    with pytest.raises(SpecError):
        catalog_build(CatalogSpec("rational", {"a": 0, "b": 0,
                                               "poles": [1.0], "coeffs": [0.0]}))


def test_cauchy_kernel_identities():
    assert abs(cauchy_kernel(0.0, 2j) - 1j / 2) < 1e-15
    assert abs(cauchy_kernel(np.inf, 2j) - 2j) < 1e-15
    # K(s, i) = i for every finite s
    s = np.linspace(-40, 40, 101)
    assert np.max(np.abs(cauchy_kernel(s, 1j * np.ones_like(s)) - 1j)) < 1e-13


def test_cauchy_eval_atoms():
    m = BoundaryMeasure((Atom(0.0, 1.0),))
    assert abs(cauchy_eval(m, 0.0, 2j) - 1j / 2) < 1e-14
    m_inf = BoundaryMeasure((Atom(np.inf, 1.0),))
    for z in (2j, -1 + 3j, 0.5 - 2j):
        assert abs(cauchy_eval(m_inf, 0.0, z) - z) < 1e-14


def test_cauchy_eval_total_mass_at_i():
    dens = DensityPart((-3.0, -1.0), lambda x: (0.2 + 0.1j) * np.ones(np.shape(x), dtype=complex))
    m = BoundaryMeasure((Atom(1.5, 0.7 - 0.2j),), (dens,))
    total = 0.7 - 0.2j + (0.2 + 0.1j) * 2.0
    assert abs(cauchy_eval(m, 0.0, 1j) - 1j * total) < 1e-10


def test_cauchy_eval_linearity():
    d1 = DensityPart((-2.0, 0.0), lambda x: np.exp(np.asarray(x, dtype=float)).astype(complex))
    d2 = DensityPart((0.5, 2.0), lambda x: (1.0 / (1.0 + np.asarray(x, dtype=float) ** 2)).astype(complex))
    m1 = BoundaryMeasure((Atom(3.0, 1.0),), (d1,))
    m2 = BoundaryMeasure((Atom(-4.0, 2j),), (d2,))
    m12 = BoundaryMeasure(m1.atoms + m2.atoms, m1.densities + m2.densities)
    for z in (1j, 2 - 1j):
        lhs = cauchy_eval(m12, 0.0, z)
        rhs = cauchy_eval(m1, 0.0, z) + cauchy_eval(m2, 0.0, z)
        assert abs(lhs - rhs) < 1e-9


def test_star_reflect_basics(identity_fn, const_i, tan_fn):
    z = 1.3 + 0.7j
    assert abs(star_reflect(identity_fn)(z) - z) < 1e-15
    assert abs(star_reflect(const_i)(z) + 1j) < 1e-15
    assert abs(star_reflect(tan_fn)(z) - tan_fn(z)) < 1e-14


def test_star_is_involution(sqrt_fn):
    rng = np.random.default_rng(9)
    z = rng.uniform(-3, 3, 64) + 1j * rng.uniform(0.05, 3, 64)
    twice = star_reflect(star_reflect(sqrt_fn))
    assert np.max(np.abs(twice(z) - sqrt_fn(z))) < 1e-14


def test_star_measure_compatibility():
    dens = DensityPart((-4.0, -1.0),
                       lambda x: (np.sqrt(-np.asarray(x, dtype=float)) * (1 + 0.5j)).astype(complex))
    m = BoundaryMeasure((Atom(2.0, 0.3 - 0.4j),), (dens,))
    c = 0.1 + 0.2j
    f = catalog_build(CatalogSpec("cauchy", {"measure": m, "constant": c}))
    star_f = star_reflect(f)
    rng = np.random.default_rng(12)
    for _ in range(5):
        w = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2))
        direct = cauchy_eval(conjugate(m), np.conj(c), w)
        assert abs(star_f(w) - direct) < 1e-8


def test_invert_variable(minus_inverse, tan_fn):
    inv = invert_variable(minus_inverse)
    z = 0.8 + 1.1j
    assert abs(inv(z) - z) < 1e-14
    tan_inv = invert_variable(tan_fn)
    assert abs(tan_inv(z) - np.tan(-1.0 / z)) < 1e-13
    rng = np.random.default_rng(21)
    zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(0.1, 2, 40)
    twice = invert_variable(invert_variable(tan_fn))
    assert np.max(np.abs(twice(zs) - tan_fn(zs))) < 1e-13


def test_inverted_locator_enumerates_the_window_only(tan_fn):
    # The base is asked for its poles in the image (-10, -1/8) of the window,
    # not on the whole line, where tan has infinitely many.
    got = invert_variable(tan_fn).pole_locator(0.1, 8.0)
    poles = [p for p in np.pi / 2.0 * np.arange(-21, 0, 2) if -10.0 < p < -0.125]
    assert got.tolist() == sorted(-1.0 / p for p in poles)
    sigma_log = invert_variable(catalog_build(CatalogSpec("tan_sigma_log", {"sigma": 1.0})))
    assert sigma_log.pole_locator(-1.0, -0.1).tolist() == [-1.0 / math.exp(math.pi / 2.0)]


@pytest.mark.parametrize("spec, support", [
    (CatalogSpec("tan"), (("point", 0.0),)),
    (CatalogSpec("power", {"p": 0.5}), (("interval", 0.0, math.inf),)),
    (CatalogSpec("power_over_log", {"p": 0.5}),
     (("interval", 0.0, math.inf), ("point", -1.0))),
    (CatalogSpec("cot_sigma_log", {"sigma": 2.0}),
     (("interval", 0.0, math.inf), ("point", math.inf), ("point", 0.0))),
    (CatalogSpec("rational", {"a": 1.0, "b": 0.0, "poles": [0.0, -4.0, 2.0],
                              "coeffs": [1.0, 1.0, 1.0]}),
     (("point", math.inf), ("point", 0.25), ("point", -0.5), ("point", 0.0))),
    (CatalogSpec("cauchy", {"measure": BoundaryMeasure(
        (Atom(4.0, 1.0),), (table_density([-2.0, 0.0, 3.0], [1.0, 2.0, 1.0]),))}),
     (("interval", 0.5, math.inf), ("interval", -math.inf, -1.0 / 3.0), ("point", -0.25))),
])
def test_invert_variable_support_table(spec, support):
    got = invert_variable(catalog_build(spec)).boundary_support
    assert got == support
    # Zeros keep their sign: infinity maps to +0.0.
    signs = [math.copysign(1.0, v) for entry in got for v in entry[1:]]
    assert signs == [math.copysign(1.0, v) for entry in support for v in entry[1:]]


# Entries and locations stay where the images of bounded points are finite
# floats; a subnormal entry can send a finite point past the largest float.
_ENTRY = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0).filter(
    lambda v: abs(v) >= 1e-6)
_LOC = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def _matrices(draw):
    a, b, c, d = (draw(_ENTRY) for _ in range(4))
    assume(abs(a * d - b * c) > 0.1)
    return MobiusMatrix(a, b, c, d)


@st.composite
def _measures(draw):
    locs = draw(st.lists(_LOC | st.just(math.inf), max_size=3, unique=True))
    # Atoms closer than rounding can tell apart merge under the pushforward.
    assume(len(locs) < 2 or min(np.diff(sorted(locs))) > 1e-3)
    densities = []
    for _ in range(draw(st.integers(0, 2))):
        xs = draw(st.lists(_LOC, min_size=2, max_size=5, unique=True))
        assume(min(np.diff(sorted(xs))) > 1e-3)
        densities.append(table_density(sorted(xs), np.ones(len(xs))))
    return BoundaryMeasure(tuple(Atom(x, 1.0) for x in locs), tuple(densities),
                           mixed_ok=True)


@settings(max_examples=150)
@given(_matrices(), _measures())
def test_composed_support_is_the_pushforward_support(A, m):
    f = catalog_build(CatalogSpec("cauchy", {"measure": m}))
    pushed = pushforward_mobius(m, A)
    assert compose_mobius(f, A).boundary_support == \
        tuple(("interval", *d.support) for d in pushed.densities) \
        + tuple(("point", a.loc) for a in pushed.atoms)


@settings(max_examples=150)
@given(_matrices(), st.lists(_LOC, min_size=1, max_size=5, unique=True), _LOC,
       st.floats(0.01, 10.0))
def test_composed_locator_pulls_back_the_poles(A, poles, lo, width):
    hi = lo + width
    assume(A.c == 0.0 or not lo <= -A.d / A.c <= hi)
    f = catalog_build(CatalogSpec("rational", {"a": 0.0, "b": 0.0, "poles": poles,
                                               "coeffs": [1.0] * len(poles)}))
    pulled = [mobius_apply(A.inverse(), p) for p in poles]
    pulled = [q.value.real for q in pulled if not q.infinite]
    # Rounding decides points on the window's edges either way.
    assume(all(min(abs(q - lo), abs(q - hi)) > 1e-9 * (1.0 + abs(q)) for q in pulled))
    got = compose_mobius(f, A).pole_locator(lo, hi)
    assert got.tolist() == sorted(q for q in pulled if lo < q < hi)


def test_endofunction_property():
    rng = np.random.default_rng(31)
    w = rng.uniform(-5, 5, 200) + 1j * rng.uniform(1e-3, 5, 200)
    dens = DensityPart((-2.0, 1.0), lambda x: 0.3 * np.ones(np.shape(x), dtype=complex))
    positive = BoundaryMeasure((Atom(2.0, 0.5),), (dens,))
    cases = [
        catalog_build(CatalogSpec("tan")),
        catalog_build(CatalogSpec("power", {"p": 0.5})),
        catalog_build(CatalogSpec("cauchy", {"measure": positive, "constant": 0.0})),
    ]
    for f in cases:
        assert np.all(f(w).imag > 0)


def test_reflection_symmetry_of_real_kinds():
    rng = np.random.default_rng(41)
    z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(0.1, 2, 40)
    specs = [CatalogSpec("tan"), CatalogSpec("cot"), CatalogSpec("csc2"),
             CatalogSpec("power", {"p": 0.7}),
             CatalogSpec("tan_sigma_log", {"sigma": 1.5})]
    for spec in specs:
        f = catalog_build(spec)
        assert np.max(np.abs(f(np.conj(z)) - np.conj(f(z)))) < 1e-13


def test_power_metadata():
    f = catalog_build(CatalogSpec("power", {"p": 0.5}))
    assert f.has_representing_measure
    edge = catalog_build(CatalogSpec("power", {"p": 1.0 + 0.7j}))
    assert edge.has_representing_measure is False


def test_pole_locators():
    tan = catalog_build(CatalogSpec("tan"))
    poles = tan.pole_locator(0.0, 8.0)
    assert np.allclose(poles, [np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2])
    tsl = catalog_build(CatalogSpec("csc2_sigma_log", {"sigma": 1.0}))
    got = tsl.pole_locator(0.1, 10.0)
    expect = np.exp(np.pi * np.arange(-1, 2) / 2.0)
    assert np.allclose(np.sort(got), np.sort(expect))


@pytest.mark.parametrize("kind, lo, hi", [
    ("tan", -math.inf, 0.0), ("tan", 0.0, math.inf), ("cot", -math.inf, math.inf),
    ("csc2", 1.0, math.inf), ("tan_sigma_log", 0.5, math.inf),
    ("cot_sigma_log", -math.inf, math.inf), ("csc2_sigma_log", 0.0, math.inf),
])
def test_lattice_locator_rejects_infinite_windows(kind, lo, hi):
    params = {"sigma": 1.5} if kind.endswith("sigma_log") else {}
    with pytest.raises(SpecError, match="accumulate"):
        catalog_build(CatalogSpec(kind, params)).pole_locator(lo, hi)


def test_inverted_tan_locator_over_its_accumulation_point(tan_fn):
    # The window's image under -1/z reaches both infinities of the tan lattice.
    with pytest.raises(SpecError, match="accumulate"):
        invert_variable(tan_fn).pole_locator(-1.0, 1.0)


def _lattice_reference(kind, sigma, lo, hi):
    # The lattice enumerated point by point over a range wide enough for the
    # windows drawn below; the logarithmic lattices stop at 1e-300 near 0.
    ns = range(-700, 200)
    if kind.endswith("sigma_log"):
        lo = max(lo, 1e-300)
        pts = [math.exp(n * (math.pi / (2.0 * sigma))) for n in ns]
    else:
        pts = [math.pi * n / (1.0 if kind == "cot" else 2.0) for n in ns]
    keep = {"tan": lambda n: n % 2, "cot": lambda n: True, "csc2": lambda n: True,
            "tan_sigma_log": lambda n: n % 2, "cot_sigma_log": lambda n: n % 2 == 0,
            "csc2_sigma_log": lambda n: True}[kind]
    return sorted(p for n, p in zip(ns, pts) if keep(n) and lo < p < hi)


@pytest.mark.parametrize("kind", ["tan", "cot", "csc2", "tan_sigma_log",
                                  "cot_sigma_log", "csc2_sigma_log"])
def test_lattice_locator_finite_windows(kind):
    sigma = 1.5
    f = catalog_build(CatalogSpec(kind, {"sigma": sigma} if "sigma" in kind else {}))
    rng = np.random.default_rng(5)
    for _ in range(40):
        if "sigma" in kind:
            lo = rng.uniform(-1.0, 3.0)
            hi = lo + 10.0 ** rng.uniform(-2.0, 2.0)
        else:
            lo = rng.uniform(-50.0, 50.0)
            hi = lo + rng.uniform(0.1, 30.0)
        got = np.sort(f.pole_locator(lo, hi))
        ref = _lattice_reference(kind, sigma, lo, hi)
        assert len(got) == len(ref) and np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_spec_json_roundtrip():
    spec = CatalogSpec("rational", {"a": 0 + 0j, "b": 3 + 0j,
                                    "poles": [5.0], "coeffs": [4 + 1j]})
    back = CatalogSpec.from_json({"kind": "rational", "a": [0.0, 0.0], "b": [3.0, 0.0],
                                  "poles": [5.0], "coeffs": [[4.0, 1.0]]})
    f1, f2 = catalog_build(spec), catalog_build(back)
    assert abs(f1(1 + 2j) - f2(1 + 2j)) < 1e-15
    p = CatalogSpec.from_json({"kind": "power", "p": [0.5, 0.0]})
    assert catalog_build(p)(1j) == pytest.approx(np.exp(1j * np.pi / 4))


def _power_measure(p):
    p = complex(p)
    dens = density_from_descriptor({"kind": "catalog-power", "p": [p.real, p.imag],
                                    "support": [-np.inf, 0.0]})
    return BoundaryMeasure((), (dens,)), complex(np.cos(np.pi * p / 2))


def _panels(evaluated, fn):
    """fn() and the panels it evaluated."""
    evaluated["panels"] = 0
    value = fn()
    return value, evaluated["panels"]


def test_cauchy_eval_power_density_near_boundary(evaluated):
    # z**p as the Cauchy transform of its boundary density, from Im z = 1 down
    # to 1e-12 on either side, out to |x| = 1e6 and next to the singular
    # endpoint 0; the cost at 1e-12 stays within 10x of the cost at 1.
    for p in (0.5, -0.6, 0.3 + 0.4j, 0.7 - 0.4j):
        m, c = _power_measure(p)
        for x in (-1e6, -1e3, -1.0, -1e-2, -1e-6, 1e-3, 1.0, 1e4):
            panels = {}
            for y in (1.0, 1e-4, 1e-9, 1e-12, -1e-12):
                z = complex(x, y)
                value, panels[y] = _panels(evaluated, lambda: cauchy_eval(m, c, z))
                ref = np.power(z, complex(p))
                assert abs(value - ref) <= 1e-8 * (1.0 + abs(ref)), (p, z)
            assert max(panels[1e-12], panels[-1e-12]) <= 10 * panels[1.0], (p, x)


def _disc_cosine(c):
    cosine = DensityPart((-np.pi, np.pi), lambda t: np.cos(t).astype(complex))
    return catalog_build(CatalogSpec("disc_herglotz", {
        "measure": BoundaryMeasure((), (cosine,), "circle"), "constant": c}))


def test_cauchy_refuses_a_circle_measure():
    # Angles are not line points: both the builder and cauchy_eval refuse the
    # measure, as disc_herglotz refuses a line one.
    dens = DensityPart((-np.pi, np.pi), lambda t: np.cos(np.asarray(t, dtype=float)).astype(complex))
    m = BoundaryMeasure((Atom(1.0, 1.0),), (dens,), "circle", mixed_ok=True)
    with pytest.raises(SpecError, match="line-picture"):
        catalog_build(CatalogSpec("cauchy", {"measure": m}))
    with pytest.raises(SpecError, match="line-picture"):
        cauchy_eval(m, 0.0, 2j)


def test_disc_herglotz_near_circle():
    mpmath = pytest.importorskip("mpmath")
    c = 0.1j
    full = _disc_cosine(c)

    def on_arc(lo, hi):
        dens = DensityPart((lo, hi), lambda t: (1 + 0.5j) * np.exp(t))
        return catalog_build(CatalogSpec("disc_herglotz", {
            "measure": BoundaryMeasure((), (dens,), "circle"), "constant": c}))

    def arc_oracle(z, lo, hi):
        # 30 digits, with the interval split at the peak.
        theta = float(np.angle(z))
        cuts = [lo] + ([theta] if lo < theta < hi else []) + [hi]
        with mpmath.workdps(30):
            w = mpmath.mpc(z.real, z.imag)
            val = mpmath.quad(lambda t: (1 + 0.5j) * mpmath.exp(t) * (mpmath.expj(t) + w)
                              / (mpmath.expj(t) - w), cuts)
            return c + complex(val / (2 * mpmath.pi))

    arc = on_arc(-1.0, 2.0)
    # Angles inside the arc, a hundredth from its end, and outside it.
    for angle in (1.0, 1.99, 2.5):
        for gap in (1e-3, 1e-6, 1e-9):
            for r, ref in ((1.0 - gap, lambda z: c + z),
                           (1.0 / (1.0 - gap), lambda z: c - 1.0 / z)):
                z = r * np.exp(1j * angle)
                for f, want in ((full, ref(z)), (arc, arc_oracle(z, -1.0, 2.0))):
                    assert abs(f(z) - want) <= 1e-8 * (1.0 + abs(want)), (angle, gap, r)
    # On the negative axis the peak straddles the ends of the full period.
    z = -(1.0 - 1e-9)
    assert abs(full(z) - (c + z)) <= 1e-8
    # A batch on a long arc: the windows merge into one about 5 radians long,
    # so arg(e^{it} - z) turns by more than pi on one side of each point.
    zs = (1.0 - 1e-6) * np.exp(1j * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    want = np.array([arc_oracle(z, -3.0, 3.0) for z in zs])
    assert np.all(np.abs(on_arc(-3.0, 3.0)(zs) - want) <= 1e-8 * (1.0 + np.abs(want)))


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64)


def test_with_reflection_pointwise_is_bit_equal(tan_fn, minus_inverse):
    rng = np.random.default_rng(14)
    upper = rng.uniform(-3, 3, (3, 5)) + 1j * 10.0 ** rng.uniform(-9, 1, (3, 5))
    inside = rng.uniform(0.1, 1.0 - 1e-9, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
    power = catalog_build(CatalogSpec("power", {"p": 0.3 + 0.2j}))
    for f, z in ((tan_fn, upper), (power, upper), (minus_inverse, upper),
                 (compose_mobius(tan_fn, MobiusMatrix(2.0, -1.0, 1.0, 3.0)), upper),
                 (star_reflect(power), upper), (to_disc(tan_fn), inside),
                 (star_reflect(to_disc(power)), inside)):
        mirror = np.conj(z) if f.picture == "half-plane" else 1.0 / np.conj(z)
        got, got_mirror = catalog._with_reflection(f, z)
        assert np.array_equal(_bits(got), _bits(f(z))), f.descriptor
        assert np.array_equal(_bits(got_mirror), _bits(f(mirror))), f.descriptor


def test_with_reflection_refines_measure_evaluators_once(density_points):
    # A table density plus an atom at Im z = 1e-2 above the line, and the disc
    # cosine a hundredth inside the circle: both sides of each pair agree with
    # two calls, and once the first call has sampled the densities no later
    # call hands them a point.
    xs = np.linspace(-3.0, -0.5, 65)
    table = table_density(xs, np.sqrt(-xs) / (np.pi * (1.0 + xs * xs)))
    line = catalog_build(CatalogSpec("cauchy", {
        "measure": BoundaryMeasure((Atom(0.0, 0.5),), (table,)), "constant": 0.0}))
    cases = ((line, np.linspace(-4.0, 1.0, 21) + 1e-2j, np.conj),
             (_disc_cosine(0.2j), 0.99 * np.exp(1j * np.linspace(-3.0, 3.0, 13)),
              lambda z: 1.0 / np.conj(z)))
    for f, z, mirror in cases:
        density_points["points"] = 0
        want = f(z), f(mirror(z))
        separate = density_points["points"]
        density_points["points"] = 0
        got = catalog._with_reflection(f, z)
        assert density_points["points"] == 0 < separate, f.descriptor["kind"]
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w)), f.descriptor["kind"]


# ---------------------------------------------------------------------------
# Fixed density panels: accuracy, cost and batch invariance


def _table_oracle(d, z, mpmath):
    """Integral of d(s) (1 + s z)/(s - z) over the table's node intervals:
    at 30 digits by mpmath.quad, split at Re z, on intervals that lie within
    a width of z, and by 48-point Gauss-Legendre on the others, whose error
    for a pole a width away is below 1e-30."""
    xs = np.array(d.descriptor["xs"])
    gx, gw = np.polynomial.legendre.leggauss(48)
    total = 0j
    for a, b in zip(xs[:-1], xs[1:]):
        width = b - a
        gap = max(a - z.real, z.real - b, 0.0)
        if math.hypot(gap, z.imag) >= width:
            s = 0.5 * (a + b) + 0.5 * width * gx
            total += 0.5 * width * np.sum(gw * d(s) * (1.0 + s * z) / (s - z))
            continue
        with mpmath.workdps(30):
            zm = mpmath.mpc(z.real, z.imag)
            cuts = [a] + ([z.real] if a < z.real < b else []) + [b]
            total += complex(mpmath.quad(
                lambda s: complex(d.fn(np.array([float(s)]))[0]) * (1 + s * zm) / (s - zm),
                cuts))
    return total


def test_line_panels_match_the_oracle_on_tables_atoms_and_a_power_density():
    # 50 table pieces with gaps between them, a table wider than 200, atoms
    # and z^(1/2)'s density on (-inf, 0): points inside pieces, in the gaps,
    # on a table node and off the support, from Im z = 1 down to 1e-9 on both
    # sides, evaluated in one batch.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    tables = []
    for k in range(50):
        xs = np.linspace(k + 0.5, k + 1.3, 6)
        tables.append(table_density(xs, np.cos(xs) + 1j * rng.uniform(-1, 1, 6)))
    tables.append(table_density(np.linspace(100.0, 400.0, 9), np.full(9, 0.01)))
    root, c = _power_measure(0.5)
    atoms = (Atom(1.4, 0.5), Atom(20.4, -1j), Atom(60.0, 2.0))
    m = BoundaryMeasure(atoms, tuple(tables) + root.densities)
    xs = np.array([-3.0, -0.1, 0.7, 1.4, 17.9, 30.45, 70.0, 250.0])
    zs = np.concatenate([xs + 1j * y for y in (1.0, 1e-3, -1e-6, 1e-9)])
    got = cauchy_eval(m, c, zs)
    for z, value in zip(zs, got):
        with mpmath.workdps(30):
            ref = complex(mpmath.sqrt(mpmath.mpc(z.real, z.imag)))
        ref += sum(a.mass * (1.0 + a.loc * z) / (a.loc - z) for a in atoms)
        ref += sum(_table_oracle(d, z, mpmath) for d in tables)
        assert abs(value - ref) <= 1e-10 * (1.0 + abs(ref)), z


def test_line_panels_match_the_oracle_on_the_tan_layout():
    # A measure laid out like tan's reconstruction: 1 003 table pieces between
    # the poles pi n / 2, n odd, |n| <= 1001, with their atoms, at 2i.
    mpmath = pytest.importorskip("mpmath")
    poles = np.pi * np.arange(-1001, 1002, 2) / 2.0
    cuts = np.concatenate([[poles[0] - np.pi / 2], poles, [poles[-1] + np.pi / 2]])
    xs = [np.linspace(u + 1e-3, v - 1e-3, 4) for u, v in zip(cuts[:-1], cuts[1:])]
    parts = measures._table_densities(xs, [1e-8 * np.cos(x) + 0j for x in xs])
    m = BoundaryMeasure(tuple((s, 1.0) for s in poles), tuple(parts))
    z = 2j
    ref = sum((1.0 + s * z) / (s - z) for s in poles.tolist())
    ref += sum(_table_oracle(d, z, mpmath) for d in parts)
    value = cauchy_eval(m, 0.0, np.array([z]))[0]
    assert len(parts) == 1003
    assert abs(value - ref) <= 1e-10 * (1.0 + abs(ref))


def test_disc_panels_match_the_oracle_on_arcs_and_an_atom():
    # Densities over parts of the circle and an atom, inside, next to and
    # outside the circle, one batch against 30-digit quadratures.
    mpmath = pytest.importorskip("mpmath")
    arcs = (((-1.0, 2.0), lambda t: (1 + 0.5j) * np.exp(t), lambda t: (1 + 0.5j) * mpmath.exp(t)),
            ((2.5, 3.0), lambda t: np.cos(t).astype(complex), mpmath.cos),
            ((-3.0, -1.5), lambda t: np.full(np.shape(t), 0.3j), lambda t: 0.3j))
    disc = catalog_build(CatalogSpec("disc_herglotz", {
        "measure": BoundaryMeasure((Atom(2.2, 1.0),),
                                   tuple(DensityPart(s, f) for s, f, _ in arcs), "circle"),
        "constant": 0.1}))
    angles = np.array([-2.0, 0.5, 1.99, 2.2, 2.75, 3.1])
    zs = np.concatenate([r * np.exp(1j * angles) for r in (0.5, 1.0 - 1e-6, 1.0 / (1.0 - 1e-3))])
    got = disc(zs)
    for z, value in zip(zs, got):
        theta = float(np.angle(z))
        ref = 0.1 + (np.exp(2.2j) + z) / (np.exp(2.2j) - z) / (2 * np.pi)
        with mpmath.workdps(30):
            w = mpmath.mpc(z.real, z.imag)
            for (lo, hi), _, rho in arcs:
                cuts = [lo] + ([theta] if lo < theta < hi else []) + [hi]
                ref += complex(mpmath.quad(lambda t: rho(t) * (mpmath.expj(t) + w)
                                           / (mpmath.expj(t) - w), cuts) / (2 * mpmath.pi))
        assert abs(value - ref) <= 1e-10 * (1.0 + abs(ref)), z


def test_disc_densities_fit_in_one_refine_call(monkeypatch):
    # The densities of a circle measure are the rows of one _refine call, and
    # each sums as in an evaluator of its own.
    refine, calls = catalog._refine, []

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(catalog, "_refine", counted)
    densities = (DensityPart((-1.0, 2.0), lambda t: (1 + 0.5j) * np.exp(t)),
                 DensityPart((2.5, 3.0), lambda t: np.cos(t).astype(complex)),
                 DensityPart((-3.0, -1.5), lambda t: np.full(np.shape(t), 0.3j)))
    zs = np.array([0.5j, 0.9 - 0.3j, (1.0 - 1e-6) * np.exp(2.75j), 1.2 + 0.1j])
    got = catalog._disc_herglotz_eval(BoundaryMeasure((), densities, "circle"), 0.0)(zs)
    assert len(calls) == 1 and len(calls[0][1]) == 3
    want = sum(catalog._disc_herglotz_eval(BoundaryMeasure((), (d,), "circle"), 0.0)(zs)
               for d in densities)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert len(calls) == 4


def test_log_density_kinds_reproduce_their_functions():
    # cauchy of the catalog-power-log and catalog-power-over-log densities,
    # with the constant (f(i) + f(-i))/2 and, over log, the atom of mass -1/2
    # at 1 (the pole of 1/log z), is power_log and power_over_log down to
    # Im z = 1e-8 on either side, 1 + 1e-8i included.
    zs = np.array([x + 1j * y for x in (-30.0, -2.0, -0.3, 0.4, 1.0, 2.5, 40.0)
                   for y in (1.0, 1e-3, 1e-8, -1e-8, -0.5)])
    for kind, atoms in (("power_log", ()), ("power_over_log", (Atom(1.0, -0.5),))):
        for p in (0.0, 0.5, -0.6, 0.3 + 0.4j, 0.7 - 0.4j):
            f = catalog_build(CatalogSpec(kind, {"p": p}))
            dens = density_from_descriptor({"kind": "catalog-" + kind.replace("_", "-"),
                                            "p": [p.real, p.imag], "support": [-np.inf, 0.0]})
            c = 0.5 * (f(1j) + f(-1j))
            got = cauchy_eval(BoundaryMeasure(atoms, (dens,)), c, zs)
            ref = f(zs)
            assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref))), (kind, p)


def test_line_panels_on_a_density_without_descriptor():
    # The Cauchy density 1/(pi (1 + s^2)) on the whole line gives f = i above
    # the line and -i below.  Its panels run through both tail maps, and the
    # first three points sit at the junctions s = +-8 of the tails with the
    # middle piece.
    d = DensityPart((-np.inf, np.inf),
                    lambda x: (1.0 / (np.pi * (1.0 + np.asarray(x) ** 2))).astype(complex))
    zs = np.array([8 + 1e-12j, -8 + 1e-9j, 8.0000001 - 1e-12j, 3 + 1e-12j, 1e-3j,
                   -1e6 - 1e-9j, 1e12 + 1j])
    got = cauchy_eval(BoundaryMeasure((), (d,)), 0.0, zs)
    assert np.all(np.abs(got - np.where(zs.imag > 0, 1j, -1j)) <= 1e-10)


# z^(1/2) at the points 1e-12 and 1e-9 from the support that the benchmark
# evaluates, and the two catalog powers whose tail gaps missed their tolerance
# on the windowed evaluator.
_DEEP = (-1.0 + 1e-12j, -1000.0 - 1e-9j, -1.0 - 1e-12j, -1000.0 + 1e-9j)
_GAP_POINTS = ((0.5575 - 0.0814j, 0.2978 - 0.01j), (0.3879, 0.3350 - 0.001j))


def test_power_densities_meet_1e10_near_the_support():
    m, c = _power_measure(0.5)
    ref = principal_power(np.array(_DEEP), 0.5)
    batch = cauchy_eval(m, c, np.array(_DEEP))
    single = np.array([cauchy_eval(m, c, z) for z in _DEEP])
    for got in (batch, single):
        assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + np.abs(ref)))
    for p, z in _GAP_POINTS:
        m, c = _power_measure(p)
        ref = principal_power(z, p)
        assert abs(cauchy_eval(m, c, z) - ref) <= 1e-10 * (1.0 + abs(ref)), p


def test_point_cost_does_not_depend_on_the_distance(evaluated, density_points):
    # The same quadrature panels and density samples at x + i and x + 1e-12 i,
    # for tables, a catalog power and a density without a descriptor.
    xs = np.linspace(-3.0, -0.5, 65)
    table = table_density(xs, np.sqrt(-xs) / (np.pi * (1.0 + xs * xs)))
    bump = DensityPart((-2.0, 40.0), lambda x: np.exp(-np.asarray(x) ** 2).astype(complex))
    for m in (BoundaryMeasure((), (table,)), _power_measure(-0.7)[0],
              BoundaryMeasure((), (bump,))):
        counts = []
        for y in (1.0, 1e-12):
            evaluated["panels"] = density_points["points"] = 0
            cauchy_eval(m, 0.0, -1.3 + 1j * y)
            counts.append((evaluated["panels"], density_points["points"]))
        assert counts[0] == counts[1] and counts[0][1] > 0


_MIXED = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-12.0, 0.5), st.booleans(),
                            st.booleans()), min_size=2, max_size=12)


def _mixed_points(drawn):
    """x = +-10^u and heights +-10^v from the draws."""
    return np.array([complex((1 if right else -1) * 10.0 ** u, (1 if up else -1) * 10.0 ** v)
                     for u, v, right, up in drawn])


@settings(max_examples=20)
@given(_MIXED, st.sampled_from([-0.7, 0.5, 0.3 + 0.4j]))
def test_cauchy_values_do_not_depend_on_the_batch(drawn, p):
    # Each point of a batch that mixes magnitudes is bit-equal to its value
    # alone; p = -0.7 with 1e-6 + 1e-12i in the batch once erred by 1e-5 at
    # the other points.
    m, c = _power_measure(p)
    zs = np.append(_mixed_points(drawn), 1e-6 + 1e-12j)
    batch = cauchy_eval(m, c, zs)
    single = np.array([cauchy_eval(m, c, z) for z in zs])
    assert np.array_equal(_bits(batch), _bits(single))


@settings(max_examples=20)
@given(st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(-12.0, -0.3), st.booleans()),
                min_size=2, max_size=12))
def test_disc_values_do_not_depend_on_the_batch(drawn):
    f = _disc_cosine(0.2j)
    zs = np.array([(1.0 - 10.0 ** g if inside else 1.0 / (1.0 - 10.0 ** g)) * np.exp(1j * a)
                   for a, g, inside in drawn])
    batch = f(zs)
    single = np.array([f(z) for z in zs])
    assert np.array_equal(_bits(batch), _bits(single))


def test_evaluators_call_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    m, c = _power_measure(0.5)
    z = np.array([-1.0 + 1e-12j, 0.3 + 1j])
    assert np.all(np.abs(cauchy_eval(m, c, z) - principal_power(z, 0.5)) <= 1e-10)
    w = np.array([(1.0 - 1e-9) * np.exp(1.0j), 0.5])
    assert np.all(np.abs(_disc_cosine(0.1j)(w) - (0.1j + w)) <= 1e-10)


def test_compose_mobius_recomputes_or_rejects_overflowing_images():
    sqrt_fn = catalog_build(CatalogSpec("power", {"p": 0.5}))
    # (a z)/(c z + d) overflows in numerator and denominator at this z, and
    # the quotient, about 2, does not.
    A, z = MobiusMatrix(2e300, 0.0, 1e300, 1.0), 1e10 + 1e10j
    assert abs(mobius_apply_values(A, z) - 2.0) <= 1e-15
    assert abs(compose_mobius(sqrt_fn, A)(z) - np.sqrt(2.0)) <= 1e-15
    # Here the image itself, about 1e310 (1 + i) / 2, is not a double.
    with pytest.raises(DomainError):
        compose_mobius(sqrt_fn, MobiusMatrix(1e300, 0.0, 0.0, 1e-10))(1 + 1j)
