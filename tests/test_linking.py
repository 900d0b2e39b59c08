"""Divisor arithmetic and the linking pairings on both curves."""

import fractions
import hashlib
import importlib
import math
import random
import re

import numpy as np
import pytest

from holink import (
    BranchError,
    CapabilityError,
    Curve,
    CurveMismatchError,
    DisjointnessError,
    DivergenceError,
    Divisor,
    DomainError,
    HomologyError,
    INFINITY,
    LinkingMethod,
    PoleError,
    RationalMapSpec,
    TauParameter,
    arakelov_green,
    check_adjunction,
    half_period_values,
    linking,
    linking_elliptic,
    linking_sphere,
    massey_report,
    massey_value_via_linking,
    pullback,
    pushforward,
    reduce_mod_lattice,
    theta,
    torus_distance,
    weierstrass_p,
)
from holink.linking import MERGE_TOL
from holink.verify import TAU_BOX, _kernel_pairing

LINK_AT_I = math.log(0.5) / (2.0 * math.pi)  # half-period pairing on tau = i


def _random_tau(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))


def _pair(rng, tau, k=2):
    """Two disjoint degree-zero k-point divisors on C_tau."""
    mults = [1, -1] * (k // 2)
    while True:
        pts = [complex(rng.uniform(0.05, 0.95), 0) + rng.uniform(0.05, 0.95) * tau
               for _ in range(2 * k)]
        if all(torus_distance(p, q, tau) > 1e-3
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            return (Divisor.elliptic(tau, list(zip(pts[:k], mults))),
                    Divisor.elliptic(tau, list(zip(pts[k:], mults))))


def _pair_on_shared_lines(rng, tau, k):
    """As ``_pair``, with the i-th points of the two divisors at one Im: at
    such a pair y = 0, where the pair's orientation decides the bits."""
    mults = [1, -1] * (k // 2)
    while True:
        ys = [rng.uniform(0.05, 0.95) for _ in range(k)]
        pts = [complex(rng.uniform(0.05, 0.95), 0) + y * tau for y in ys + ys]
        if all(torus_distance(p, q, tau) > 1e-3
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            return (Divisor.elliptic(tau, list(zip(pts[:k], mults))),
                    Divisor.elliptic(tau, list(zip(pts[k:], mults))))


# ---------------------------------------------------------------- divisors


def test_divisor_canonicalization_merges_and_drops():
    d = Divisor.sphere([(1 + 1j, 2), (1 + 1j, -1), (3.0, 1), (3.0, -1)])
    assert d.terms == ((1 + 1j, 1),)
    assert d.degree() == 1


def test_divisor_elliptic_reduction():
    tau = 0.3 + 1.2j
    d = Divisor.elliptic(tau, [(0.1 + 2 * tau + 5, 1), (0.1, -1)])
    assert d.terms == ()  # same point mod the lattice


def _merged_measuring_every_pair(tau, terms):
    """(canonical terms, merges) as ``Divisor`` makes them without its
    screen: each reduced point measured against every representative."""
    canon = []
    for p, m in terms:
        p = reduce_mod_lattice(p, tau)
        for i, (p0, m0) in enumerate(canon):
            if torus_distance(p0, p, tau) < MERGE_TOL:
                canon[i] = (p0, m0 + m)
                break
        else:
            canon.append((p, m))
    merged = sorted(((p, m) for p, m in canon if m != 0),
                    key=lambda t: (t[0].real, t[0].imag))
    return merged, len(terms) - len(canon)


def _hex_terms(terms):
    return [(p.real.hex(), p.imag.hex(), m) for p, m in terms]


def test_merge_screen_keeps_every_canonical_term():
    # Seeded divisors with lattice translates of their points, nudged by
    # less and by more than MERGE_TOL, and pairs of points near the lower and
    # upper cell edges: the screened merge gives the reference's terms.
    rng = random.Random(1709)
    merges = 0
    for _ in range(1500):
        tau = complex(rng.uniform(-1, 1),
                      math.exp(rng.uniform(math.log(0.05), math.log(900.0))))
        pts = []
        for _ in range(rng.randint(1, 4)):
            p = rng.uniform(0, 1) + rng.uniform(0, 1) * tau
            for _ in range(rng.randint(1, 3)):
                nudge = complex(*(rng.choice((0.0, 1e-14, -4e-13, 3e-12))
                                  for _ in range(2)))
                pts.append(p + rng.randint(-2, 2) + rng.randint(-2, 2) * tau
                           + nudge)
        for _ in range(rng.randint(0, 2)):
            x, eps = rng.uniform(0, 1), 10.0 ** rng.uniform(-13, -8)
            pts += [x + eps * tau, x + (1.0 - eps) * tau]
        rng.shuffle(pts)
        terms = [(p, rng.choice((1, -1, 2))) for p in pts]
        expected, merged = _merged_measuring_every_pair(tau, terms)
        merges += merged
        assert (_hex_terms(Divisor.elliptic(tau, terms).terms)
                == _hex_terms(expected)), (tau, terms)
    assert merges > 1000


_TV = 0.3 + 1.1j
_P = 3e-12 + 3e-12 * _TV  # lattice coordinates (3e-12, 3e-12)
_Q = 0.3 + 5e-12 * (0.7 + 0.05j)


@pytest.mark.parametrize("tau, points, n_terms", [
    # lattice y 1e-11 and 1 - 1e-11 at Im tau = 0.05: 1.0000056e-12 apart,
    # just over MERGE_TOL, so two terms; at 5e-12 from the edges, one
    (0.05j, [0.3 + 1e-11 * 0.05j, 0.3 + (1 - 1e-11) * 0.05j], 2),
    (0.05j, [0.3 + 5e-12 * 0.05j, 0.3 + (1 - 5e-12) * 0.05j], 1),
    (0.7 + 0.05j, [_Q, _Q + (0.7 + 0.05j) - 5e-13j], 1),
    # p and p + 1 + tau within 1e-13
    (_TV, [0.2 + 0.4j, 0.2 + 0.4j + 1 + _TV + 6e-14 - 5e-14j], 1),
    (_TV, [_P, _P + 1 + _TV + 5e-14j], 1),
    # the half-period divisors of massey_value_via_linking share Im
    (_TV, [0.0, 0.5, _TV / 2, (1 + _TV) / 2], 4),
    (_TV, [0.0, 1.0, _TV, 1.0 + _TV], 1),
], ids=["edge-y-1e-11", "edge-y-5e-12", "edge-skewed", "p-and-p+1+tau",
        "p-and-p+1+tau-at-corner", "half-periods", "corners"])
def test_merge_screen_edge_cases(tau, points, n_terms):
    terms = [(p, 1) for p in points]
    expected, _ = _merged_measuring_every_pair(tau, terms)
    got = Divisor.elliptic(tau, terms).terms
    assert _hex_terms(got) == _hex_terms(expected)
    assert len(got) == n_terms


def test_divisor_infinity_only_on_sphere():
    Divisor.sphere([(INFINITY, 1), (0.0, -1)])
    with pytest.raises(DomainError):
        Divisor.elliptic(1j, [(INFINITY, 1), (0.0, -1)])


@pytest.mark.parametrize("curve", [Curve.sphere(), Curve.elliptic(0.3 + 1.1j)],
                         ids=["sphere", "elliptic"])
@pytest.mark.parametrize("point", [math.inf, math.nan, complex(0.1, math.inf),
                                   complex(math.nan, 0.2)])
def test_divisor_rejects_a_non_finite_point(curve, point):
    # a complex point is stored as given, not coerced again, and is still
    # checked before the elliptic reduction, which would name it otherwise
    with pytest.raises(DomainError, match=r"^divisor point must be finite, got "):
        Divisor(curve, [(point, 1), (0.5, -1)])


def test_divisor_add_leaves_other_types_to_them():
    z = Divisor.sphere([(0.0, 1), (1.0, -1)])
    assert z.__add__(1) is NotImplemented
    assert z.__add__((0.0, 1)) is NotImplemented
    with pytest.raises(TypeError):
        z + 1


def test_elliptic_divisors_on_one_tau_share_one_curve():
    tau = 0.3 + 1.1j
    z = Divisor.elliptic(tau, [(0.1, 1), (0.6 + 0.5j, -1)])
    w = Divisor.elliptic(tau, [(0.35 + 0.9j, 1), (0.8 + 0.15j, -1)])
    assert z.curve is w.curve is Curve.elliptic(tau) is Curve.elliptic(z.curve.tau)
    assert (z + w).curve is z.curve and pushforward(
        z, RationalMapSpec.translation(0.25)).curve is z.curve
    t = TauParameter(tau)
    assert Divisor.elliptic(t, [(0.1, 1), (0.5, -1)]).curve is Curve.elliptic(t)
    # a distinct but equal TauParameter has a curve of its own, equal to
    # the shared one: equality does not rest on identity
    twin = Curve.elliptic(TauParameter(tau))
    assert twin is not z.curve and twin.tau is not z.curve.tau
    assert twin == z.curve and not twin != z.curve and hash(twin) == hash(z.curve)
    assert linking(z, Divisor(twin, w.terms)) == linking(z, w)


def test_divisor_multiplicity_must_be_int():
    with pytest.raises(ValueError):
        Divisor.sphere([(0.0, 1.5)])
    with pytest.raises(ValueError, match="multiplicity must be an int, got True"):
        Divisor.sphere([(0.0, True)])
    with pytest.raises(ValueError):
        Divisor.sphere([(0.0, np.float64(1.0))])


def test_divisor_takes_numpy_integer_multiplicities():
    # Any integral number but a bool, as theta's kind: stored as a Python
    # int, so the divisor equals its plain twin.
    z = Divisor.sphere([(0.5, np.int64(1)), (1.5, -1)])
    assert z == Divisor.sphere([(0.5, 1), (1.5, -1)])
    assert all(type(m) is int for _, m in z.terms)
    mults = np.array([2, -1, -1])
    tau = 0.3 + 1.1j
    w = Divisor.elliptic(tau, list(zip([0.1 + 0.2j, 0.6 + 0.5j, 0.45 + 0.95j],
                                       mults)))
    assert all(type(m) is int for _, m in w.terms)
    assert w == Divisor.elliptic(tau, [(0.1 + 0.2j, 2), (0.6 + 0.5j, -1),
                                       (0.45 + 0.95j, -1)])


def test_divisor_algebra():
    z = Divisor.sphere([(0.0, 1), (1.0, -1)])
    w = Divisor.sphere([(2.0, 1), (3.0, -1)])
    assert (z + w).degree() == 0
    assert (-z).terms == ((0.0 + 0j, -1), (1.0 + 0j, 1))
    assert (2 * z).terms == ((0.0 + 0j, 2), (1.0 + 0j, -2))
    assert z - z == Divisor.sphere([])
    assert hash(z) == hash(Divisor.sphere([(1.0, -1), (0.0, 1)]))
    with pytest.raises(CurveMismatchError):
        z + Divisor.elliptic(1j, [(0.2, 1), (0.4, -1)])


def test_negation_and_scaling_keep_canonical_terms():
    # -d and k*d keep the canonical points and scale the multiplicities.
    rng = random.Random(0)
    for _ in range(2000):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.05, 3.0))
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(4)]
        if any(torus_distance(p, q, tau) < 1e-3
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            continue
        d = Divisor.elliptic(tau, [(pts[0], 1), (pts[1], -1)])
        w = Divisor.elliptic(tau, [(pts[2], 1), (pts[3], -1)])
        assert -(-d) == d
        assert (-1) * d == -d
        assert (3 * d).terms == tuple((p, 3 * m) for p, m in d.terms)
        assert (0 * d).terms == ()
        assert (linking(-d, w).value.hex()
                == (-linking(d, w).value).hex())


def test_scaling_keeps_the_point_bits_on_the_cell_edge():
    # The first point lies next to the lattice point tau, on the cell edge
    # x = 0: reduced once more it moves its last bit, so k * d takes the
    # canonical points as they are.
    d = Divisor.elliptic(-0.30322773586661467 + 2.113429950059692j,
                         [(2.7870890565343673 + 8.453719800233012j, 1),
                          (0.5, -1)])
    assert 1 * d == d
    assert -(-d) == d
    assert (_hex_terms((2 * d).terms)
            == [(re, im, 2 * m) for re, im, m in _hex_terms(d.terms)])


def test_adding_keeps_the_point_bits_on_the_cell_edge():
    # d + e merges e's canonical terms into d's as they are: reduced once
    # more, the first point of d would move its last bit.
    d = Divisor.elliptic(-0.30322773586661467 + 2.113429950059692j,
                         [(2.7870890565343673 + 8.453719800233012j, 1),
                          (0.5, -1)])
    empty = Divisor(d.curve, [])
    e = Divisor(d.curve, [(0.3 + 0.4j, 1), (0.7 + 1.1j, -1)])
    for got in (d + empty, empty + d, d - empty, (d + e) - e, (d - e) + e):
        assert got == d
        assert _hex_terms(got.terms) == _hex_terms(d.terms)
    assert _hex_terms((d + e).terms) == _hex_terms(
        sorted(d.terms + e.terms, key=lambda t: (t[0].real, t[0].imag)))


def test_divisor_scale_is_an_int_as_a_multiplicity_is():
    # k * d takes what a multiplicity takes: any integral number but a bool.
    d = Divisor.sphere([(1 + 1j, 1), (2.0, -1)])
    assert d.__rmul__(np.int64(2)) == 2 * d
    for k in (True, False, 2.0):
        with pytest.raises(TypeError):
            k * d


def test_adding_and_subtracting_a_divisor_gives_it_back():
    # d + e merges e's canonical terms into d's without reducing a point
    # again, so (d + e) - e holds d's bits.
    rng = random.Random(0)
    for _ in range(2000):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.05, 3.0))
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(4)]
        d = Divisor.elliptic(tau, [(pts[0], 1), (pts[1], -1)])
        e = Divisor.elliptic(tau, [(pts[2], 1), (pts[3], -1)])
        if any(torus_distance(p, q, tau) < 1e-3
               for p in d.support() for q in e.support()):
            continue
        assert (d + e) - e == d


def test_pairing_rejects_nonzero_degree():
    z = Divisor.sphere([(0.0, 1)])
    w = Divisor.sphere([(2.0, 1), (3.0, -1)])
    with pytest.raises(HomologyError):
        linking_sphere(z, w)
    with pytest.raises(HomologyError):
        linking_sphere(w, z)


def test_pairing_rejects_overlap():
    z = Divisor.sphere([(0.0, 1), (1.0, -1)])
    w = Divisor.sphere([(1.0 + 1e-12, 1), (3.0, -1)])
    with pytest.raises(DisjointnessError):
        linking_sphere(z, w)
    zi = Divisor.sphere([(INFINITY, 1), (0.0, -1)])
    wi = Divisor.sphere([(INFINITY, 1), (5.0, -1)])
    with pytest.raises(DisjointnessError):
        linking_sphere(zi, wi)


def test_pairing_rejects_curve_mismatch():
    z = Divisor.elliptic(1j, [(0.2, 1), (0.4 + 0.4j, -1)])
    w = Divisor.elliptic(1.5j, [(0.2, 1), (0.4 + 0.4j, -1)])
    sph = Divisor.sphere([(0.0, 1), (1.0, -1)])
    with pytest.raises(CurveMismatchError):
        linking_elliptic(z, w)
    with pytest.raises(CurveMismatchError):
        linking(z, sph)
    with pytest.raises(CurveMismatchError):
        linking_elliptic(z, sph)
    with pytest.raises(CurveMismatchError):
        linking_sphere(z, z)


def test_multiplicities_beyond_double_range_are_domain_errors():
    # a * b of Python ints can leave double range: one typed error, not a
    # bare OverflowError, whether a term overflows on conversion, a term
    # becomes inf, or finite terms overflow in the sum
    huge = 10 ** 400
    z = Divisor.sphere([(0.0, 1), (1.0, -1)])
    w = Divisor.sphere([(2.0, huge), (3.0, -huge)])
    with pytest.raises(DomainError, match="double range"):
        linking_sphere(z, w)
    with pytest.raises(DomainError, match="double range"):
        linking(w, z)
    inf_term = Divisor.sphere([(1e200, 10 ** 306), (3.0, -10 ** 306)])
    with pytest.raises(DomainError, match="double range"):
        linking_sphere(z, inf_term)
    with pytest.raises(DomainError, match="double range"):
        importlib.import_module("holink.linking")._pairing_sum(
            [1e308, 1e308, -1e308])
    ze = Divisor.elliptic(1j, [(0.1 + 0.1j, 10 ** 200), (0.3 + 0.2j, -10 ** 200)])
    we = Divisor.elliptic(1j, [(0.6 + 0.5j, 10 ** 200), (0.7 + 0.8j, -10 ** 200)])
    with pytest.raises(DomainError, match="double range"):
        linking_elliptic(ze, we)
    with pytest.raises(DomainError, match="double range"):
        linking(we, ze)
    # large but representable multiplicities still pair bilinearly
    scaled = Divisor.sphere([(2.0, 10 ** 300), (3.0, -10 ** 300)])
    unit = Divisor.sphere([(2.0, 1), (3.0, -1)])
    assert linking_sphere(z, scaled).value == pytest.approx(
        1e300 * linking_sphere(z, unit).value, rel=1e-15)


# ------------------------------------------------------------------ sphere


def test_sphere_cross_ratio_closed_form():
    rng = np.random.default_rng(201)
    for _ in range(50):
        p, q, r, s = [complex(a, b) for a, b in rng.uniform(-2, 2, size=(4, 2))]
        if min(abs(p - q), abs(p - r), abs(p - s), abs(q - r), abs(q - s),
               abs(r - s)) < 1e-3:
            continue
        z = Divisor.sphere([(p, 1), (q, -1)])
        w = Divisor.sphere([(r, 1), (s, -1)])
        res = linking_sphere(z, w)
        assert res.method is LinkingMethod.CROSS_RATIO
        cross = ((r - p) * (s - q)) / ((r - q) * (s - p))
        assert abs(res.value - math.log(abs(cross)) / math.pi) < 1e-12
        # swap symmetry is exact, not merely close
        assert linking_sphere(w, z).value == res.value


def test_sphere_infinity_is_cross_ratio_limit():
    p, q, r = 0.3 + 0.1j, 1.7 - 0.4j, -0.8 + 0.9j
    z = Divisor.sphere([(p, 1), (q, -1)])
    w = Divisor.sphere([(r, 1), (INFINITY, -1)])
    got = linking_sphere(z, w).value
    want = math.log(abs((r - p) / (r - q))) / math.pi
    assert abs(got - want) < 1e-15
    # and against a far-away proxy for infinity
    far = Divisor.sphere([(r, 1), (1e8 + 1e8j, -1)])
    assert abs(linking_sphere(z, far).value - want) < 1e-6


def test_sphere_bilinearity():
    rng = np.random.default_rng(202)
    for _ in range(25):
        pts = [complex(a, b) for a, b in rng.uniform(-2, 2, size=(6, 2))]
        if min(abs(u - v) for i, u in enumerate(pts) for v in pts[i + 1:]) < 1e-3:
            continue
        z1 = Divisor.sphere([(pts[0], 1), (pts[1], -1)])
        z2 = Divisor.sphere([(pts[2], 1), (pts[3], -1)])
        w = Divisor.sphere([(pts[4], 1), (pts[5], -1)])
        lhs = linking_sphere(z1 + z2, w).value
        rhs = linking_sphere(z1, w).value + linking_sphere(z2, w).value
        assert abs(lhs - rhs) < 1e-12


# ------------------------------------------------------------ green kernel


def test_green_kernel_periodic_and_pole():
    rng = np.random.default_rng(203)
    for _ in range(20):
        tau = _random_tau(rng)
        u = complex(rng.uniform(0.1, 0.9), 0) + rng.uniform(0.1, 0.9) * tau
        g = arakelov_green(u, tau)
        assert abs(arakelov_green(u + 1, tau) - g) < 1e-12
        assert abs(arakelov_green(u + tau, tau) - g) < 1e-12
        assert abs(arakelov_green(-u, tau) - g) < 1e-12  # even kernel
    with pytest.raises(PoleError):
        arakelov_green(0.0, 1j)
    with pytest.raises(PoleError):
        arakelov_green(3 + 2j, 1j)


def test_green_kernel_and_p_reduce_once(monkeypatch):
    # ``holink.linking`` names the function, so fetch the module itself.
    modules = [importlib.import_module(f"holink.{name}")
               for name in ("linking", "special_functions")]
    reduce = modules[1].reduce_mod_lattice
    calls = []

    def counting(z, tau):
        calls.append(z)
        return reduce(z, tau)

    for mod in modules:
        monkeypatch.setattr(mod, "reduce_mod_lattice", counting)
    tau = TauParameter(0.3 + 1.1j)
    arakelov_green(0.4 + 0.3j, tau)
    assert len(calls) == 1
    calls.clear()
    weierstrass_p(0.4 + 0.3j, tau)
    assert len(calls) == 1


@pytest.mark.parametrize("x, y, tau", [
    (5e-12, 5e-12, -1 + 0.1j),                # near the corner 0
    (1 - 5e-12, 1 - 5e-12, -1 + 0.1j),        # near 1 + tau
    (-5e-12, 5e-12, 1 + 0.1j),                # near 1
    (5e-12, 1 - 5e-12, 1 + 0.1j),             # near tau
])
def test_pole_detected_at_every_cell_corner(x, y, tau):
    # The lattice coordinates sit 5e-12 off the corner, yet the point lies
    # about 5e-13 from the lattice.
    u = x + y * tau
    assert torus_distance(u, 0.0, tau) < 1e-12
    with pytest.raises(PoleError):
        arakelov_green(u, tau)
    with pytest.raises(PoleError):
        weierstrass_p(u, tau)


def test_green_kernel_far_up_the_cusp_is_exact():
    # theta1(1/2, tau) ~ 2|q|^(1/4) underflows to 0 at Im tau = 950; the
    # kernel's F is X - 1 with X = exp(2*pi*i * 1/2), |F| = 2 exactly, and
    # (Im tau / 2)^2 / Im tau = 237.5 exactly.
    assert arakelov_green(0.5, 0.3 + 950j) == math.log(2) / math.pi - 237.5


# -------------------------------------------------------- elliptic pairing


def _half_period_closed_form(tau):
    """(1/2pi) log(|p((1+tau)/2) - p(1/2)| / |p(tau/2) - p(1/2)|): the
    pairing of [0] - [1/2] with [tau/2] - [(1+tau)/2] by the p-function."""
    hp = half_period_values(tau)
    return math.log(abs(hp.e3 - hp.e1) / abs(hp.e2 - hp.e1)) / (2 * math.pi)


def test_half_period_configuration_closed_form():
    tau = 1j
    z = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
    w = Divisor.elliptic(tau, [(tau / 2, 1), ((1 + tau) / 2, -1)])
    res = linking_elliptic(z, w)
    assert res.method is LinkingMethod.ARAKELOV_GREEN
    assert abs(res.value - _half_period_closed_form(tau)) < 1e-12
    assert abs(res.value - LINK_AT_I) < 1e-13
    # swap and sign flips
    assert linking_elliptic(w, z).value == res.value
    assert abs(linking_elliptic(-z, w).value + res.value) < 1e-15
    flipped = linking_elliptic(-z, w)
    assert abs(flipped.value + _half_period_closed_form(tau)) < 1e-12


def test_half_period_dual_route_random_tau():
    rng = np.random.default_rng(204)
    for _ in range(50):
        tau = _random_tau(rng)
        z = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
        w = Divisor.elliptic(tau, [(tau / 2, 1), ((1 + tau) / 2, -1)])
        res = linking_elliptic(z, w)
        assert abs(res.value - _half_period_closed_form(tau)) < 1e-8


def test_half_period_closed_form_underflow_is_divergence():
    # Near the Im tau floor |1 - lambda| = |theta4/theta3|^4 rounds to 0, so
    # the closed form raises; the Green-kernel route still sums correctly.
    tau = -0.018 + 0.059j
    with pytest.raises(DivergenceError):
        massey_report(tau)
    # (4/pi) log|1 - lambda(tau)| from mpmath at 40 digits
    # (bench/checks.py, ref_massey).
    ref = -58.493483485599626
    assert abs(massey_value_via_linking(tau) - ref) < 1e-11 * abs(ref)


def test_pairing_is_covariant_under_s_and_t():
    # <Z, W>_tau = <Z/tau, W/tau>_{-1/tau}: u -> u/tau maps Z + Z*tau onto
    # Z + Z*(-1/tau), and the kernels differ by a constant, which cancels
    # in degree-zero sums; tau + 1 spans the same lattice.  Over these 150
    # draws the worst residuals were 4.7e-15 (S) and 1.2e-15 (T).
    rng = np.random.default_rng(231)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    draws = 0
    while draws < 150:
        tau = complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
        if (-1 / tau).imag < 0.05:
            continue
        z, w = _pair(rng, tau, (2, 4, 8)[draws % 3])
        draws += 1
        v = linking_elliptic(z, w).value
        bound = 1e-13 * max(1.0, abs(v))
        s = linking_elliptic(
            Divisor.elliptic(-1 / tau, [(p / tau, m) for p, m in z.terms]),
            Divisor.elliptic(-1 / tau, [(p / tau, m) for p, m in w.terms]))
        assert abs(s.value - v) <= bound, tau
        t = linking_elliptic(Divisor.elliptic(tau + 1, z.terms),
                             Divisor.elliptic(tau + 1, w.terms))
        assert abs(t.value - v) <= bound, tau


#: Lattice coordinates (x, y, multiplicity) of two 8-point divisors, points
#: x + y*tau; four z-w pairs lie within 5e-4 of one level y, so their
#: log|F| terms count at the cusp too.
_CUSP_Z = [(0.1, 0.05, 1), (0.6, 0.93, -1), (0.35, 0.5, 1), (0.8, 0.2, -1),
           (0.05, 0.71, 1), (0.45, 0.12, -1), (0.7, 0.44, 1), (0.25, 0.86, -1)]
_CUSP_W = [(0.3, 0.62, 1), (0.85, 0.5002, -1), (0.55, 0.7099, 1),
           (0.15, 0.33, -1), (0.95, 0.0503, 1), (0.4, 0.27, -1),
           (0.65, 0.78, 1), (0.2, 0.1195, -1)]


@pytest.mark.parametrize("tau, ref", [
    # mpmath at 60 digits (jtheta at each difference reduced to
    # |Im u| <= Im tau / 2): -44.1032196989431173827037062193
    (0.3 + 400j, -44.10321969894312),
    # -99.1662041270612995485592243074
    (-0.6 + 900j, -99.1662041270613),
])
def test_pairing_at_the_cusp(tau, ref):
    # theta1's series leaves double range at some of these differences and
    # underflows at others; the kernel's terms are at most 1, in the
    # pairing and in arakelov_green at each oriented difference alike.
    z = Divisor.elliptic(tau, [(x + y * tau, m) for x, y, m in _CUSP_Z])
    w = Divisor.elliptic(tau, [(x + y * tau, m) for x, y, m in _CUSP_W])
    assert abs(linking_elliptic(z, w).value - ref) <= 1e-14 * abs(ref)
    per_pair = math.fsum(a * b * arakelov_green(_oriented(p, q), tau)
                         for p, a in z.terms for q, b in w.terms)
    assert abs(per_pair - ref) <= 1e-14 * abs(ref)


def test_massey_report_far_up_the_cusp():
    # The value is -1.4e-1227, which underflows: 0.0 on both routes.
    rep = massey_report(0.3 + 900j)
    assert rep.value_closed_form == 0.0
    assert rep.value_via_linking == 0.0


def test_multi_point_swap_symmetry_bitwise():
    rng = np.random.default_rng(215)
    mults_z = [3, -1, 2, -2, 1, -4, 2, -1]
    mults_w = [1, 1, -2, 3, -1, -1, 2, -3]
    for _ in range(10):
        tau = _random_tau(rng)
        while True:
            pts = [complex(rng.uniform(0, 1), 0) + rng.uniform(0, 1) * tau
                   for _ in range(16)]
            if all(torus_distance(p, q, tau) > 1e-3
                   for i, p in enumerate(pts) for q in pts[i + 1:]):
                break
        z = Divisor.elliptic(tau, list(zip(pts[:8], mults_z)))
        w = Divisor.elliptic(tau, list(zip(pts[8:], mults_w)))
        assert len(z.terms) == len(w.terms) == 8
        assert linking(z, w).value == linking(w, z).value

        pts = [complex(a, b) for a, b in rng.uniform(-3.0, 3.0, size=(15, 2))]
        z = Divisor.sphere(list(zip([INFINITY] + pts[:7], mults_z)))
        w = Divisor.sphere(list(zip(pts[7:], mults_w)))
        assert len(z.terms) == len(w.terms) == 8
        assert linking(z, w).value == linking(w, z).value


def test_generic_configuration_reports_green_method():
    rng = np.random.default_rng(205)
    z, w = _pair(rng, 0.2 + 1.1j)
    res = linking_elliptic(z, w)
    assert res.method is LinkingMethod.ARAKELOV_GREEN
    assert linking_elliptic(w, z).value == res.value


def test_elliptic_bilinearity_and_translation():
    rng = np.random.default_rng(206)
    for _ in range(20):
        tau = _random_tau(rng)
        z1, w = _pair(rng, tau)
        z2, _ = _pair(rng, tau)
        if any(torus_distance(p, q, tau) < 1e-3
               for p in z2.support() for q in list(w.support()) + list(z1.support())):
            continue
        lhs = linking_elliptic(z1 + z2, w).value
        rhs = linking_elliptic(z1, w).value + linking_elliptic(z2, w).value
        assert abs(lhs - rhs) < 1e-12
        c = complex(rng.uniform(0, 1), 0) + rng.uniform(0, 1) * tau
        zt = Divisor.elliptic(tau, [(p + c, m) for p, m in z1.terms])
        wt = Divisor.elliptic(tau, [(p + c, m) for p, m in w.terms])
        assert abs(linking_elliptic(zt, wt).value
                   - linking_elliptic(z1, w).value) < 1e-10


def test_green_hook_flexibility():
    # adding a constant, or an oscillation against which one divisor has no
    # Fourier moment, must not move the pairing
    rng = np.random.default_rng(207)
    tau = 0.2 + 1.1j
    v0 = 0.11 + 0.23j
    z = Divisor.elliptic(tau, [(v0, 1), (v0 + 0.5, 1),
                               (v0 + 0.25, -1), (v0 + 0.75, -1)])
    w = Divisor.elliptic(tau, [(0.61 + 0.37j, 1), (0.13 + 0.81j, -1)])
    base = linking_elliptic(z, w).value
    shifted = _kernel_pairing(z, w, lambda u, t: arakelov_green(u, t) + 3.7)
    assert abs(shifted - base) < 1e-12
    eps = 1e-3

    def wobbled(u, t):
        return arakelov_green(u, t) + eps * math.cos(2 * math.pi * u.real)

    assert abs(_kernel_pairing(z, w, wobbled) - base) < 1e-10
    # sanity: against a generic first divisor the same wobble does move it
    zg = Divisor.elliptic(tau, [(0.1 + 0.2j, 1), (0.35 + 0.55j, -1)])
    gen_base = linking_elliptic(zg, w).value
    assert abs(_kernel_pairing(zg, w, wobbled) - gen_base) > 1e-5


def test_custom_green_disables_closed_form_route():
    # a custom kernel is summed as given on the half-period pair too: a
    # constant cancels, a scaled kernel scales the value
    tau = 1j
    z = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
    w = Divisor.elliptic(tau, [(tau / 2, 1), ((1 + tau) / 2, -1)])
    shifted = _kernel_pairing(z, w, lambda u, t: arakelov_green(u, t) + 1.0)
    assert abs(shifted - LINK_AT_I) < 1e-12  # constant cancels anyway
    doubled = _kernel_pairing(z, w, lambda u, t: 2 * arakelov_green(u, t))
    assert abs(doubled - 2 * LINK_AT_I) < 1e-12


def _theta_green(u, tau):
    """g_tau(u) from theta1's definition by the public ``theta``: the
    independent reference for the pairing's folded kernel."""
    ur = reduce_mod_lattice(u, tau)
    im_tau = tau.value.imag if isinstance(tau, TauParameter) else tau.imag
    return (math.log(abs(theta(1, ur, tau))) / math.pi
            - ur.imag ** 2 / im_tau)


def _per_pair_bound(tau, v):
    """How far a sum of the folded kernel may lie from the per-pair
    ``_theta_green`` sum v: 1e-13 * max(1, |v|) from Im tau 0.3 on,
    1e-11 * max(1, |v|) below, where theta1's series runs at |q| up to
    0.855."""
    return (1e-13 if tau.imag >= 0.3 else 1e-11) * max(1.0, abs(v))


def test_kernel_pairing_with_the_green_kernel_is_linking_bitwise():
    # verify's altered-kernel sums start from the per-pair arakelov_green
    # sum, which swapping z and w leaves bit for bit, and which is
    # linking_elliptic's value, and theta1's, to within the bound.
    rng = np.random.default_rng(221)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    for im_range in ((im_lo, im_hi), (0.05, 0.3)):
        for _ in range(10):
            tau = complex(rng.uniform(re_lo, re_hi), rng.uniform(*im_range))
            for k in (2, 4):
                z, w = _pair(rng, tau, k)
                ref = _kernel_pairing(z, w, _theta_green)
                got = _kernel_pairing(z, w, arakelov_green)
                for v in (got, linking_elliptic(z, w).value):
                    assert abs(v - ref) <= _per_pair_bound(tau, ref), tau
                assert _kernel_pairing(w, z, arakelov_green).hex() == got.hex()
                assert _kernel_pairing(w, z, _theta_green).hex() == ref.hex()


def _oriented(p, q):
    return p - q if (p.real, p.imag) <= (q.real, q.imag) else q - p


def test_linking_equals_sum_of_scalar_kernels_bitwise():
    # The folded kernel against the reference: the fsum of g from theta1's
    # series, one per oriented difference.  On these draws the largest gaps
    # were 1.2e-15 (Im tau >= 0.3) and 2.3e-13 (Im tau in [0.05, 0.3))
    # relative to max(1, |v|).
    rng = np.random.default_rng(218)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    for im_range in ((im_lo, im_hi), (0.05, 0.3)):
        for _ in range(10):
            tau = complex(rng.uniform(re_lo, re_hi), rng.uniform(*im_range))
            for k in (2, 4, 8):
                z, w = _pair(rng, tau, k)
                expected = math.fsum(a * b * _theta_green(_oriented(p, q), tau)
                                     for p, a in z.terms for q, b in w.terms)
                assert (abs(linking_elliptic(z, w).value - expected)
                        <= _per_pair_bound(tau, expected)), tau


def test_disjointness_is_checked_before_any_kernel():
    # Each pair is measured before its own term: the first pair, (0.25, 0),
    # is clear, the second collides, and DisjointnessError names it.
    tau = 0.3 + 950j
    z = Divisor.elliptic(tau, [(0.5, 1), (0.25, -1)])
    w = Divisor.elliptic(tau, [(0.0, 1), (0.25 + 1e-10, -1)])
    with pytest.raises(DisjointnessError,
                       match=re.escape("supports collide near (0.25+0j) "
                                       "(distance 1.000e-10)")):
        linking_elliptic(z, w)


@pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.3 + 950j])
def test_shared_point_after_cleared_pairs_is_disjointness(tau):
    # Three pairs are cleared and form their terms; the last shares its
    # point exactly, and raises before log(0) could.
    z = Divisor.elliptic(tau, [(0.25, -1), (0.5, 1)])
    w = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
    with pytest.raises(DisjointnessError,
                       match=re.escape("supports collide near (0.5+0j) "
                                       "(distance 0.000e+00)")):
        linking_elliptic(z, w)


@pytest.mark.parametrize("curve", [Curve.sphere(), Curve.elliptic(0.3 + 1.1j)])
def test_collision_outranks_an_earlier_product_overflow(curve):
    # The first pair's multiplicity product, 10^400, leaves double range;
    # the last pair shares its point exactly.  Both curves report the
    # collision: the elliptic pass makes the overflowed term inf and goes
    # on, as the sphere clears every pair before any term.
    m = 10 ** 200
    z = Divisor(curve, [(0.1 + 0.2j, m), (0.6 + 0.5j, -m)])
    w = Divisor(curve, [(0.35 + 0.9j, m), (0.6 + 0.5j, -m)])
    with pytest.raises(DisjointnessError, match="supports collide"):
        linking(z, w)
    with pytest.raises(DomainError, match="double range"):
        linking(z, Divisor(curve, [(0.35 + 0.9j, m), (0.65 + 0.55j, -m)]))


def test_linking_reduces_each_pair_once(monkeypatch):
    # The screen clears each pair whose imaginary parts differ by more than
    # the disjointness margin; the one pair here that shares its imaginary
    # part is reduced once, to be cleared, and the kernel's one pass gives
    # each of the 16 pairs one term.
    tau = 0.3 + 1.1j
    z = Divisor.elliptic(tau, [(0.1 + 0.3j, 1), (0.4 + 0.7j, -1),
                               (0.35 + 0.5j, 1), (0.8 + 0.95j, -1)])
    w = Divisor.elliptic(tau, [(0.6 + 0.3j, 1), (0.5 + 0.2j, -1),
                               (0.9 + 0.6j, 1), (0.45 + 0.85j, -1)])
    modules = [importlib.import_module(f"holink.{name}")
               for name in ("linking", "special_functions")]
    reduce = modules[1]._reduce_point
    greens = modules[0]._pair_greens
    calls, terms = [], []

    def counting(z, tv):
        calls.append(z)
        return reduce(z, tv)

    def counting_greens(t, z_terms, w_terms, clear=True):
        for term in greens(t, z_terms, w_terms, clear):
            terms.append(term)
            yield term

    for mod in modules:
        monkeypatch.setattr(mod, "_reduce_point", counting)
    monkeypatch.setattr(modules[0], "_pair_greens", counting_greens)
    linking_elliptic(z, w)
    assert calls == [-0.5 + 0j]
    assert len(terms) == 4 * 4


def test_linking_bits_are_pinned():
    # The float.hex of seeded pairings, in both orders, hashed: k = 2, 4, 8
    # points at taus of TAU_BOX, of the floor band and at Im tau = 400, four
    # points on shared lines, and the half-period configuration of
    # massey_value_via_linking.  A change to the kernel's arithmetic or to
    # the pair's orientation moves it.
    rng = np.random.default_rng(2929)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    hexes = []
    for im_range in ((im_lo, im_hi), (0.05, 0.3), (400.0, 400.0)):
        for _ in range(4):
            tau = complex(rng.uniform(re_lo, re_hi), rng.uniform(*im_range))
            pairs = [_pair(rng, tau, k) for k in (2, 4, 8)]
            pairs.append(_pair_on_shared_lines(rng, tau, 4))
            tv = TauParameter(tau).shifted
            pairs.append((Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)]),
                          Divisor.elliptic(tau, [(tv / 2.0, 1),
                                                 ((1.0 + tv) / 2.0, -1)])))
            for z, w in pairs:
                hexes += [linking_elliptic(z, w).value.hex(),
                          linking_elliptic(w, z).value.hex()]
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
    assert digest == ("4fbf85375ca5b8b41bb1d84b9d664989"
                      "cbb6e8a93b1ee162018caf6ea778164c")


# -------------------------------------------------------------- catalog maps


def test_map_catalog_validation():
    sq = RationalMapSpec.power(2)
    tr = RationalMapSpec.translation(0.3 + 0.1j)
    ell = Divisor.elliptic(1j, [(0.2, 1), (0.3 + 0.4j, -1)])
    sph = Divisor.sphere([(1.0, 1), (2.0, -1)])
    with pytest.raises(CapabilityError):
        pushforward(ell, sq)
    with pytest.raises(CapabilityError):
        pushforward(sph, tr)
    with pytest.raises(CapabilityError):
        pushforward(sph, RationalMapSpec.power(5))
    with pytest.raises(CapabilityError):
        pushforward(sph, RationalMapSpec("rational"))
    # catalog membership is decided when the spec is built
    for bad in (lambda: RationalMapSpec.power(5),
                lambda: RationalMapSpec.power(2.0),
                lambda: RationalMapSpec.power(True),
                lambda: RationalMapSpec("translation"),
                lambda: RationalMapSpec("translation", offset="abc")):
        with pytest.raises(CapabilityError):
            bad()
    with pytest.raises(CapabilityError,
                       match=r"^power maps are supported for exponents 2 and 3 only, got 2\.0$"):
        RationalMapSpec.power(2.0)
    assert RationalMapSpec.power(np.int64(3)).exponent == 3
    assert type(RationalMapSpec.power(np.int64(3)).exponent) is int
    assert pushforward(sph, RationalMapSpec.identity()) == sph
    assert pullback(ell, RationalMapSpec.identity()) == ell


def test_power_map_push_and_pull():
    sq = RationalMapSpec.power(2)
    d = Divisor.sphere([(1 + 1j, 1), (2.0, -1)])
    fwd = pushforward(d, sq)
    assert fwd.terms == ((2j, 1), (4 + 0j, -1))
    back = pullback(fwd, sq)
    assert back.degree() == 0
    assert len(back.terms) == 4
    for p, _ in d.terms:
        assert any(abs(r - p) < 1e-12 for r, _ in back.terms)
    # infinity maps to itself forward, branches backward
    inf_d = Divisor.sphere([(INFINITY, 1), (1.0, -1)])
    assert pushforward(inf_d, sq).terms[-1][0] is INFINITY
    with pytest.raises(BranchError):
        pullback(inf_d, sq)
    with pytest.raises(BranchError):
        pullback(Divisor.sphere([(0.0, 1), (1.0, -1)]), sq)


def test_cube_map_roots():
    cb = RationalMapSpec.power(3)
    d = Divisor.sphere([(8.0, 3), (1 + 0j, -3)])
    back = pullback(d, cb)
    assert back.degree() == 0
    assert any(abs(p - 2.0) < 1e-12 for p, _ in back.terms)
    # every preimage point cubes back onto its target with the right sign
    for p, m in back.terms:
        target = 8.0 if m > 0 else 1.0
        assert abs(p ** 3 - target) < 1e-10
    # f_* f^* scales by deg f = 3
    again = pushforward(back, cb)
    assert sum(m for _, m in again.terms if m > 0) == 9


@pytest.mark.parametrize("point", [1e200, 1e160 + 1e160j])
@pytest.mark.parametrize("n", [2, 3])
def test_power_beyond_double_range_names_the_point(point, n):
    # p^n overflows at 1e200 and is NaN at 1e160 + 1e160i: either way a
    # DomainError names the point given, from pushforward and the adjunction
    spec = RationalMapSpec.power(n)
    z = Divisor.sphere([(point, 1), (1, -1)])
    w = Divisor.sphere([(2, 1), (3, -1)])
    text = re.escape(repr(complex(point)))
    with pytest.raises(DomainError, match=text):
        pushforward(z, spec)
    with pytest.raises(DomainError, match=text):
        check_adjunction(spec, z, w)
    # the largest images in range are kept
    assert pushforward(Divisor.sphere([(1e100, 1), (1, -1)]), spec).terms[-1] == (
        complex(1e100) ** n, 1)


def test_translation_on_elliptic():
    tau = 0.4 + 0.9j
    tr = RationalMapSpec.translation(0.25 + 0.1j)
    d = Divisor.elliptic(tau, [(0.1, 1), (0.5 + 0.3j, -1)])
    back = pullback(pushforward(d, tr), tr)
    assert [m for _, m in back.terms] == [m for _, m in d.terms]
    for (p, _), (q, _) in zip(back.terms, d.terms):
        assert torus_distance(p, q, tau) < 1e-12


@pytest.mark.parametrize("offset", [True, False])
def test_translation_rejects_a_bool_offset(offset):
    # a bool converts to a complex, but it is not a numeric offset
    with pytest.raises(CapabilityError,
                       match=rf"^translation map needs a numeric offset, got {offset}$"):
        RationalMapSpec.translation(offset)


@pytest.mark.parametrize("offset", [
    math.inf, complex(0.25, -math.inf), complex(math.nan, 0.1),
    # complex(offset) overflows: DomainError, not a bare OverflowError
    pytest.param(10 ** 400, id="10**400"), pytest.param(-10 ** 400, id="-10**400"),
    pytest.param(fractions.Fraction(10 ** 400, 3), id="10**400/3")])
def test_translation_rejects_a_non_finite_offset(offset):
    # when the map is built, naming the offset, not later at a translated point
    with pytest.raises(DomainError,
                       match=r"^translation offset must be finite, got \(.*(inf|nan).*\)$"):
        RationalMapSpec.translation(offset)


def test_adjunction_square_map():
    rng = np.random.default_rng(208)
    spec = RationalMapSpec.power(2)
    count = 0
    while count < 50:
        pts = [complex(a, b) for a, b in rng.uniform(0.3, 2.0, size=(4, 2))]
        if min(abs(u - v) for i, u in enumerate(pts) for v in pts[i + 1:]) < 1e-2:
            continue
        z = Divisor.sphere([(pts[0], 1), (pts[1], -1)])
        w = Divisor.sphere([(pts[2], 1), (pts[3], -1)])
        try:
            chk = check_adjunction(spec, z, w)
        except (DisjointnessError, BranchError):
            continue
        assert chk.residual < 1e-10
        assert abs(chk.lhs - chk.rhs) == chk.residual
        count += 1


def test_adjunction_needs_shared_curve():
    z = Divisor.sphere([(1.0, 1), (2.0, -1)])
    w = Divisor.elliptic(1j, [(0.2, 1), (0.4, -1)])
    with pytest.raises(CurveMismatchError):
        check_adjunction(RationalMapSpec.power(2), z, w)


def test_curve_constructors():
    assert Curve.sphere().kind == "sphere"
    assert Curve.elliptic(1j).tau.value == 1j
    with pytest.raises(ValueError):
        Curve("mystery")
    with pytest.raises(ValueError, match="^elliptic curve needs a tau parameter$"):
        Curve("elliptic")
    with pytest.raises(ValueError, match="^the sphere carries no tau parameter$"):
        Curve("sphere", 1j)
    with pytest.raises(DomainError):
        Curve.elliptic(1.0 - 2j)
    with pytest.raises(DomainError):
        Curve("elliptic", -1j)
    assert Curve("elliptic", 1j) == Curve.elliptic(TauParameter(1j))
    assert repr(Curve("elliptic", 1j)) == "Curve.elliptic(1j)"
