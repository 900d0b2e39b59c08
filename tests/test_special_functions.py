"""Theta series, half periods, the lattice-sum oracle, and modular lambda."""

import cmath
import functools
import hashlib
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from holink import (
    ConvergenceError,
    Divisor,
    DomainError,
    PoleError,
    TauParameter,
    arakelov_green,
    half_period_values,
    lambda_complement_ratio,
    lattice_sum_p,
    linking_elliptic,
    massey_report,
    modular_lambda,
    reduce_mod_lattice,
    theta,
    torus_distance,
    weierstrass_p,
)
from holink import special_functions
from holink.special_functions import (
    _grid_lambdas,
    _theta_series,
)
from holink.verify import TAU_BOX

# Golden values, frozen from independent derivations:
#   theta3(0, i) = pi^(1/4) / Gamma(3/4)    (classical closed form)
#   e1(i)        = (lemniscate constant)^2  (square lattice)
#   lambda(2i)   = (sqrt(2) - 1)^4
THETA3_AT_I = 1.086434811213308
E1_AT_I = 6.8751858180203758
LAMBDA_2I = (math.sqrt(2.0) - 1.0) ** 4


def _random_tau(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))


def test_tau_parameter_validation():
    TauParameter(0.3 + 0.7j)  # fine
    for bad in (1.0 + 0j, 2.0 - 1j, 0.5 + 0.04j, complex("inf"), complex("nan")):
        with pytest.raises(DomainError):
            TauParameter(bad)


def test_as_tau_shares_one_tau_parameter_per_bits():
    as_tau = special_functions.as_tau
    tau = 0.3 + 1.1j
    assert as_tau(tau) is as_tau(complex("0.3+1.1j"))
    t = as_tau(tau)
    assert as_tau(t) is t
    # 0.0 and -0.0 compare equal, but their bits differ: two TauParameters,
    # each keeping its own sign of zero
    neg, pos = as_tau(complex(-0.0, 1.0)), as_tau(complex(0.0, 1.0))
    assert neg is not pos
    assert math.copysign(1.0, neg.value.real) == -1.0
    assert math.copysign(1.0, pos.value.real) == 1.0
    assert as_tau(complex(-0.0, 1.0)) is neg


def test_as_tau_keeps_no_failure(monkeypatch):
    built = []
    validate = TauParameter.__post_init__

    def counting(self):
        built.append(self.value)
        validate(self)

    monkeypatch.setattr(TauParameter, "__post_init__", counting)
    for _ in range(3):
        with pytest.raises(DomainError, match="below the supported floor"):
            special_functions.as_tau(0.3 + 0.01j)
    assert built == [0.3 + 0.01j] * 3


def test_as_tau_store_is_bounded():
    # After the bound plus one distinct taus the least recent one is gone,
    # and the next call builds it again.
    as_tau = special_functions.as_tau
    bound = special_functions._shared_tau.cache_info().maxsize
    first = as_tau(0.1 + 2.5j)
    for k in range(bound):
        as_tau(complex(0.1, 3.0 + k / 1024))
    assert special_functions._shared_tau.cache_info().currsize == bound
    again = as_tau(0.1 + 2.5j)
    assert again is not first and again == first


def test_bare_tau_builds_green_terms_once(monkeypatch):
    # arakelov_green and weierstrass_p at one bare tau share its table.
    built = []
    build = TauParameter.__dict__["_green_terms"].func

    def counting(self):
        built.append(self.value)
        return build(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(TauParameter, "_green_terms")
    monkeypatch.setattr(TauParameter, "_green_terms", prop)
    special_functions._shared_tau.cache_clear()
    tau = 0.3 + 1.1j
    for _ in range(100):
        arakelov_green(0.2 + 0.3j, tau)
        weierstrass_p(0.2 + 0.3j, tau)
    assert built == [tau]


# theta(kind, z, tau) as (float.hex(real), float.hex(imag)), frozen from the
# two-loop series this package shipped before its loops were merged.
THETA_FROZEN = {
    (0.3 + 0.1j, 1j): (
        ("0x1.8c1c035009071p-1", "0x1.6229edf0dd040p-3"),
        ("0x1.1edaa6d0734afp-1", "-0x1.e3ab467855d6ap-3"),
        ("0x1.ef87eff4ac86fp-1", "-0x1.c36cf30b4fec3p-5"),
        ("0x1.083aa0749a18cp+0", "0x1.c388b5e857767p-5"),
    ),
    (-0.2 + 0.35j, 0.4 + 0.8j): (
        ("-0x1.721e58a3f9100p+0", "0x1.8ba31cbe91a3ap-1"),
        ("0x1.1c5444a2a427bp+0", "0x1.257b68dd6b29bp+0"),
        ("0x1.ad374db9e22b6p-2", "0x1.bb087332bcd33p-2"),
        ("0x1.953fe5dd570fbp+0", "-0x1.b436df146ccabp-2"),
    ),
    (0.71 - 0.05j, -0.6 + 1.9j): (
        ("0x1.5c7141f014350p-2", "-0x1.fe4ed65b22dd1p-4"),
        ("-0x1.c9189627db807p-3", "0x1.69bc2c4d8dc82p-3"),
        ("0x1.ff70e694a0f4cp-1", "0x1.ccf2525f56eb6p-10"),
        ("0x1.00478cb5abfbcp+0", "-0x1.ccf24f220414cp-10"),
    ),
}


def test_theta_frozen_values_bitwise():
    for (z, tau), by_kind in THETA_FROZEN.items():
        for kind, (re_hex, im_hex) in enumerate(by_kind, start=1):
            val = theta(kind, z, tau)
            assert (val.real.hex(), val.imag.hex()) == (re_hex, im_hex), (kind, z, tau)


def _hex(value):
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def test_theta_term_cap_is_convergence_error():
    # At tau = 0.3+900i, z = tau/2 the first term of theta1 passes exp's cap.
    tau = 0.3 + 900j
    with pytest.raises(ConvergenceError, match="exceeds double range"):
        theta(1, tau / 2, tau)


def test_theta_far_up_the_imaginary_axis_decides_without_overflow():
    # At Im tau = 1e308, pi*Im(tau)*a^2 and 2*pi*a*|Im z| are near double
    # range.  A largest term beyond exp's cap raises; a negligible one is
    # not summed; z = tau/2 and tau/4 are where a term is exp(0), exactly 1.
    tau = 1e308j
    for kind, z in ((3, 6e307j), (3, 9e307j), (1, 6e307j), (2, 3e307j)):
        with pytest.raises(ConvergenceError, match="exceeds double range"):
            theta(kind, z, tau)
    assert theta(3, 3e307j, tau) == 1 + 0j
    assert theta(3, tau / 2, tau) == 2 + 0j
    assert theta(4, tau / 2, tau) == 0j
    assert theta(1, tau / 4, tau) == 1j


def test_theta_term_count_is_bounded_by_the_exp_cap(monkeypatch):
    # The term count grows with |Im z| / Im tau up to the cap edge, the
    # largest |Im z| at which no term passes exp(_EXP_CAP).  Up to just
    # under it every kind sums at most 140 paired terms (136 at most, at
    # the floor); just past it theta raises.
    calls = []
    paired = special_functions._paired_term

    def counting(*args):
        calls.append(None)
        return paired(*args)

    monkeypatch.setattr(special_functions, "_paired_term", counting)
    cap = special_functions._EXP_CAP
    for im_tau in (0.05, 0.3, 3.0):
        tau = 0.2 + 1j * im_tau
        for kind in (1, 2, 3, 4):
            exponents = ([n + 0.5 for n in range(500)] if kind in (1, 2)
                         else range(1, 500))
            edge = min((cap + math.pi * im_tau * a * a) / (2.0 * math.pi * a)
                       for a in exponents)
            ys = np.linspace(0.0, edge * (1.0 - 1e-9), 25)
            zs = np.concatenate([0.3 + 1j * ys, -0.3 - 1j * ys])
            for z in zs.tolist():
                calls.clear()
                theta(kind, z, tau)
                assert 0 < len(calls) <= 140, (kind, z, tau)
            past = complex(0.3, edge * (1.0 + 1e-9))
            with pytest.raises(ConvergenceError, match="exceeds double range"):
                theta(kind, past, tau)


def test_scalar_and_array_paths_sum_one_count(monkeypatch):
    # One rule, from Im tau and |Im z| alone, fixes each series' count: the
    # series at a scalar point sums exactly ``_term_range``'s paired terms,
    # over seeded Im tau from the floor to 1e300 and |Im z| up to 0.99 of
    # the cap edge's, z = 0 among them.
    calls = []
    paired = special_functions._paired_term

    def counting(*args):
        calls.append(None)
        return paired(*args)

    monkeypatch.setattr(special_functions, "_paired_term", counting)
    series = _theta_series
    rng = np.random.default_rng(19)
    ims = np.exp(rng.uniform(math.log(0.05), math.log(1e300), 200))
    edge_r = np.sqrt(special_functions._EXP_CAP / (math.pi * ims))
    rs = rng.uniform(0.0, 0.99, 200) * edge_r
    rs[:20] = 0.0
    taus = rng.uniform(-1.0, 1.0, 200) + 1j * ims
    zs = rng.uniform(-0.5, 0.5, 200) + 1j * rs * ims * rng.choice([-1, 1], 200)
    for kind in (1, 2, 3, 4):
        for z, tau in zip(zs.tolist(), taus.tolist()):
            want = len(special_functions._term_range(kind in (1, 2), tau.imag,
                                                     abs(z.imag)))
            calls.clear()
            series(kind, z, tau)
            assert len(calls) == want, (kind, z, tau)


def test_green_terms_follow_the_rule_at_z_zero():
    # The Green kernel's table holds n = 0 and theta3's terms at z = 0:
    # each kept |d_n| = exp(-pi Im(tau) n^2) is at least EPS_SERIES / 4 and
    # the first one left out is below it.
    eps = special_functions.EPS_SERIES
    rng = np.random.default_rng(20)
    for im in np.exp(rng.uniform(math.log(0.05), math.log(40.0), 300)).tolist():
        t = TauParameter(complex(rng.uniform(-1.0, 1.0), im))
        im = t.shifted.imag
        n_max = len(t._green_terms[0]) - 1
        assert n_max == len(special_functions._term_range(False, im, 0.0))
        assert math.exp(-math.pi * im * n_max ** 2) >= eps / 4.0
        assert math.exp(-math.pi * im * (n_max + 1) ** 2) < eps / 4.0



def test_turn_of_minus_x_is_the_conjugate():
    # The Green kernel conjugates one unit phase per point and per tau in
    # place of taking the phase at -x: x - round(x) is odd, as round() is,
    # and libm's cos is even and sin odd.  Only at an integer x != 0 do the
    # bits differ, in the sign of a zero imaginary part (x - round(x) is
    # +0.0 at x and at -x), which no product, sum or abs() of the kernel
    # carries into a nonzero value.
    rng = random.Random(44)
    xs = [0.0, -0.0, 0.5, -0.5, 1.5, 2.5, 0.25, 1e-300, 2.0 ** 51 + 0.5,
          1e15 + 0.5, 1e300, 7.0]
    xs += [rng.uniform(-1.0, 1.0) for _ in range(2000)]
    xs += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0, 15) for _ in range(2000)]
    for x in xs:
        got, want = special_functions._turn(-x), special_functions._turn(x).conjugate()
        assert got == want, x
        assert got.real.hex() == want.real.hex(), x
        if x != round(x):
            assert got.imag.hex() == want.imag.hex(), x


def test_turn_is_the_unit_exponential_bitwise():
    # rect(1, phi) is (cos phi, sin phi), as exp(i*phi) is for a finite phi:
    # the bits, signed zeros included, are the exponential's.
    rng = random.Random(45)
    xs = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 7.0, -3.0, 1e300, -1e300, 5e-324,
          -5e-324, 2.0 ** 51 + 0.5]
    xs += [rng.uniform(-1.0, 1.0) for _ in range(20000)]
    xs += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0, 15) for _ in range(20000)]
    for x in xs:
        got = special_functions._turn(x)
        want = cmath.exp(complex(0.0, 2.0 * math.pi * (x - round(x))))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), x

#: ``lattice_sum_p`` values as (real, imag) ``float.hex``: the
#: weierstrass-oracle suite's former 10 points per tau at seed 42, and three
#: points at two skewed taus.  The row sum gives them, at each z's
#: representative nearest 0; the square sums of radius 400 and 401 pinned
#: before it differed by 5e-10 to 2.2e-7.
_ORACLE_HEX = {
    1j: [
        ("-0x1.c027aa587b88dp+3", "-0x1.cf7ccfb20d536p+0"),
        ("-0x1.f333d39d4187fp+3", "0x1.e30e76aa6f422p+2"),
        ("0x1.9cf9c79d9084fp+3", "0x1.a326256e9d2d3p+0"),
        ("-0x1.16ec60bb69accp+4", "0x1.ee60249b2ffbdp+3"),
        ("-0x1.e6ebcf878b484p+2", "0x1.b25866f39744ep+4"),
        ("-0x1.d951c5e6f7fefp+4", "0x1.faaf472dd71cap+5"),
        ("-0x1.9e6f1fe9b6e39p+5", "0x1.9bb30144ebf93p+5"),
        ("-0x1.879beb305e456p+3", "-0x1.3423bbf95f154p+3"),
        ("-0x1.684211e863e8bp+3", "-0x1.ceaf96d3fad1dp+3"),
        ("0x1.856dc66231c47p+4", "-0x1.6e632e8fba51fp+3"),
    ],
    1.3j: [
        ("0x1.a9955c6fa1dd5p+3", "0x1.1561d14c07ab5p+1"),
        ("-0x1.6776fbfead97fp+3", "-0x1.6765e2a2b27a3p+3"),
        ("0x1.3ac7a2ed43f81p+1", "-0x1.a35ca9ac9cb7dp+3"),
        ("0x1.f07b8400f594ep+2", "-0x1.7bee573e71da1p+3"),
        ("-0x1.b7def77c69cb9p+1", "-0x1.c0304e2e987cep+3"),
        ("-0x1.054f11b174297p+4", "0x1.5416c6f8244dep+4"),
        ("-0x1.b9b4f04d0be58p+4", "0x1.b354c66e8fac6p+5"),
        ("-0x1.eb233293dc6dfp+3", "0x1.67bb9b7046b5ep+4"),
        ("0x1.0033462f8c443p+6", "0x1.970da14e9af69p+5"),
        ("-0x1.2b10fdc10362cp+5", "0x1.8ec7994886970p+5"),
    ],
}
_SKEWED_ZS = (0.1 + 0.05j, -0.23 + 0.17j, 0.31 - 0.12j)
_SKEWED_HEX = {
    0.37 + 0.61j: [
        ("0x1.7d84551f52b46p+5", "-0x1.0010d50d2b6eap+6"),
        ("0x1.0b9b4c871e837p+2", "0x1.a81c6740794eep+3"),
        ("0x1.a04661acec064p+2", "0x1.fce0cb4a04938p+2"),
    ],
    -0.9 + 0.3j: [
        ("0x1.64387edf8ab99p+5", "-0x1.c65703710b6bbp+5"),
        ("0x1.8ff559aca1fcdp+4", "0x1.4ebe7c00d4106p+4"),
        ("0x1.aa18a59fe7d8fp+4", "0x1.42e7e6aeb013fp+4"),
    ],
}


def _oracle_zs():
    """The 10 points per tau of ``_ORACLE_HEX``: points of the annulus 0.1
    <= |z| <= 0.3, drawn as the weierstrass-oracle suite once drew them from
    numpy's second child of SeedSequence(42) among 18, while it sampled tau
    = i and 1.3i alone."""
    rng = np.random.default_rng(np.random.SeedSequence(42).spawn(18)[1])

    def annulus_point():
        while True:
            z = complex(*rng.uniform(-0.3, 0.3, size=2))
            if 0.1 <= abs(z) <= 0.3:
                return z

    return {tau: [annulus_point() for _ in range(10)] for tau in _ORACLE_HEX}


def test_lattice_sums_match_scalar_bitwise():
    # The 20 frozen oracle points, at a TauParameter and at a bare tau.
    for tau, zs in _oracle_zs().items():
        frozen = _ORACLE_HEX[tau]
        assert [_hex(lattice_sum_p(z, TauParameter(tau))) for z in zs] == frozen
        assert [_hex(lattice_sum_p(z, tau)) for z in zs] == frozen


def test_lattice_sums_skewed_tau_frozen_bits():
    for tau, frozen in _SKEWED_HEX.items():
        assert [_hex(lattice_sum_p(z, tau)) for z in _SKEWED_ZS] == frozen, tau


def test_grid_lambdas_match_scalar_bitwise():
    # Rows from the Im tau floor through TAU_BOX to the cusp, past the
    # underflow of theta2's first term (Im tau 838 to 948) and to 1e308;
    # columns past +-1, where both paths shift Re tau, to +-1e3 and to
    # 3e306, where a phase at the caller's tau would leave double range,
    # signed and subnormal near 0 too.
    rng = random.Random(7)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    re_axis = [1e3, -1e3, 1e306, 3e306, -0.0, 0.5, 1.0, -1.0, 1e-300,
               -5e-324, 2.6, -2.6] + [rng.uniform(-3.0, 3.0) for _ in range(20)]
    im_axis = ([0.05, im_lo, im_hi, 13.6, 54.0, 400.0, 900.0, 940.0, 1e300,
                1e308] + [rng.uniform(0.05, im_hi) for _ in range(20)]
               + [rng.uniform(838.0, 948.0) for _ in range(5)])
    rows = list(_grid_lambdas(re_axis, im_axis))
    assert [len(row) for row in rows] == [len(re_axis)] * len(im_axis)
    assert ([[_hex(lam) for lam in row] for row in rows]
            == [[_hex(modular_lambda(complex(re, im))) for re in re_axis]
                for im in im_axis])


# Floor-band taus near the cusps Re tau = +-1, where |lambda| is 6e10 to
# 1e26, with (4/pi) log|1 - lambda| from mpmath: lambda = (theta2 / theta3)^4
# by mpmath.jtheta at the tau's exact binary value, at mp.dps = 40 and 80
# (the two agree to 25 digits), rounded to 16 digits.
CUSP_REFERENCES = [
    (-0.983094027854641 + 0.11120398821644994j, 31.62720234496480),
    (0.9822354269566855 + 0.06316982813230464j, 55.15048241403219),
    (0.999 + 0.05j, 76.43784319243962),
]


@pytest.mark.parametrize("tau, value", CUSP_REFERENCES,
                         ids=["abs-lambda-6e10", "abs-lambda-6e18",
                              "abs-lambda-1e26"])
def test_cusp_floor_lambda_and_massey_match_reference(tau, value):
    lam = modular_lambda(tau)
    (grid_lam,), = _grid_lambdas([tau.real], [tau.imag])
    assert _hex(grid_lam) == _hex(lam)
    rep = massey_report(tau)
    for got in (rep.value_closed_form, rep.value_via_linking):
        assert abs(got - value) <= 1e-9 * abs(value)


# theta1 and theta2 (kind, z, tau) and lambda(tau) far up the imaginary
# axis, from mpmath.jtheta at the inputs' exact binary values, mp.dps = 60;
# the defining series summed directly at mp.dps = 80 agrees.
# Each is exp(L) with |L| up to 630; an exponent rounded to double carries
# a relative error of about eps * |L|, which bounds the comparison.
THETA_HIGH_REFERENCES = [
    (1, 0.5, 60j, 6.845177088242482e-21 + 0j),
    (1, 0.3, 54j, 6.164627841699307e-19 + 0j),
    (2, 0.3, 54j, 4.478864296320446e-19 + 0j),
    (1, 0.1 + 0.2j, 0.3 + 60j, 1.4573891695697856e-21 + 4.838870713519413e-21j),
    (2, 0.1 + 0.2j, 0.3 + 60j, 7.952559509009118e-21 + 4.506817783287809e-22j),
    (1, 0.25 - 3j, -0.7 + 100j, 2.248565177575007e-31 - 9.365947748480818e-31j),
    (2, 0.25 - 3j, -0.7 + 100j, 9.365947777767984e-31 + 2.2485650555851833e-31j),
    (1, 0.4 + 10j, 0.9 + 200j, 1.3900516837130446e-55 + 2.2683581852633462e-55j),
    (2, 0.4 + 10j, 0.9 + 200j, 2.2683581852633462e-55 - 1.3900516837130446e-55j),
]
LAMBDA_HIGH_REFERENCES = [
    (54j, 3.371295921742309e-73 + 0j),
    (0.3 + 60j, 1.290498301976876e-81 + 1.776218531239721e-81j),
    # the real part, 128 exp(-200 pi) to leading order, is below 1e-270
    (-0.5 + 100j, -5.8409649271928806e-136j),
    (0.9 + 200j, -2.0279420466943863e-272 + 6.5891831378987815e-273j),
]


def _within_exponent_rounding(got, ref):
    return abs(got - ref) <= 2.0 ** -52 * max(1.0, -math.log(abs(ref))) * abs(ref)


def test_theta_and_lambda_far_up_the_cusp_match_reference():
    # The first paired term of theta1 and theta2 is always summed: from
    # Im tau ~ 54 on it alone is below the rule's EPS_SERIES / 4, yet it is
    # the value.  The grid kernel sums it too, bit for bit.
    for kind, z, tau, ref in THETA_HIGH_REFERENCES:
        got = theta(kind, z, tau)
        assert _within_exponent_rounding(got, ref), (kind, z, tau)
    for tau, ref in LAMBDA_HIGH_REFERENCES:
        assert _within_exponent_rounding(modular_lambda(tau), ref), tau
        (lam,), = _grid_lambdas([tau.real], [tau.imag])
        assert _hex(lam) == _hex(modular_lambda(tau)), tau


def test_theta_far_along_re_tau_is_a_power_of_i_times_the_shifted():
    # theta sums at the shifted tau s = tau - 2k, k = round(Re tau / 2):
    # theta3 and theta4 equal their values at s, and theta1 and theta2 are
    # i^k times theirs, bit for bit, also where a phase pi * Re(tau) * a^2
    # at tau itself would leave double range (3e306 and past it).  Lambda
    # shifts as well, here to exactly 0.5i, and numpy warns of nothing.
    zs = (0.0, 0.1 + 0.05j, -0.3 + 0.2j, 0.45 - 0.1j, 2.7 - 0.1j, 1e17 + 0.3j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (3e306 + 0.5j, -5e307 + 0.5j, 1e308 + 0.5j):
            assert _hex(modular_lambda(tau)) == _hex(modular_lambda(0.5j))
        for tau in (3e306 + 0.5j, -5e307 + 0.5j, 1e308 + 0.5j, 1e15 + 1j,
                    1e15 + 2.0 + 1j, 2.6 + 0.7j, 3.0 + 0.5j):
            s = TauParameter(tau).shifted
            assert abs(s.real) <= 1.0
            k = round(tau.real / 2.0)
            for kind in (1, 2, 3, 4):
                for z in zs:
                    x, y = _hex(theta(kind, z, s))
                    neg_x, neg_y = _hex(-theta(kind, z, s))
                    turns = k % 4 if kind in (1, 2) else 0
                    want = ((x, y), (neg_y, x), (neg_x, neg_y), (y, neg_x))[turns]
                    assert _hex(theta(kind, z, tau)) == want, (kind, z, tau)


def test_no_series_runs_at_an_unshifted_tau(monkeypatch):
    # Every theta series sees |Re tau| <= 1, so no phase of a term can leave
    # double range: the series checks for none.  The grid kernel's phases
    # are those of the shifted tau: its lambda there is its lambda at tau,
    # bit for bit.
    seen = []
    series = special_functions._theta_series

    def recording_series(kind, z, tau):
        seen.append(tau)
        return series(kind, z, tau)

    monkeypatch.setattr(special_functions, "_theta_series", recording_series)
    special_functions._theta_constants.cache_clear()
    for tau in (2.6 + 0.7j, 1e15 + 1j, 3e306 + 0.5j):
        for kind in (1, 2, 3, 4):
            theta(kind, 0.1 + 0.05j, tau)
        weierstrass_p(0.1 + 0.05j, tau)
        arakelov_green(0.1 + 0.05j, tau)
        modular_lambda(tau)
        massey_report(tau)
        z = Divisor.elliptic(tau, [(0.1 + 0.2j, 1), (0.4 + 0.1j, -1)])
        w = Divisor.elliptic(tau, [(0.7 + 0.3j, 1), (0.3 + 0.4j, -1)])
        linking_elliptic(z, w)
        s = TauParameter(tau).shifted
        assert (_hex(next(_grid_lambdas([tau.real], [tau.imag]))[0])
                == _hex(next(_grid_lambdas([s.real], [s.imag]))[0]))
    assert len(seen) > 3 and all(abs(t.real) <= 1.0 for t in seen)


def test_tau_validated_once_per_public_call(monkeypatch):
    # 1e12+1i is far along Re tau: the shifted tau is taken once there too.
    built = []
    validate = TauParameter.__post_init__

    def counting(self):
        built.append(self.value)
        validate(self)

    for tau in (0.3 + 1.1j, 1e12 + 1j):
        massey_report(tau)  # warm the theta-constant cache
        z = Divisor.elliptic(tau, [(0.1 + 0.2j, 1), (0.4 + 0.1j, -1)])
        w = Divisor.elliptic(tau, [(0.7 + 0.5j, 1), (0.3 + 0.6j, -1)])
        with monkeypatch.context() as patch:
            patch.setattr(TauParameter, "__post_init__", counting)
            built.clear()
            massey_report(tau)
            assert len(built) <= 1, tau
            built.clear()
            linking_elliptic(z, w)
            assert built == [], tau


@pytest.mark.parametrize("k", [1, 5e11, 5e14])
def test_evaluators_keep_their_bits_under_an_even_shift_of_tau(k):
    # tau and tau + 2k span one lattice; 0.25 + 2k is exact for these k.
    base = 0.25 + 1.1j
    far = base + 2 * k
    assert far - 2 * k == base
    u, v = 0.1 + 0.05j, 0.8 + 0.6j
    terms = [(0.1 + 0.2j, 1), (2.6 + 0.5j, -1)]
    values = []
    for tau in (base, far):
        z = Divisor.elliptic(tau, terms)
        w = Divisor.elliptic(tau, [(0.35 + 0.9j, 1), (0.8 + 0.15j, -1)])
        values.append([
            _hex(weierstrass_p(u, tau)),
            _hex(arakelov_green(u, tau)),
            _hex(torus_distance(u, v + 3.0, tau)),
            _hex(reduce_mod_lattice(v + 3.0 - 2.0j, tau)),
            _hex(lattice_sum_p(u, tau)),
            _hex(linking_elliptic(z, w).value),
            [(_hex(p), m) for p, m in z.terms],
        ])
    assert values[0] == values[1]


def test_theta1_vanishes_at_zero():
    for tau in (1j, 0.5 + 0.8j, -0.3 + 2.4j):
        assert theta(1, 0.0, tau) == 0


def test_theta1_odd_bitwise():
    rng = np.random.default_rng(101)
    for _ in range(50):
        tau = _random_tau(rng)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        assert theta(1, -z, tau) == -theta(1, z, tau)


def test_theta_at_large_real_z_shifts_z_exactly():
    # theta1 vanishes on the lattice; theta2 has period 2 in z.
    for k in (1, 5e11, 5e16):
        assert theta(1, 2 * k, 1j) == 0j
        assert theta(1, -2 * k, 0.3 + 1.1j) == 0j
    # 2k + 0.5 is exact up to k = 2**50, 2k + 1.25 up to k = 2**49.
    for k in (1, 3, 2 ** 20, 2 ** 49, 2 ** 50):
        for tau in (1j, 0.3 + 1.1j):
            for kind in (1, 2, 3, 4):
                assert (_hex(theta(kind, 2 * k + 0.5, tau))
                        == _hex(theta(kind, 0.5, tau))), (kind, k, tau)
                if k > 2 ** 49:
                    continue
                # an odd shift negates theta1 and theta2 exactly
                sign = -1 if kind in (1, 2) else 1
                assert (_hex(theta(kind, 2 * k + 1.25 + 0.1j, tau))
                        == _hex(sign * theta(kind, 0.25 + 0.1j, tau))), (kind, k)


def test_theta3_against_brute_series():
    # 1 + 2 sum q^(n^2) with q = e^(-pi), summed directly
    q = math.exp(-math.pi)
    brute = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 51))
    val = theta(3, 0.0, 1j)
    assert abs(val - brute) < 1e-12
    assert abs(val - THETA3_AT_I) < 1e-14
    assert abs(val.imag) < 1e-16


def test_theta_quasi_periodicity():
    rng = np.random.default_rng(102)
    for _ in range(25):
        tau = _random_tau(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(theta(1, z + 1, tau) + theta(1, z, tau)) < 1e-12
        factor = -cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * z)
        lhs = theta(1, z + tau, tau)
        rhs = factor * theta(1, z, tau)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_theta_kind_and_convergence_guards():
    for kind in (5, True, 2.0):
        with pytest.raises(ValueError, match="theta kind must be"):
            theta(kind, 0.0, 1j)
    with pytest.raises(DomainError):
        theta(2, 0.0, 1.0 - 1.0j)
    for z in (math.inf, complex(0.1, -math.inf), complex(math.nan, 0.2)):
        for kind in (1, 2, 3, 4):
            with pytest.raises(DomainError, match="theta argument must be finite"):
                theta(kind, z, 0.3 + 1.1j)


def test_half_periods_square_lattice():
    hp = half_period_values(1j)
    assert abs(hp.e1 - E1_AT_I) < 1e-12
    assert abs(hp.e3) < 1e-13          # p((1+i)/2) = 0 by the i-rotation symmetry
    assert abs(hp.e1 + hp.e2) < 1e-13  # e2 = -e1 likewise
    assert abs(hp.e1 + hp.e2 + hp.e3) < 1e-13


def test_half_period_sum_and_distinctness():
    rng = np.random.default_rng(103)
    for _ in range(100):
        hp = half_period_values(_random_tau(rng))
        scale = max(abs(hp.e1), abs(hp.e2), abs(hp.e3))
        assert abs(hp.e1 + hp.e2 + hp.e3) < 1e-9 * scale
        assert abs(hp.e1 - hp.e2) > 1e-9 * scale
        assert abs(hp.e1 - hp.e3) > 1e-9 * scale
        assert abs(hp.e2 - hp.e3) > 1e-9 * scale


def test_torus_distance_symmetric_bitwise():
    # Without one canonical orientation of the difference, about half of
    # all cell pairs give (u, v) and (v, u) different last bits.
    rng = np.random.default_rng(17)
    for tau in (1j, 0.5 + 0.8j, -0.3 + 2.4j):
        for _ in range(200):
            u, v = (complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(2))
            assert (torus_distance(u, v, tau).hex()
                    == torus_distance(v, u, tau).hex())
            u, v = (rng.uniform() + rng.uniform() * tau for _ in range(2))
            assert (torus_distance(u, v, tau).hex()
                    == torus_distance(v, u, tau).hex())


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_reduction_leaves_a_reduced_point_where_it_is():
    # Recomputing x + y*tau from a point's own lattice coordinates can move
    # it by an ulp; a point strictly inside the cell is returned as it is.
    rng = random.Random(0)
    moved = 0
    for _ in range(5000):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.05, 3.0))
        z = reduce_mod_lattice(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                               tau)
        moved += _bits(reduce_mod_lattice(z, tau)) != _bits(z)
    assert moved == 0
    # lattice coordinates (0.71, 0.64): rebuilt, the real part reads
    # 0.9000000000000001
    z = 0.9 + 0.7j
    assert _bits(reduce_mod_lattice(z, 0.3 + 1.1j)) == _bits(z)


def test_reduction_keeps_points_next_to_half_periods():
    # A point 1e-13 off a half-period in lattice coordinates, inside the
    # cell, is its own representative, bit for bit, and p there agrees with
    # the row sum to 1e-14 relative (worst 4.3e-15); a signed zero reduces
    # to +0.  At half a period from the lattice the rounding of a few eps
    # outweighs the c * eps / d that weierstrass_p states next to it.  The
    # taus are not square: at tau = i, p has a zero at (1 + i)/2.
    d = 1e-13
    for tau in (0.1 + 1j, 0.3 + 0.7j, -0.9 + 2.5j):
        for x, y in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            for dx in (-d, d):
                for dy in (-d, d):
                    if min(x + dx, y + dy) < 0.0:
                        continue
                    u = x + dx + (y + dy) * tau
                    assert _bits(reduce_mod_lattice(u, tau)) == _bits(u)
                    want = lattice_sum_p(u, tau)
                    assert (abs(weierstrass_p(u, tau) - want)
                            <= 1e-14 * abs(want)), (u, tau)
    for z in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        assert _bits(reduce_mod_lattice(z, 1j)) == _bits(0j)


def _exact_coordinates(z, tau):
    """z's lattice coordinates in the basis (1, shifted tau), as rationals."""
    s = TauParameter(tau).shifted
    y = Fraction(z.imag) / Fraction(s.imag)
    return Fraction(z.real) - y * Fraction(s.real), y


def test_reduce_mod_lattice_is_exact_far_out():
    # 1e17 + 0.3i has coordinates (1e17 - 0.18, 0.6) at 0.3+0.5i; in floats
    # the fractional 0.82 of x was lost and 0.18+0.3i came back.
    assert abs(reduce_mod_lattice(1e17 + 0.3j, 0.3 + 0.5j) - (1 + 0.3j)) < 1e-15
    # Seeded sweep up to |z| = 1e300: the representative's coordinates equal
    # z's reduced exactly, within the float path's 2**-42 bound for points
    # of ordinary size and within rounding once the reduction is exact.
    rng = random.Random(1300)
    for _ in range(3000):
        tau = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.05),
                                                               math.log(900))))
        mag = 10.0 ** rng.uniform(-3, 300)
        z = complex(mag * rng.uniform(-1, 1), mag * rng.uniform(-1, 1))
        got = reduce_mod_lattice(z, tau)
        x, y = _exact_coordinates(z, tau)
        gx, gy = _exact_coordinates(got, tau)
        assert 0 <= gx < 1 and 0 <= gy < 1, (z, tau)
        dx, dy = gx - x, gy - y
        err = float(max(abs(dx - round(dx)), abs(dy - round(dy))))
        assert err <= 2.0 ** -42, (z, tau, err)
        if abs(x) + 2 * abs(y) > 2 ** 11:
            assert err <= 2.0 ** -50, (z, tau, err)


def test_torus_distance_is_the_lattice_distance_on_skewed_cells():
    # The lattice point -2 + 3*tau is nearer to 0.45+0.05i than any corner
    # of its cell: 0.3536, not 0.4528.
    assert abs(torus_distance(0.45 + 0.05j, 0, 0.9 + 0.1j)
               - math.sqrt(0.125)) < 1e-15
    # 40,000 seeded (u, tau) against a search over the 81 x 81 lattice
    # points m + n*tau, |m|, |n| <= 40.
    rng = random.Random(2026)
    n_points = 40_000
    taus = np.array([complex(rng.uniform(-1, 1), rng.uniform(0.05, 3.0))
                     for _ in range(n_points)])
    us = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(n_points)])
    got = np.array([torus_distance(u, 0.0, tau)
                    for u, tau in zip(us.tolist(), taus.tolist())])
    ms = np.arange(-40, 41.0)
    best = np.full(n_points, np.inf)
    for n in ms:
        re = us.real - n * taus.real
        im2 = (us.imag - n * taus.imag) ** 2
        best = np.minimum(best, ((re[:, None] - ms) ** 2).min(axis=1) + im2)
    brute = np.sqrt(best)
    assert (np.abs(got - brute) <= 1e-13 * brute).all()


def test_theta_term_data_keeps_every_bit_in_any_order():
    # A series' bits do not depend on earlier calls: at one TauParameter,
    # in any order of kinds and points, each value keeps the bits a fresh
    # TauParameter gives.
    rng = random.Random(7)
    for _ in range(40):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.05, 3.0))
        zs = [complex(rng.uniform(-1, 1), rng.uniform(-3, 3) * tau.imag)
              for _ in range(6)] + [0.0]
        shared = TauParameter(tau)
        for kind in rng.sample((1, 2, 3, 4), 4):
            for z in rng.sample(zs, len(zs)):
                assert (_hex(theta(kind, z, shared))
                        == _hex(theta(kind, z, tau))), (kind, z, tau)


@pytest.mark.parametrize("call", [
    lambda: reduce_mod_lattice(math.inf, 1j),
    lambda: weierstrass_p(math.nan, 1j),
], ids=["reduce-inf", "weierstrass-nan"])
def test_coordinates_beyond_double_range_are_domain_errors(call):
    with pytest.raises(DomainError, match="no lattice coordinates"):
        call()


@pytest.mark.parametrize("case", ["reduce-huge", "torus-distance",
                                  "distance-overflow", "green", "divisor",
                                  "weierstrass-huge"])
def test_finite_coordinates_beyond_double_range_reduce_exactly(case):
    # z is finite, but its lattice coordinate y = 2e309 leaves double range
    # at 0.3+0.05i: z is reduced exactly, as every finite z is.
    z, tau = 1e308 + 1e308j, 0.3 + 0.05j
    r = reduce_mod_lattice(z, tau)
    if case == "reduce-huge":
        x, y = _exact_coordinates(z, tau)
        rx, ry = _exact_coordinates(r, tau)
        assert 0 <= rx < 1 and 0 <= ry < 1
        dx, dy = rx - x, ry - y
        assert max(abs(dx - round(dx)), abs(dy - round(dy))) <= 2.0 ** -50
        # at 0.3+0.5i z lies on the lattice
        assert _bits(reduce_mod_lattice(z, 0.3 + 0.5j)) == _bits(0j)
    elif case == "torus-distance":
        assert abs(torus_distance(z, 0.0, tau)
                   - torus_distance(r, 0.0, tau)) <= 1e-15
    elif case == "distance-overflow":
        # u - v leaves double range though u and v are finite: the distance
        # is that of their representatives, in either order
        for u, v in ((1e308, -1e308), (z, -z), (1e308 + 0.3j, -1e308 + 0.1j)):
            want = torus_distance(reduce_mod_lattice(u, tau),
                                  reduce_mod_lattice(v, tau), tau)
            assert torus_distance(u, v, tau) == torus_distance(v, u, tau) == want
        # two lattice points of 0.3+i
        assert torus_distance(1e308, -1e308, 0.3 + 1j) == 0.0
    elif case == "green":
        assert arakelov_green(z, tau).hex() == arakelov_green(r, tau).hex()
        with pytest.raises(PoleError):
            arakelov_green(z, 0.3 + 0.5j)
    elif case == "divisor":
        assert (Divisor.elliptic(tau, [(z, 1), (0.1, -1)])
                == Divisor.elliptic(tau, [(r, 1), (0.1, -1)]))
    else:
        want = lattice_sum_p(z, tau)
        assert abs(weierstrass_p(z, tau) - want) <= 1e-13 * abs(want)


def test_lattice_sum_validation():
    with pytest.raises(PoleError):
        lattice_sum_p(0.0, 1j)
    with pytest.raises(PoleError):
        lattice_sum_p(2 + 3j, 1j)  # a lattice point of Z + Zi
    for z in (complex(math.inf, 0.0), complex(0.1, math.nan)):
        with pytest.raises(DomainError):
            lattice_sum_p(z, 1j)
    # Far from the cell z moves to its representative nearest 0, exactly:
    # unmoved, the rows' sines at 0.3+100i sum to NaN, and at 0.3+120i
    # cmath.sin overflows.  The largest difference, 1.7e-14 at 0.3+100i and
    # tau = 0.5+1.25i, is weierstrass_p's own error: there the row sum is
    # within 4.7e-16 of 60-digit mpmath at the exactly reduced point.
    for tau in (1j, 0.5 + 1.25j):
        for z in (0.3 + 100j, 0.3 + 120j, 0.25 + 1e3j, 0.25 - 1e6j,
                  1e12 + 0.25 + 0.125j):
            got = lattice_sum_p(z, tau)
            assert cmath.isfinite(got), (z, tau)
            want = weierstrass_p(z, tau)
            assert abs(got - want) <= 1e-10 * abs(want), (z, tau)
    # Far along both axes z moves by its exact lattice coordinates, rounded
    # once: whole rows, then whole columns, would lose every digit below
    # ulp(Re z) at the first point (1.2e-8), and a rounded k * tau would
    # cost 1.8e-9 at the second.  weierstrass_p reduces exactly here; the
    # two agree to 3.7e-16 and 9.2e-16.
    for z, tau in ((-1e12 + 0.1 - 0.2j, 0.0154 + 0.0576j),
                   (0.3 + 1e6j, -0.9 + 0.3j)):
        want = weierstrass_p(z, tau)
        assert abs(lattice_sum_p(z, tau) - want) <= 5e-14 * abs(want), (z, tau)


#: (z, tau, p(z)) next to the lattice points 1, 1 + tau and tau - 1: p by
#: 60-digit mpmath, as e1 + (pi theta3(0) theta4(0) theta2(z)/theta1(z))^2,
#: rounded to doubles.
_NEAR_CORNER_P = (
    (0.999999999 + 5e-10j, 1j,
     4.8000000724017395e+17 + 6.40000039820961e+17j),
    (0.99999999999 + 1e-11j, 1j,
     413701803953202.4 + 4.999999586298146e+21j),
    (complex(1 - 1e-9, 1 + 3e-10), 1j,
     7.659287922912997e+17 + 5.050080620747004e+17j),
    (-0.05 + 0.2999999999j, 0.95 + 0.3j,
     -9.999998345187585e+19 + 83266706178301.69j),
)


def test_lattice_sum_keeps_its_digits_next_to_every_lattice_point():
    # z is summed at its representative nearest 0, where sin(pi z) keeps
    # its digits, next to any lattice point: within 1.4e-16 to 2.1e-16 of
    # mpmath here.  Summed next to 1, 1 + tau or tau - 1 itself, the sines
    # lose them as eps / d: 5.3e-8 to 2.2e-6 at these points.
    for z, tau, want in _NEAR_CORNER_P:
        assert abs(lattice_sum_p(z, tau) - want) <= 5e-15 * abs(want), (z, tau)


def test_lattice_sum_even_bitwise():
    rng = np.random.default_rng(104)
    for _ in range(20):
        tau = _random_tau(rng)
        z = complex(rng.uniform(0.05, 0.95), 0) + rng.uniform(0.05, 0.95) * tau
        assert lattice_sum_p(-z, tau) == lattice_sum_p(z, tau)
    # and where z moves to its representative nearest 0 first
    for _ in range(20):
        tau = _random_tau(rng)
        z = complex(*rng.uniform(-50.0, 50.0, size=2))
        assert lattice_sum_p(-z, tau) == lattice_sum_p(z, tau)


def test_lattice_sum_golden_half_period():
    val = lattice_sum_p(0.5, 1j)
    assert abs(val - E1_AT_I) < 5e-13
    assert abs(val - half_period_values(1j).e1) < 5e-13


def test_lattice_sum_periodicity_up_to_tail():
    # p(z+1) equals p(z): z + 1 moves back by one column; z + 1 rounds.
    rng = np.random.default_rng(105)
    for _ in range(5):
        z = complex(rng.uniform(0.1, 0.45), rng.uniform(0.1, 0.45))
        assert abs(lattice_sum_p(z + 1, 1j) - lattice_sum_p(z, 1j)) < 5e-13


def test_weierstrass_p_vs_lattice_oracle():
    rng = np.random.default_rng(106)
    for tau in (1j, 1.3j):
        for _ in range(10):
            while True:
                z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                if 0.1 <= abs(z) <= 0.3:
                    break
            assert abs(weierstrass_p(z, tau) - lattice_sum_p(z, tau)) < 5e-12


#: The loss constant c of ``weierstrass_p``'s relative error c * eps / d at
#: distance d from the lattice: below 10 over TAU_BOX and 5e4 in the floor
#: band Im tau < 0.3, over the 3.3 and 2.4e4 that its docstring states as
#: measured.
_NEAR_LATTICE_C = {"box": 10.0, "floor": 5e4}


def _near_lattice_bound(z, tau, c):
    """The bound c * eps / d stated in ``weierstrass_p``'s docstring, d the
    distance from z to the lattice."""
    return c * sys.float_info.epsilon / torus_distance(z, 0.0, tau)


def test_weierstrass_p_near_the_lattice_is_within_its_stated_bound():
    # lattice_sum_p is the reference: it sums no theta, and at these points
    # it is within 6e-16 of 50-digit mpmath.
    def rel_err(z, tau):
        want = lattice_sum_p(z, tau)
        return abs(weierstrass_p(z, tau) - want) / abs(want)

    # Four points with a lattice coordinate below 1e-12, where moving z onto
    # the cell edge would cost 0.110, 0.104, 0.120 and 0.881: measured
    # errors 3.9e-6, 4.6e-6, 5.5e-6 and 1.2e-5; then 1.5e-8 and 3.3e-5.
    points = ((-5.5e-13 - 9.98e-12j, 1j),
              (5.2e-13 - 9.99e-12j, 1j),
              (3e-13 + 5e-12j, 1j),
              (1 - 4e-13 + 2e-12j, 0.3 + 1.1j),
              (1e-9 + 2e-9j, 1j),
              (1e-9 + 1e-9j, 0.0154 + 0.0576j))
    for z, tau in points:
        c = _NEAR_LATTICE_C["box" if tau.imag >= 0.3 else "floor"]
        assert rel_err(z, tau) <= _near_lattice_bound(z, tau, c), (z, tau)
    for z, tau in points[:4]:
        assert rel_err(z, tau) <= 2e-5, (z, tau)
    rng = random.Random(2323)
    for band, (im_lo, im_hi) in (("box", TAU_BOX[1]), ("floor", (0.05, 0.3))):
        for _ in range(40):
            tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(im_lo, im_hi))
            zs = [10.0 ** rng.uniform(-11.0, -3.0)
                  * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                  for _ in range(6)]
            # two points with a lattice coordinate below 1e-12, next to
            # the cell edge
            for _ in range(2):
                small = rng.uniform(-1e-12, 1e-12)
                far = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.5, -9.0)
                x, y = (small, far) if rng.random() < 0.5 else (far, small)
                zs.append(x + y * tau)
            for z in zs:
                bound = _near_lattice_bound(z, tau, _NEAR_LATTICE_C[band])
                assert rel_err(z, tau) <= bound, (z, tau)


def test_weierstrass_p_even_and_pole():
    rng = np.random.default_rng(107)
    for _ in range(20):
        tau = _random_tau(rng)
        z = complex(rng.uniform(0.1, 0.9), 0) + rng.uniform(0.1, 0.9) * tau
        pv = weierstrass_p(z, tau)
        assert abs(pv - weierstrass_p(-z, tau)) <= 1e-10 * (1 + abs(pv))
    with pytest.raises(PoleError):
        weierstrass_p(0.0, 1j)
    with pytest.raises(PoleError):
        weierstrass_p(1 + 1j, 1j)


def test_weierstrass_p_far_up_the_cusp():
    # mpmath at 50 digits, by the rows of the lattice, pi^2 / sin^2(pi*u)
    # summed over u = z + n*tau: -3.289868133696453 + 4.9e-17i
    z, tau = 0.5692 - 105.551j, 0.3387 + 112.016j
    assert abs(weierstrass_p(z, tau) + 3.289868133696453) <= 1e-15 * 3.29
    # p(1/4) is 5 pi^2 / 3 to double precision here (mpmath
    # 16.449340668482265), though theta1(1/4) ~ 2|q|^(1/4) sin(pi/4)
    # underflows: the folded sums divide by the largest term.
    ref = 16.449340668482265
    assert abs(weierstrass_p(0.25, 0.3 + 950j) - ref) <= 1e-15 * ref
    # Here theta1's first term at the reduced point passes exp(_EXP_CAP);
    # at |Im u| <= Im tau / 2 none does.  mpmath: -3.289868133696455.
    z = -0.3725333615175994 + 312.9873162322488j
    tau = -0.2639245905283232 + 318.911358791131j
    assert abs(weierstrass_p(z, tau) + 3.289868133696455) <= 1e-15 * 3.29


#: (tau, z, p) near the Im tau floor, p from the theta quotient summed
#: directly in mpmath at 60 digits at the reduced point (jtheta at 80
#: digits agrees to every printed digit).
P_FLOOR_REFERENCES = [
    (0.05j, 0.3 + 0.01j, 1315.9472534785812 - 6.369565493334638e-13j),
    (0.999 + 0.05j, 0.4 + 0.03j, 1314.3691689429681 - 52.59580507975067j),
    (-0.5 + 0.055j, 0.1 + 0.04j, 264.8162638046199 - 8.081665748019113j),
    (0.2 + 0.06j, 0.6 + 0.045j, -83.48284099177405 + 24.950600581286533j),
    (-0.9 + 0.05j, 0.25 + 0.025j, -158.0692490178964 + 231.49519716506555j),
]


def test_weierstrass_p_near_the_floor_matches_reference():
    # The worst of these is 3.4e-15 relative.
    for tau, z, ref in P_FLOOR_REFERENCES:
        assert abs(weierstrass_p(z, tau) - ref) <= 1e-14 * abs(ref), (tau, z)


def test_weierstrass_p_is_finite_over_the_domain():
    # Im tau log-uniform from the floor to 500 and |Im z| up to 1.5 Im tau:
    # every call returns a finite value; no HolinkError is raised.
    rng = np.random.default_rng(26)
    for _ in range(1000):
        tau = TauParameter(complex(rng.uniform(-1.0, 1.0),
                                   math.exp(rng.uniform(math.log(0.05),
                                                        math.log(500.0)))))
        z = complex(rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.5, 1.5) * tau.value.imag)
        p = weierstrass_p(z, tau)
        assert cmath.isfinite(p), (z, tau)


def test_weierstrass_p_bits_are_pinned():
    # The float.hex of p over a seeded sweep, hashed: 2,000 calls with Im
    # tau log-uniform from the floor to 500, |Re tau| <= 1.5 (so the even
    # shift runs) and |Im z| up to 1.5 Im tau, then points 1e-3 to 1e-9
    # from each cell corner at 12 more taus.  A change to the folded sums'
    # arithmetic, to the fold of z or to the theta constants moves it.
    rng = np.random.default_rng(3030)
    log_lo, log_hi = math.log(0.05), math.log(500.0)
    hexes = []
    for _ in range(2000):
        tau = complex(rng.uniform(-1.5, 1.5),
                      math.exp(rng.uniform(log_lo, log_hi)))
        z = complex(rng.uniform(-1.5, 1.5),
                    rng.uniform(-1.5, 1.5) * tau.imag)
        p = weierstrass_p(z, tau)
        hexes += [p.real.hex(), p.imag.hex()]
    for _ in range(12):
        tau = TauParameter(complex(rng.uniform(-1.5, 1.5),
                                   math.exp(rng.uniform(log_lo, log_hi))))
        tv = tau.shifted
        for corner in (0.0, 1.0, tv, 1.0 + tv):
            for k in range(3, 10):
                z = corner + cmath.rect(10.0 ** -k, rng.uniform(0.0, 2 * math.pi))
                p = weierstrass_p(z, tau)
                hexes += [p.real.hex(), p.imag.hex()]
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
    assert digest == ("3a7b735fa1b3fc10d143ff5c7c2e5c86"
                      "a3d37c940c5450e6fef4f53f0003ef72")


def test_modular_lambda_golden_points():
    assert abs(modular_lambda(1j) - 0.5) < 1e-12
    assert abs(modular_lambda(1 + 1j) + 1.0) < 1e-9
    assert abs(modular_lambda(2j) - LAMBDA_2I) < 1e-12


def test_modular_lambda_functional_equations():
    rng = np.random.default_rng(108)
    for _ in range(100):
        tau = _random_tau(rng)
        lam = modular_lambda(tau)
        assert abs(modular_lambda(tau + 2) - lam) < 1e-9
        assert abs(modular_lambda(tau + 1) - lam / (lam - 1)) < 1e-9


def test_lambda_complement_ratio_identity():
    rng = np.random.default_rng(109)
    for _ in range(100):
        tau = _random_tau(rng)
        assert abs(lambda_complement_ratio(tau)
                   - (1.0 - modular_lambda(tau))) < 1e-9
    assert abs(lambda_complement_ratio(1j) - 0.5) < 1e-12


def test_lambda_unit_complement_on_half_line():
    # |1 - lambda| = 1 identically on Re tau = 1/2: lambda(tau - 1) is the
    # complex conjugate of lambda(tau) there, and equals lambda/(lambda-1).
    for im in (0.6, 1.0, 1.7, 2.5):
        lam = modular_lambda(0.5 + im * 1j)
        assert abs(abs(1.0 - lam) - 1.0) < 1e-12


def test_lambda_inversion_report():
    # lambda(-1/tau) = 1 - lambda(tau): -1/tau stays in the upper half-plane
    # (1/tau would not), and the identity holds on the nose
    assert abs(modular_lambda(-1 / 2j) - (1.0 - modular_lambda(2j))) < 1e-12
    rng = np.random.default_rng(110)
    for _ in range(10):
        tau = _random_tau(rng)
        assert abs(modular_lambda(-1 / tau) - (1.0 - modular_lambda(tau))) < 1e-9
