"""Theta series, half periods, the lattice-sum oracle, and modular lambda."""

import cmath
import math
import random
import sys
import threading
import tracemalloc
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
    SNAP_TOL,
    THETA_BLOCK,
    _batch_lambdas,
    _theta_array,
)
from holink import verify
from holink.verify import TAU_BOX

# Golden values, frozen from independent derivations:
#   theta3(0, i) = pi^(1/4) / Gamma(3/4)    (classical closed form)
#   e1(i)        = (lemniscate constant)^2  (square lattice)
#   lambda(2i)   = (sqrt(2) - 1)^4
THETA3_AT_I = 1.086434811213308
E1_AT_I = 6.8751858180203758
LAMBDA_2I = (math.sqrt(2.0) - 1.0) ** 4
# Agreed cross-path value of the radius-400 truncated lattice sum at z=1/2,
# tau=i (the truncation tail |z|^2/400^2 ~ 1.56e-6 is visible here).
LATTICE_HALF_I_400 = 6.875184259419312


def _random_tau(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))


def test_tau_parameter_validation():
    TauParameter(0.3 + 0.7j)  # fine
    for bad in (1.0 + 0j, 2.0 - 1j, 0.5 + 0.04j, complex("inf"), complex("nan")):
        with pytest.raises(DomainError):
            TauParameter(bad)


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


def test_theta_constants_array_matches_scalar_bitwise():
    # The scalar loop is the reference; the array kernel must reproduce it
    # to the last bit (signed zeros included) over the verify box, toward
    # the cusp and at the shifts of taus along Re tau, as its callers give
    # them.
    rng = np.random.default_rng(2024)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    taus = np.concatenate([
        rng.uniform(re_lo, re_hi, 300) + 1j * rng.uniform(im_lo, im_hi, 300),
        rng.uniform(-1.0, 1.0, 100)
        + 1j * np.exp(rng.uniform(math.log(3.0), math.log(400.0), 100)),
        rng.uniform(-1e3, 1e3, 100) + 1j * rng.uniform(0.05, 3.0, 100),
        np.array([1j, 400j, -1e3 + 0.05j, 0.5 + 0.05j]),
    ])
    taus = np.array([special_functions._even_shift(t) for t in taus.tolist()])
    for batch in (taus, taus[:1]):
        consts = [_theta_array(kind, 0.0, batch) for kind in (2, 3, 4)]
        for i, tau in enumerate(batch.tolist()):
            for kind, values in zip((2, 3, 4), consts):
                assert _hex(values[i]) == _hex(theta(kind, 0.0, tau)), (kind, tau)


def test_theta_array_matches_scalar_bitwise():
    # Every kind at seeded (z, tau) over the verify box, |Im z| up to Im tau
    # and z = 0 among them: paired arrays, and z against one tau.
    rng = np.random.default_rng(2025)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    taus = rng.uniform(re_lo, re_hi, 200) + 1j * rng.uniform(im_lo, im_hi, 200)
    zs = (rng.uniform(-1.0, 1.0, 200)
          + 1j * rng.uniform(-1.0, 1.0, 200) * taus.imag)
    zs[:3] = 0.0
    tau = complex(taus[7])
    for kind in (1, 2, 3, 4):
        for z, t in ((zs, taus), (zs, tau)):
            values = _theta_array(kind, z, t)
            for i, zi in enumerate(z.tolist()):
                ti = t if isinstance(t, complex) else complex(t[i])
                assert _hex(values[i]) == _hex(theta(kind, zi, ti)), (kind, zi, ti)
        # where every z is 0
        values = _theta_array(kind, 0.0, taus)
        for i, ti in enumerate(taus.tolist()):
            assert _hex(values[i]) == _hex(theta(kind, 0.0, ti)), (kind, ti)


def test_theta_term_cap_is_convergence_error():
    # At tau = 0.3+900i, z = tau/2 the first term of theta1 passes exp's cap.
    tau = 0.3 + 900j
    with pytest.raises(ConvergenceError, match="exceeds double range"):
        theta(1, tau / 2, tau)


def test_theta_far_up_the_imaginary_axis_decides_without_overflow():
    # At Im tau = 1e308, -pi*Im(tau)*a^2 and pi*k*|Im z| overflow to -inf
    # and +inf.  A term beyond exp's cap raises; a negligible one stops the
    # sum; z = tau/2 and tau/4 are where a term is exp(0), exactly 1.
    tau = 1e308j
    for kind, z in ((3, 6e307j), (3, 9e307j), (1, 6e307j), (2, 3e307j)):
        with pytest.raises(ConvergenceError, match="exceeds double range"):
            theta(kind, z, tau)
    assert theta(3, 3e307j, tau) == 1 + 0j
    assert theta(3, tau / 2, tau) == 2 + 0j
    assert theta(4, tau / 2, tau) == 0j
    assert theta(1, tau / 4, tau) == 1j


def test_theta_term_count_is_bounded_by_the_exp_cap(monkeypatch):
    # No term count caps a series: the cap edge is the largest |Im z| at
    # which no term passes exp(_EXP_CAP).  Up to just under it every kind
    # sums at most 140 paired terms on both paths; just past it the scalar
    # series raises.
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
            calls.clear()
            _theta_array(kind, zs, tau)
            assert 0 < len(calls) <= 140, (kind, tau)
            past = complex(0.3, edge * (1.0 + 1e-9))
            with pytest.raises(ConvergenceError, match="exceeds double range"):
                theta(kind, past, tau)


#: ``_lattice_sums_p`` values as (real, imag) ``float.hex``: the
#: weierstrass-oracle suite's 10 points per tau at seed 42 and radius 400,
#: and three points at two skewed taus at radii 10 (the minimum), 37, 150
#: and 401.  The whole-array expression gave the first radii; in-place and
#: row-block evaluations, since replaced by it again, gave 150 and 401.
_ORACLE_HEX = {
    1j: [
        ("-0x1.c027a961e36d3p+3", "-0x1.cf7cd0ce509d0p+0"),
        ("-0x1.f333d2ee67db0p+3", "0x1.e30e775f38710p+2"),
        ("0x1.9cf9c68f398a3p+3", "0x1.a32626a788b49p+0"),
        ("-0x1.16ec60866610ap+4", "0x1.ee6024fc7f9ebp+3"),
        ("-0x1.e6ebcf4974fe2p+2", "0x1.b258672c45939p+4"),
        ("-0x1.d951c5dce1c56p+4", "0x1.faaf4738ae0aep+5"),
        ("-0x1.9e6f1fe19956bp+5", "0x1.9bb3014d03250p+5"),
        ("-0x1.879bea8bad605p+3", "-0x1.3423bc85ab310p+3"),
        ("-0x1.6842117ce9f02p+3", "-0x1.ceaf9765d610fp+3"),
        ("0x1.856dc629b5279p+4", "-0x1.6e632ec64fbdcp+3"),
    ],
    1.3j: [
        ("0x1.a9955be2ab9ffp+3", "0x1.1561d1b154595p+1"),
        ("-0x1.6776fbae74857p+3", "-0x1.6765e2f731ef2p+3"),
        ("0x1.3ac7a28fa4948p+1", "-0x1.a35caa3068065p+3"),
        ("0x1.f07b837b4b758p+2", "-0x1.7bee57abc49e6p+3"),
        ("-0x1.b7def70d21a31p+1", "-0x1.c0304ea85afedp+3"),
        ("-0x1.054f119cb8d21p+4", "0x1.5416c713a329bp+4"),
        ("-0x1.b9b4f04636fccp+4", "0x1.b354c67551c82p+5"),
        ("-0x1.eb23326e2395ep+3", "0x1.67bb9b8c6b033p+4"),
        ("0x1.0033462d55defp+6", "0x1.970da15220c0bp+5"),
        ("-0x1.2b10fdbc92484p+5", "0x1.8ec7994e7833dp+5"),
    ],
}
_SKEWED_ZS = (0.1 + 0.05j, -0.23 + 0.17j, 0.31 - 0.12j)
_SKEWED_HEX = {
    (0.37 + 0.61j, 10): [
        ("0x1.7d845cb7b6c49p+5", "-0x1.001119b663c7ep+6"),
        ("0x1.0b83ad2442197p+2", "0x1.a8240bdac606cp+3"),
        ("0x1.a020665738200p+2", "0x1.fce24dad7db27p+2"),
    ],
    (0.37 + 0.61j, 37): [
        ("0x1.7d8455bcbfcfbp+5", "-0x1.0010da6e9ef5fp+6"),
        ("0x1.0b99722ca8d66p+2", "0x1.a81d001782ea3p+3"),
        ("0x1.a04367ea571d6p+2", "0x1.fce0e84d71481p+2"),
    ],
    (-0.9 + 0.3j, 10): [
        ("0x1.6437a776a2344p+5", "-0x1.c6548a9a6f467p+5"),
        ("0x1.9015e77bf2a42p+4", "0x1.4eb476596735dp+4"),
        ("0x1.aa455148a5f60p+4", "0x1.42f289a99ed6cp+4"),
    ],
    (-0.9 + 0.3j, 37): [
        ("0x1.64386f4132ba7p+5", "-0x1.c656d3629a83fp+5"),
        ("0x1.8ff7ce51b1e46p+4", "0x1.4ebdaf1c48088p+4"),
        ("0x1.aa1c0d4e76fefp+4", "0x1.42e8a8d33d62cp+4"),
    ],
    (0.37 + 0.61j, 150): [
        ("0x1.7d8455291f1f6p+5", "-0x1.0010d562afad3p+6"),
        ("0x1.0b9b2f138406bp+2", "0x1.a81c70bcfc456p+3"),
        ("0x1.a04632624fe92p+2", "0x1.fce0cd158903dp+2"),
    ],
    (0.37 + 0.61j, 401): [
        ("0x1.7d845520b3354p+5", "-0x1.0010d5192f778p+6"),
        ("0x1.0b9b4863bd7b5p+2", "0x1.a81c6895b1b5ep+3"),
        ("0x1.a0465b07d9464p+2", "0x1.fce0cb8a92292p+2"),
    ],
    (-0.9 + 0.3j, 150): [
        ("0x1.64387de8b9ecdp+5", "-0x1.c65700771cc41p+5"),
        ("0x1.8ff580970729dp+4", "0x1.4ebe6f44f87dep+4"),
        ("0x1.aa18dba038911p+4", "0x1.42e7f2a696e19p+4"),
    ],
    (-0.9 + 0.3j, 401): [
        ("0x1.64387ebcdfa00p+5", "-0x1.c6570306006fdp+5"),
        ("0x1.8ff55f2433158p+4", "0x1.4ebe7a36c3fb2p+4"),
        ("0x1.aa18ad3618c86p+4", "0x1.42e7e85d04c94p+4"),
    ],
}


def _oracle_zs():
    """The 10 points per tau of ``_ORACLE_HEX``: annulus points drawn from
    the weierstrass-oracle suite's child seed at 42, as the suite drew them
    while it sampled tau = i and 1.3i alone."""
    i = [name for name, _, _ in verify._SUITES].index("weierstrass-oracle")
    child = np.random.SeedSequence(42).spawn(len(verify._SUITES))[i]
    rng = np.random.default_rng(child)
    return {tau: [verify._random_annulus_point(rng) for _ in range(10)]
            for tau in _ORACLE_HEX}


def test_lattice_sums_match_scalar_bitwise():
    # The 20 frozen oracle points, batch and scalar.
    for tau, zs in _oracle_zs().items():
        frozen = _ORACLE_HEX[tau]
        t = TauParameter(tau)
        got = special_functions._lattice_sums_p(zs, t, 400)
        assert [_hex(p) for p in got] == frozen
        assert [_hex(lattice_sum_p(z, t, 400)) for z in zs] == frozen


def test_lattice_sums_skewed_tau_frozen_bits():
    for (tau, radius), frozen in _SKEWED_HEX.items():
        got = special_functions._lattice_sums_p(
            list(_SKEWED_ZS), TauParameter(tau), radius)
        assert [_hex(p) for p in got] == frozen, (tau, radius)


def test_extrapolated_sums_are_ten_times_nearer_than_the_frozen_sums():
    # At all 44 frozen points (radius 400 at i and 1.3i; radii 10 to 401 at
    # the skewed taus) the extrapolation from radii 25, 50 and 100 is at
    # least 10x nearer to the theta route than the frozen plain sum.
    cases = [(tau, zs, _ORACLE_HEX[tau]) for tau, zs in _oracle_zs().items()]
    cases += [(tau, list(_SKEWED_ZS), frozen)
              for (tau, _), frozen in _SKEWED_HEX.items()]
    assert sum(len(frozen) for _, _, frozen in cases) == 44
    for tau, zs, frozen in cases:
        t = TauParameter(tau)
        got = special_functions._extrapolated_lattice_sums_p(zs, t, 100)
        for z, p, (re, im) in zip(zs, got, frozen):
            exact = weierstrass_p(z, t)
            plain = complex(float.fromhex(re), float.fromhex(im))
            assert 10.0 * abs(p - exact) <= abs(plain - exact), (tau, z)


def test_lattice_sums_memory_peak():
    # The half-lattice w and 2/w^2, built once, and at most three arrays of
    # its size while one z's expression runs, however many z there are.
    # numpy reports its data buffers to tracemalloc.
    t = TauParameter(0.37 + 0.61j)
    zs = [0.1 + 0.05j, -0.2 + 0.1j, 0.15 - 0.2j, 0.21 + 0.02j, -0.1 - 0.1j,
          0.05 + 0.25j, 0.3j, 0.3, -0.17 + 0.13j, 0.11 - 0.07j]
    special_functions._lattice_sums_p(zs[:1], t, 10)  # numpy's first-call setup
    for radius in (100, 400):
        lattice_bytes = 16 * (radius + (2 * radius + 1) * radius)
        peaks = []
        for k in (1, 10):
            tracemalloc.start()
            try:
                special_functions._lattice_sums_p(zs[:k], t, radius)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 5.2 * lattice_bytes, (radius, peaks[0] / lattice_bytes)
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0], (radius, peaks)


def test_lattice_sums_concurrent_taus_frozen_bits():
    # Two threads evaluate at two taus at once; each keeps its frozen bits,
    # so no scratch buffer is shared between calls.
    cases = [(0.37 + 0.61j, 401), (-0.9 + 0.3j, 150)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            results = [None] * len(cases)

            def run(j, tau, radius):
                got = special_functions._lattice_sums_p(
                    list(_SKEWED_ZS), TauParameter(tau), radius)
                results[j] = [_hex(p) for p in got]

            threads = [threading.Thread(target=run, args=(j, *case))
                       for j, case in enumerate(cases)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == [_SKEWED_HEX[case] for case in cases]
    finally:
        sys.setswitchinterval(switch)


def test_batch_lambdas_blocks_match_scalar_bitwise():
    # THETA_BLOCK + 1 taus: one full block, then a size-1 partial block.
    # Re tau reaches past +-1, where both paths shift it, to +-1e3 and to
    # 3e306, where a phase at the caller's tau would leave double range,
    # and Im tau the floor.
    rng = np.random.default_rng(7)
    _, (_, im_hi) = TAU_BOX
    taus = [complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, im_hi))
            for _ in range(THETA_BLOCK + 1)]
    taus[:4] = [1e3 + 0.3j, -1e3 + 0.05j, 1e306 + 5j, 3e306 + 0.5j]
    got = list(_batch_lambdas(np.array(taus)))
    assert [block.size for block, _ in got] == [THETA_BLOCK, 1]
    assert [tau for block, _ in got for tau in block.tolist()] == taus
    assert ([_hex(lam) for _, lams in got for lam in lams.tolist()]
            == [_hex(modular_lambda(t)) for t in taus])
    assert list(_batch_lambdas(np.array([], dtype=complex))) == []


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
    (_, lams), = _batch_lambdas(np.array([tau]))
    assert _hex(lams[0]) == _hex(lam)
    rep = massey_report(tau)
    for got in (rep.value_closed_form, rep.value_via_linking):
        assert abs(got - value) <= 1e-9 * abs(value)


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
    # Every theta series, scalar or array, sees |Re tau| <= 1, so no phase
    # of a term can leave double range: neither path checks for one.
    seen = []
    series = special_functions._theta_series
    kernel = special_functions._theta_array

    def recording_series(kind, z, tau):
        seen.append(tau)
        return series(kind, z, tau)

    def recording_kernel(kind, z, tau):
        seen.extend(np.ravel(tau).tolist())
        return kernel(kind, z, tau)

    # linking binds the series' name on import, so it is patched there too.
    for module in (special_functions, sys.modules["holink.linking"]):
        monkeypatch.setattr(module, "_theta_series", recording_series)
    monkeypatch.setattr(special_functions, "_theta_array", recording_kernel)
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
        list(_batch_lambdas(np.array([tau])))
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
            _hex(lattice_sum_p(u, tau, 20)),
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


def test_reduction_snaps_onto_half_periods():
    # points a fraction of SNAP_TOL off a half-period in lattice coordinates
    # land on it exactly, and a signed zero reduces to +0
    d = 0.4 * SNAP_TOL
    for tau in (1j, 0.3 + 0.7j, -0.9 + 2.5j):
        for x, y in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            half = complex(x + y * tau.real, y * tau.imag)
            for dx in (-d, 0.0, d):
                for dy in (-d, 0.0, d):
                    u = x + dx + (y + dy) * tau
                    assert _bits(reduce_mod_lattice(u, tau)) == _bits(half)
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
    lambda: reduce_mod_lattice(1e308 + 1e308j, 0.3 + 0.5j),
    lambda: torus_distance(1e308 + 1e308j, 0, 0.3 + 0.5j),
    lambda: weierstrass_p(math.nan, 1j),
    lambda: arakelov_green(1e308 + 1e308j, 0.3 + 0.5j),
    lambda: Divisor.elliptic(0.3 + 0.5j, [(1e308 + 1e308j, 1), (0.1, -1)]),
], ids=["reduce-inf", "reduce-huge", "torus-distance", "weierstrass-nan",
        "green", "divisor"])
def test_coordinates_beyond_double_range_are_domain_errors(call):
    with pytest.raises(DomainError, match="no lattice coordinates"):
        call()


def test_lattice_sum_validation():
    with pytest.raises(ValueError):
        lattice_sum_p(0.3, 1j, 9)
    with pytest.raises(ValueError):
        lattice_sum_p(0.3, 1j, 10.5)
    with pytest.raises(ValueError, match="must be an int, got True"):
        lattice_sum_p(0.3, 1j, True)
    # Any integral radius but a bool, as its int.
    assert (_hex(lattice_sum_p(0.3, 1j, np.int64(20)))
            == _hex(lattice_sum_p(0.3, 1j, 20)))
    with pytest.raises(PoleError):
        lattice_sum_p(0.0, 1j, 50)
    with pytest.raises(PoleError):
        lattice_sum_p(2 + 3j, 1j, 50)  # a lattice point of Z + Zi


def test_lattice_sum_even_bitwise():
    rng = np.random.default_rng(104)
    for _ in range(20):
        tau = _random_tau(rng)
        z = complex(rng.uniform(0.05, 0.95), 0) + rng.uniform(0.05, 0.95) * tau
        assert lattice_sum_p(-z, tau, 30) == lattice_sum_p(z, tau, 30)


def test_lattice_sum_golden_half_period():
    val = lattice_sum_p(0.5, 1j, 400)
    assert abs(val - LATTICE_HALF_I_400) < 1e-12
    # cross-path agreement; the square truncation leaves a |z|^2/R^2 tail,
    # about 1.56e-6 at this point, so the bound is 2e-6 rather than 1e-6
    assert abs(val - half_period_values(1j).e1) < 2e-6


def test_lattice_sum_periodicity_up_to_tail():
    # p(z+1) equals p(z), but each truncated sum carries its own tail
    # ~|argument|^2/r^2; the difference is dominated by the shifted copy.
    rng = np.random.default_rng(105)
    for _ in range(5):
        z = complex(rng.uniform(0.1, 0.45), rng.uniform(0.1, 0.45))
        for r in (200, 400):
            diff = abs(lattice_sum_p(z + 1, 1j, r) - lattice_sum_p(z, 1j, r))
            bound = 2.0 * (abs(z + 1) ** 2 + abs(z) ** 2) / r ** 2
            assert diff < bound
        # after a two-point Richardson step the tails cancel to O(r^-3)
        extr = lambda zz: (4.0 * lattice_sum_p(zz, 1j, 400)
                           - lattice_sum_p(zz, 1j, 200)) / 3.0
        assert abs(extr(z + 1) - extr(z)) < 1e-7


def test_weierstrass_p_vs_lattice_oracle():
    rng = np.random.default_rng(106)
    for tau in (1j, 1.3j):
        for _ in range(10):
            while True:
                z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                if 0.1 <= abs(z) <= 0.3:
                    break
            assert abs(weierstrass_p(z, tau) - lattice_sum_p(z, tau, 400)) < 1e-6


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
