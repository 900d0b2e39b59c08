"""The triple-product obstruction value: closed form vs. the linking route."""

import importlib
import math
import random

import numpy as np
import pytest

from holink import (
    DivergenceError,
    DomainError,
    massey_report,
    massey_value_closed_form,
    massey_value_via_linking,
    modular_lambda,
)
from holink.linking import Divisor, linking_elliptic
from holink.massey import _closed_form_from_lambda
from holink.special_functions import MIN_IM_TAU, as_tau
from holink.verify import TAU_BOX, run_all

# frozen reference values
VALUE_AT_I = 4.0 * math.log(0.5) / math.pi     # = -0.8825424006106064
CLOSED_AT_I = -0.8825424006106053
LINKED_AT_I = -0.8825424006106074             # mpmath: -0.88254240061060637...
VALUE_AT_1_PLUS_I = 0.882542400610606
VALUE_AT_2I = -0.03804340783020451
VALUE_AT_GENERIC = -0.05738355699730882        # tau = 0.3 + 1.7i


def test_square_point_golden():
    assert abs(massey_value_closed_form(1j) - VALUE_AT_I) < 1e-12
    assert abs(massey_value_via_linking(1j) - VALUE_AT_I) < 1e-12
    assert massey_value_closed_form(1j) == CLOSED_AT_I
    assert massey_value_via_linking(1j) == LINKED_AT_I


def test_shifted_square_point_flips_sign():
    # lambda(tau + 1) = lambda/(lambda - 1) sends 1/2 to -1, so |1 - lambda|
    # doubles and the value crosses zero somewhere in between
    v = massey_value_closed_form(1 + 1j)
    assert abs(v - VALUE_AT_1_PLUS_I) < 1e-12
    assert abs(v + VALUE_AT_I) < 1e-12


def test_other_frozen_points():
    assert abs(massey_value_closed_form(2j) - VALUE_AT_2I) < 1e-13
    assert abs(massey_value_closed_form(0.3 + 1.7j) - VALUE_AT_GENERIC) < 1e-13


def test_reports_are_real_floats():
    for tau in (1j, 0.5 + 0.8j, -0.3 + 2.2j, 1 + 1j):
        rep = massey_report(tau)
        assert isinstance(rep.value_closed_form, float)
        assert isinstance(rep.value_via_linking, float)
        assert isinstance(rep.nonvanishing, bool)
        assert rep.tau == complex(tau)
        assert rep.residual == abs(rep.value_closed_form - rep.value_via_linking)


def test_cross_path_agreement_random_tau():
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        rep = massey_report(tau)
        worst = max(worst, rep.residual)
    assert worst < 1e-8


def _bit_contract_taus():
    """Seeded taus over the floor band, TAU_BOX, the cusp and far along
    Re tau, and the edge cases -0.0+1i and +-1+0.05i."""
    rng = random.Random(4343)
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    taus = [complex(-0.0, 1.0), 1 + 0.05j, -1 + 0.05j]
    for _ in range(150):
        re = rng.uniform(-1.0, 1.0)
        taus.append(complex(re, rng.uniform(MIN_IM_TAU, 0.3)))
        taus.append(complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi)))
        taus.append(complex(re, math.exp(rng.uniform(math.log(3.0), math.log(1000.0)))))
        taus.append(complex(rng.choice((-1, 1)) * math.exp(rng.uniform(0.0, 700.0)),
                            rng.uniform(MIN_IM_TAU, 3.0)))
    return taus


def test_linking_route_keeps_the_bits_of_the_divisor_pairing():
    # The route sums the pairing kernel at the four half periods directly;
    # through Divisor and linking_elliptic the same points give every bit.
    for tau in _bit_contract_taus():
        tv = as_tau(tau).shifted
        z = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
        w = Divisor.elliptic(tau, [(tv / 2.0, 1), ((1.0 + tv) / 2.0, -1)])
        want = 8 * linking_elliptic(z, w).value
        assert massey_value_via_linking(tau).hex() == want.hex(), tau


def test_lambda_shift_periodicity():
    rng = np.random.default_rng(402)
    for _ in range(20):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        assert abs(modular_lambda(tau + 2) - modular_lambda(tau)) < 1e-9
        assert abs(massey_value_closed_form(tau + 2)
                   - massey_value_closed_form(tau)) < 1e-9


@pytest.mark.parametrize("k", [1, 5e11, 5e14], ids=["1", "5e11", "5e14"])
def test_even_shift_keeps_the_value_far_along_re_tau(k):
    # tau = i + 2k lies on the lattice of i, where the value is exactly
    # -(4/pi) log 2; unshifted, the series' phases lose digits with |Re tau|.
    tau = complex(2 * k, 1.0)
    for route in (massey_value_closed_form, massey_value_via_linking):
        assert abs(route(tau) - VALUE_AT_I) <= 1e-14 * abs(VALUE_AT_I)


def test_nonvanishing_threshold():
    rep = massey_report(0.3 + 1.7j)
    assert rep.nonvanishing
    assert not massey_report(0.3 + 1.7j, tolerance=1.0).nonvanishing
    with pytest.raises(DomainError):
        massey_report(1j, tolerance=0.0)
    with pytest.raises(DomainError):
        massey_report(1j, tolerance=-1e-9)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            massey_report(1j, tolerance=bad)


def _massey_report(tol):
    massey_report(1j, tolerance=tol)


def _run_all(tol):
    run_all(seed=42, tol=tol)


# run_all(tol=None) keeps the per-suite defaults
@pytest.mark.parametrize("entry, bad", [
    *((entry, bad) for entry in (_massey_report, _run_all)
      for bad in ("1e-3", 1e-3 + 0j, True, False)),
    (_massey_report, None)])
def test_tolerance_must_be_a_real_number(entry, bad):
    with pytest.raises(DomainError):
        entry(bad)


def test_divergent_lambda_value():
    with pytest.raises(DivergenceError):
        _closed_form_from_lambda(1.0)
    # slightly off the pole is fine and very negative
    assert _closed_form_from_lambda(1.0 + 1e-30j) < -80.0


def test_report_divergence_runs_no_kernel(monkeypatch):
    # The closed form decides before the linking route runs.  The elliptic
    # pairing forms each pair's term in ``_pair_greens``, so count there, at
    # both of its bindings: the pairing's and the Massey route's own.
    # ``holink.linking`` names the function, so fetch the modules themselves.
    linking = importlib.import_module("holink.linking")
    massey = importlib.import_module("holink.massey")
    calls = []
    greens = linking._pair_greens

    def counting(t, z_terms, w_terms, clear=True):
        for term in greens(t, z_terms, w_terms, clear):
            calls.append(term)
            yield term

    monkeypatch.setattr(linking, "_pair_greens", counting)
    monkeypatch.setattr(massey, "_pair_greens", counting)
    with pytest.raises(DivergenceError):
        massey_report(-0.018 + 0.059j)
    assert calls == []
    massey_report(1j)
    assert len(calls) == 4


def test_vanishing_crossing_located():
    # the wall Re tau = 1/2 is proven, not searched for: check a point on it
    tau = 0.5 + 1j
    assert abs(abs(1.0 - modular_lambda(tau)) - 1.0) < 1e-12
    rep = massey_report(tau)
    assert not rep.nonvanishing
    assert abs(rep.value_closed_form) < 1e-6
    # the flag flips as Re tau moves off the wall
    assert massey_report(tau - 0.2).nonvanishing
    assert massey_report(tau + 0.2).nonvanishing
    left = massey_value_closed_form(tau - 0.2)
    right = massey_value_closed_form(tau + 0.2)
    assert left * right < 0  # genuine sign change across the crossing


def test_crossing_wall_is_unit_complement():
    # on Re tau = 1/2 the complement 1 - lambda has modulus exactly one,
    # which is precisely where the logarithm vanishes, on both routes
    # (worst measured: 3.3e-15 closed form, 1.8e-15 linking).  Off the
    # wall, at Re tau = 0.5 -+ 0.2, the two sides carry reciprocal values
    # of |1 - lambda|, so the value changes sign; the flag is set up to Im
    # tau ~ 5.2, above which |lambda| ~ 16 exp(-pi Im tau) keeps the value
    # under the default tolerance.
    for im in np.geomspace(0.05, 60.0, 400):
        tau = complex(0.5, im)
        assert abs(abs(1.0 - modular_lambda(tau)) - 1.0) < 1e-14
        rep = massey_report(tau)
        assert abs(rep.value_closed_form) <= 1e-14
        assert abs(rep.value_via_linking) <= 1e-14
        assert not rep.nonvanishing
        if im <= 5.0:
            left, right = massey_report(tau - 0.2), massey_report(tau + 0.2)
            assert left.nonvanishing and right.nonvanishing
            assert left.value_closed_form * right.value_closed_form < 0.0
