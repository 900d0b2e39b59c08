"""Determinism and coverage of the bundled invariant suites."""

import numpy as np
import pytest

from holink import DomainError, TauParameter, format_summary, run_all
from holink.verify import _SUITES

EXPECTED_SUITES = [
    "half-period-sum",
    "weierstrass-oracle",
    "lambda-periodicity",
    "lambda-complement",
    "lambda-no-underflow",
    "sphere-closed-form",
    "linking-bilinearity",
    "translation-invariance",
    "half-period-dual-route",
    "adjunction-square",
    "green-flexibility",
    "green-laplacian",
    "invariant-dims-dual-route",
    "hodge-conjugation-symmetry",
    "serre-symmetry",
    "massey-cross-path",
    "massey-reality",
    "massey-lambda-periodicity",
]


def test_all_suites_pass_at_default_tolerances():
    results = run_all(seed=42)
    failed = [r.name for r in results if not r.passed]
    assert failed == [], failed


def test_suite_roster():
    results = run_all(seed=42)
    assert [r.name for r in results] == EXPECTED_SUITES


def test_same_seed_is_byte_identical():
    a = format_summary(run_all(seed=42), seed=42)
    b = format_summary(run_all(seed=42), seed=42)
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "verification suites: seed=42 tol=default"
    assert lines[-1] == f"result: {len(EXPECTED_SUITES)}/{len(EXPECTED_SUITES)} suites passed"
    assert len(lines) == len(EXPECTED_SUITES) + 2


def test_different_seed_changes_draws_not_verdicts():
    results = run_all(seed=7)
    assert all(r.passed for r in results)
    a = {r.name: r.worst for r in run_all(seed=42)}
    b = {r.name: r.worst for r in results}
    # at least one float-valued suite must see different random draws
    assert any(a[n] != b[n] for n in a)


def test_absurd_tolerance_fails_float_suites():
    results = run_all(seed=42, tol=1e-30)
    failed = [r.name for r in results if not r.passed]
    assert failed  # residuals of genuine float computations cannot hit 1e-30
    assert all(r.tolerance == 1e-30 for r in results)
    assert all(r.passed == (r.worst < r.tolerance) for r in results)
    # the exact integer identities still hold at any positive tolerance
    passed = {r.name for r in results if r.passed}
    assert "invariant-dims-dual-route" in passed
    text = format_summary(results, seed=42, tol=1e-30)
    assert "[FAIL]" in text
    assert "tol=1.000e-30" in text.splitlines()[0]


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        run_all(seed=42, tol=0.0)
    with pytest.raises(ValueError):
        run_all(seed=42, tol=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            run_all(seed=42, tol=bad)


def test_run_all_validates_each_tau_once(monkeypatch):
    # seed 42 draws 867 distinct tau values; each suite validates a tau once
    # and hands the TauParameter on.
    built = []
    validate = TauParameter.__post_init__

    def counting(self):
        built.append(self.value)
        validate(self)

    monkeypatch.setattr(TauParameter, "__post_init__", counting)
    run_all(seed=42)
    assert len(built) < 900


def test_lambda_suites_pass_at_every_seed():
    # Relative to max(1, |expected|) the worst residual over seeds 0-199 is
    # 1.07e-12 (periodicity) and 9.8e-13 (complement), under the 1e-11
    # defaults; absolute residuals failed 1e-9 at six of these seeds, where
    # the compared values reach |.| ~ 2000.  Each runner gets the child
    # seed run_all would give it.
    names = [name for name, _, _ in _SUITES]
    for name in ("lambda-periodicity", "lambda-complement"):
        i = names.index(name)
        _, runner, tol = _SUITES[i]
        for seed in range(200):
            child = np.random.SeedSequence(seed).spawn(len(_SUITES))[i]
            worst, _ = runner(np.random.default_rng(child))
            assert worst < tol, (name, seed, worst)
