"""End-to-end acceptance: the ten headline checks at contract tolerances.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.  Criteria 3-5 share one seeded sample of 50 tau values from the
box [-1, 1] x [0.3i, 3i].
"""

import functools
import math
import subprocess
import sys

import numpy as np

from holink import (
    Divisor,
    INFINITY,
    RationalMapSpec,
    arakelov_green,
    check_adjunction,
    half_period_values,
    hodge_diamond_x,
    invariant_dims,
    lattice_sum_p,
    linking_elliptic,
    linking_sphere,
    massey_report,
    massey_value_closed_form,
    massey_value_via_linking,
    modular_lambda,
    standard_quotient_action,
    weierstrass_p,
)
from holink.verify import _kernel_pairing
from laplacian import laplacian_grid

VALUE_AT_I = 4.0 * math.log(0.5) / math.pi


@functools.lru_cache(maxsize=1)
def _tau_sample() -> tuple[complex, ...]:
    rng = np.random.default_rng(42)
    return tuple(complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
                 for _ in range(50))


def test_criterion_01_hodge_diamond_exact():
    x = hodge_diamond_x()
    expected = {(p, q): 0 for p in range(4) for q in range(4)}
    for pq in ((0, 0), (3, 0), (0, 3), (3, 3)):
        expected[pq] = 1
    for pq in ((1, 1), (1, 2), (2, 1), (2, 2)):
        expected[pq] = 19
    for pq, want in expected.items():
        assert x[pq] == want, (pq, x[pq], want)
    print(f"criterion 1 PASS: diamond corners 1, middle 19, rest 0 (exact)")


def test_criterion_02_orbifold_invariant_table():
    inv = invariant_dims(standard_quotient_action())
    cases = [((0, 0), 1), ((1, 1), 3), ((3, 0), 1), ((2, 1), 3),
             ((1, 2), 3), ((0, 3), 1), ((2, 2), 3), ((3, 3), 1)]
    for pq, want in cases:
        assert inv[pq] == want, (pq, inv[pq], want)
    print("criterion 2 PASS: invariant table 1,3,1,3,3,1,3,1 at the "
          "eight listed (p,q) spots (exact)")


def test_criterion_03_half_period_ratio_identity():
    worst = 0.0
    for tau in _tau_sample():
        e1, e2, e3 = half_period_values(tau)
        lam = modular_lambda(tau)
        worst = max(worst, abs((e3 - e1) / (e2 - e1) - (1.0 - lam)))
    assert worst < 1e-9, worst
    print(f"criterion 3 PASS: |(e3-e1)/(e2-e1) - (1-lambda)| worst "
          f"{worst:.3e} < 1e-9 over 50 seeded tau")


def test_criterion_04_massey_chain_agreement():
    worst = 0.0
    for tau in _tau_sample():
        closed = massey_value_closed_form(tau)
        linked = massey_value_via_linking(tau)
        worst = max(worst, abs(closed - linked))
    assert worst < 1e-8, worst
    assert abs(massey_value_closed_form(1j) - VALUE_AT_I) < 1e-8
    assert abs(massey_value_via_linking(1j) - VALUE_AT_I) < 1e-8
    print(f"criterion 4 PASS: route residual worst {worst:.3e} < 1e-8; "
          f"both routes = (4/pi)log(1/2) at tau=i")


def test_criterion_05_nonvanishing_and_crossing():
    hits = sum(abs(massey_value_closed_form(tau)) > 1e-6
               for tau in _tau_sample())
    assert hits >= 49, hits
    # Re tau = 1/2 is the proven wall |1 - lambda| = 1 (see holink.massey)
    crossing = 0.5 + 1j
    assert abs(abs(1.0 - modular_lambda(crossing)) - 1.0) < 1e-9
    at = massey_report(crossing)
    left = massey_report(crossing - 0.2)
    right = massey_report(crossing + 0.2)
    assert not at.nonvanishing
    assert left.nonvanishing and right.nonvanishing
    print(f"criterion 5 PASS: {hits}/50 samples nonvanishing; "
          f"|1-lambda|=1 at tau={crossing:.6f}, flag flips there")


def test_criterion_06_sphere_cross_ratio_closed_form():
    rng = np.random.default_rng(606)
    done = 0
    worst = 0.0
    while done < 50:
        p, q, r, s = [complex(a, b) for a, b in rng.uniform(-3, 3, size=(4, 2))]
        if min(abs(p - q), abs(p - r), abs(p - s), abs(q - r), abs(q - s),
               abs(r - s)) < 1e-2:
            continue
        z = Divisor.sphere([(p, 1), (q, -1)])
        w = Divisor.sphere([(r, 1), (s, -1)])
        assert linking_sphere(z, w).value == linking_sphere(w, z).value
        cross = ((r - p) * (s - q)) / ((r - q) * (s - p))
        worst = max(worst, abs(linking_sphere(z, w).value
                               - math.log(abs(cross)) / math.pi))
        done += 1
    assert worst < 1e-12, worst
    print(f"criterion 6 PASS: 50 sphere pairs symmetric bitwise, "
          f"cross-ratio formula worst {worst:.3e} < 1e-12")


def test_criterion_07_adjunction_square_map():
    rng = np.random.default_rng(707)
    spec = RationalMapSpec.power(2)
    done = 0
    worst = 0.0
    while done < 50:
        pts = [complex(a, b) for a, b in rng.uniform(0.2, 2.5, size=(4, 2))]
        if min(abs(u - v) for i, u in enumerate(pts) for v in pts[i + 1:]) < 1e-2:
            continue
        z = Divisor.sphere([(pts[0], 1), (pts[1], -1)])
        w = Divisor.sphere([(pts[2], 1), (pts[3], -1)])
        try:
            chk = check_adjunction(spec, z, w)
        except Exception:
            continue
        worst = max(worst, chk.residual)
        done += 1
    assert worst < 1e-10, worst
    print(f"criterion 7 PASS: pushforward/pullback residual worst "
          f"{worst:.3e} < 1e-10 over 50 instances of z -> z^2")


def test_criterion_08_weierstrass_oracle_and_lambda():
    rng = np.random.default_rng(808)
    worst = 0.0
    for tau in (1j, 1.3j):
        for _ in range(10):
            radius = rng.uniform(0.1, 0.3)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            z = radius * complex(math.cos(angle), math.sin(angle))
            diff = abs(weierstrass_p(z, tau) - lattice_sum_p(z, tau))
            worst = max(worst, diff)
    assert worst < 5e-12, worst
    lam_err = abs(modular_lambda(1j) - 0.5)
    assert lam_err < 1e-12, lam_err
    print(f"criterion 8 PASS: theta route vs lattice row sum worst "
          f"{worst:.3e} < 5e-12 at 20 points; |lambda(i) - 1/2| = {lam_err:.1e}")


def test_criterion_09_green_laplacian_and_shift_invariance():
    vals = laplacian_grid(1j)
    mean = math.fsum(vals) / len(vals)
    spread = (max(vals) - min(vals)) / abs(mean)
    assert spread < 1e-4, spread

    tau = 0.2 + 1.1j
    z = Divisor.elliptic(tau, [(0.13 + 0.21j, 1), (0.57 + 0.44j, -1)])
    w = Divisor.elliptic(tau, [(0.71 + 0.09j, 1), (0.33 + 0.86j, -1)])
    base = linking_elliptic(z, w).value
    shifted = _kernel_pairing(z, w, lambda u, t: arakelov_green(u, t) + 17.25)
    shift_err = abs(shifted - base)
    assert shift_err < 1e-12, shift_err
    print(f"criterion 9 PASS: FD Laplacian spread {spread:.3e} < 1e-4 over "
          f"{len(vals)} grid cells (mean {mean:+.6f}); constant-shift "
          f"residual {shift_err:.1e}")


def test_criterion_10_verify_determinism():
    cmd = [sys.executable, "-m", "holink.cli", "verify", "--seed", "42"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0, a.stderr.decode()
    assert b.returncode == 0
    assert a.stdout == b.stdout
    assert b"result: 18/18 suites passed" in a.stdout
    print("criterion 10 PASS: two `verify --seed 42` runs byte-identical, "
          "exit 0, 18/18 suites")
