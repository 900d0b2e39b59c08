"""Correctness checks of the workload outputs, run outside the timed window,
and the domain probe of the recorded baseline failure classes.

References come from mpmath at 40 digits; mpmath is used by the benchmark
only and is never a dependency of holink.
"""

from __future__ import annotations

import json
import math
import pathlib
import random

import mpmath

import holink
from holink import Divisor, RationalMapSpec
from holink.massey import massey_value_via_linking
from holink.special_functions import modular_lambda

#: Agreement of the two Massey routes: the massey-cross-path suite's bound.
ROUTE_TOL = 1e-8
#: Relative bound of a linking value against its mpmath reference.
LINK_REF_TOL = 1e-9
#: Relative bound of the probe's accuracy class.
PROBE_REF_TOL = 1e-9
#: Bound on |<z, f^*w> - <f_*z, w>|.
ADJ_TOL = 1e-9
#: Relative bound of a 12-significant-digit CSV lambda against a recompute.
CSV_LAMBDA_TOL = 1e-11

SCAN_SAMPLE = 200
MASSEY_SAMPLE = 40
LINK_SAMPLE = 20
SWAP_SAMPLE = 100

VERIFY_SUITES = 18

BASELINE_FAILURES = json.loads(
    (pathlib.Path(__file__).parent / "baseline_failures.json").read_text())


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


# --- mpmath references -----------------------------------------------------

def ref_massey(tau: complex) -> float:
    """(4/pi) log|1 - lambda(tau)| = (16/pi) Re log(theta4/theta3), with
    theta4 - theta3 = -4 * sum_{n odd} q^(n^2) summed directly, so that no
    cancellation occurs even where the value underflows a double."""
    with mpmath.workdps(40):
        # lambda has period 2 in tau; fmod is exact.
        t = mpmath.mpc(math.fmod(tau.real, 2.0), tau.imag)
        q = mpmath.exp(1j * mpmath.pi * t)
        odd = mpmath.mpc(0)
        n = 1
        while True:
            term = q ** (n * n)
            odd += term
            if abs(term) <= mpmath.mpf(10) ** -45 * abs(odd):
                break
            n += 2
        th3 = mpmath.jtheta(3, 0, q)
        return float(16 / mpmath.pi * mpmath.re(mpmath.log1p(-4 * odd / th3)))


def ref_green(u: complex, tau: complex) -> mpmath.mpf:
    """g_tau(u) = (1/pi) (log|theta1(u)| - pi (Im u)^2 / Im tau)."""
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
    th1 = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(u.real, u.imag), q)
    return (mpmath.log(abs(th1)) - mpmath.pi * mpmath.mpf(u.imag) ** 2
            / tau.imag) / mpmath.pi


def ref_link(z_terms, w_terms, tau: complex) -> float:
    """Elliptic linking number as the Green-kernel double sum."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for zr, zi, a in z_terms:
            for wr, wi, b in w_terms:
                total += a * b * ref_green(complex(zr, zi) - complex(wr, wi), tau)
        return float(total)


# --- scan-grid ---------------------------------------------------------------

def _axis(lo: float, hi: float, steps: int) -> list[float]:
    # The grid formula of the `scan` contract (README: inclusive, re fastest).
    if steps == 1:
        return [lo]
    return [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]


def scan_grid_points(argv: list[str]) -> list[complex]:
    opts = dict(zip(argv[1::2], argv[2::2]))
    res = _axis(float(opts["--re-min"]), float(opts["--re-max"]),
                int(opts["--steps-re"]))
    ims = _axis(float(opts["--im-min"]), float(opts["--im-max"]),
                int(opts["--steps-im"]))
    return [complex(r, i) for i in ims for r in res]


def check_scan(csv_text: str, argv: list[str], seed: int) -> set[int]:
    """Indices of grid points whose CSV row is missing or wrong.

    Every row must carry its grid tau; a seeded sample of rows is
    recomputed through modular_lambda and the linking route of the Massey
    value, which the CSV does not use."""
    points = scan_grid_points(argv)
    lines = csv_text.split("\n")
    if not lines or lines[0] != "re_tau,im_tau,lambda_re,lambda_im,massey_value":
        return set(range(len(points)))
    rows = lines[1:-1] if lines[-1] == "" else lines[1:]
    bad = set(range(len(rows), len(points)))
    parsed = {}
    for k, (tau, row) in enumerate(zip(points, rows)):
        fields = row.split(",")
        if len(fields) != 5 or fields[:2] != [f"{tau.real:.12g}", f"{tau.imag:.12g}"]:
            bad.add(k)
        else:
            parsed[k] = fields
    rng = random.Random(f"scan-check:{seed}")
    for k in rng.sample(sorted(parsed), min(SCAN_SAMPLE, len(parsed))):
        tau = points[k]
        lam_csv = complex(float(parsed[k][2]), float(parsed[k][3]))
        lam = modular_lambda(tau)
        value = massey_value_via_linking(tau)
        if (abs(lam_csv - lam) > CSV_LAMBDA_TOL * max(1.0, abs(lam))
                or not _close(float(parsed[k][4]), value, ROUTE_TOL)):
            bad.add(k)
    return bad


# --- verify-suites -----------------------------------------------------------

def check_verify(exit_code: int, stdout: str) -> int:
    """Number of suites that did not pass (all of them on a bad exit)."""
    if exit_code != 0:
        return VERIFY_SUITES
    passed = sum(line.startswith("[PASS] ") for line in stdout.splitlines())
    return VERIFY_SUITES - min(passed, VERIFY_SUITES)


# --- library-mix -------------------------------------------------------------

def _divisor(terms, tau=None) -> Divisor:
    pts = [(complex(r, i), m) for r, i, m in terms]
    return Divisor.sphere(pts) if tau is None else Divisor.elliptic(tau, pts)


def _swap_matches(req, values: list[float], pool: list[complex]) -> bool:
    """The pairing with its arguments swapped must be bit-identical."""
    kind = req[0]
    if kind == "link":
        tau = pool[req[1]]
        swapped = holink.linking(_divisor(req[3], tau), _divisor(req[2], tau))
        return swapped.value == values[0]
    if kind == "adj-power":
        spec = RationalMapSpec.power(req[1])
        z, w = _divisor(req[2]), _divisor(req[3])
    else:
        tau = pool[req[1]]
        spec = RationalMapSpec.translation(complex(*req[2]))
        z, w = _divisor(req[3], tau), _divisor(req[4], tau)
    return holink.linking(holink.pullback(w, spec), z).value == values[0]


def check_mix(inputs: dict, ops: list, seed: int) -> set[int]:
    """Indices of requests that failed: raised, broke a route or adjunction
    bound, or failed a sampled swap-symmetry or mpmath reference check."""
    requests = inputs["requests"]
    pool = [complex(r, i) for r, i in inputs["tau_pool"]]
    bad = set()
    good = {"massey": [], "link": [], "swap": []}
    for k, (req, (status, hexes)) in enumerate(zip(requests, ops)):
        if status != "ok":
            bad.add(k)
            continue
        values = [float.fromhex(h) for h in hexes]
        if req[0] == "massey":
            if not _close(values[0], values[1], ROUTE_TOL):
                bad.add(k)
            else:
                good["massey"].append(k)
        elif req[0] == "link":
            good["link"].append(k)
            good["swap"].append(k)
        elif not values[2] <= ADJ_TOL:  # a NaN residual fails too
            bad.add(k)
        else:
            good["swap"].append(k)
    bad.update(range(len(ops), len(requests)))
    rng = random.Random(f"mix-check:{seed}")

    def sample(key, n):
        return rng.sample(good[key], min(n, len(good[key])))

    for k in sample("massey", MASSEY_SAMPLE):
        req = requests[k]
        if not _close(float.fromhex(ops[k][1][0]),
                      ref_massey(complex(req[1], req[2])), ROUTE_TOL):
            bad.add(k)
    for k in sample("link", LINK_SAMPLE):
        req = requests[k]
        if not _close(float.fromhex(ops[k][1][0]),
                      ref_link(req[2], req[3], pool[req[1]]), LINK_REF_TOL):
            bad.add(k)
    for k in sample("swap", SWAP_SAMPLE):
        values = [float.fromhex(h) for h in ops[k][1]]
        if not _swap_matches(requests[k], values, pool):
            bad.add(k)
    return bad


# --- domain probe --------------------------------------------------------------

def probe_taus() -> list[complex]:
    """Fixed taus of the admissible domain outside the timed library-mix:
    the named cases of the baseline record, the band Im in [0.05, 0.5),
    the cusp from Im 10 to 1000 and |Re tau| from 1e3 to 1e12.  The cusp
    band overlaps the timed mix, whose check bounds the absolute error
    only; here the accuracy class is relative."""
    rng = random.Random("domain-probe")
    taus = [0.05j, 0.999 + 0.05j, -0.018 + 0.059j, 0.3 + 20j, 1e12 + 1j,
            0.3 + 900j, -1 + 0.3j, 1e15 + 1j]
    taus += [complex(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 0.5))
             for _ in range(60)]
    taus += [complex(rng.uniform(-1.0, 1.0),
                     math.exp(rng.uniform(math.log(10.0), math.log(1000.0))))
             for _ in range(30)]
    taus += [complex(rng.choice((-1.0, 1.0))
                     * math.exp(rng.uniform(math.log(1e3), math.log(1e12))),
                     rng.uniform(0.5, 3.0))
             for _ in range(60)]
    return taus


def _exception_class(exc: Exception) -> str:
    for cls in BASELINE_FAILURES["classes"]:
        if (cls.get("exception") == type(exc).__name__
                and cls.get("message", "") in str(exc)):
            return cls["id"]
    return f"unrecorded {type(exc).__name__}"


def classify_tau(tau: complex) -> str:
    """'ok' or the baseline failure class of massey_report at tau."""
    try:
        rep = holink.massey_report(tau)
    except Exception as exc:  # every outcome is classified, none aborts
        return _exception_class(exc)
    closed, via = rep.value_closed_form, rep.value_via_linking
    if not _close(closed, via, ROUTE_TOL):
        return "route-mismatch"
    ref = ref_massey(tau)
    if abs(closed - ref) > PROBE_REF_TOL * abs(ref) + 1e-300:
        return "inaccurate"
    return "ok"


def run_probe() -> dict:
    """Outcome counts of the domain probe, by class."""
    counts: dict[str, int] = {}
    taus = probe_taus()
    for tau in taus:
        outcome = classify_tau(tau)
        counts[outcome] = counts.get(outcome, 0) + 1
    failed = len(taus) - counts.get("ok", 0)
    return {"attempted": len(taus), "failed": failed,
            "by_class": dict(sorted(counts.items()))}
