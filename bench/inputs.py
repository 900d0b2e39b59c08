"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the benchmark seed and uses only the
standard library, so the program under test receives generated inputs and
never the seed itself.  Geometry checks (disjoint supports, distance from
branch points) are done with local arithmetic rather than with holink, so
that input generation does not depend on the code being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# scan-grid: the README box Re in [-1, 1], Im in [0.5, 2] at 201 x 151
# points.  The verify box would start at Im 0.3, but there `holink scan`
# exits 3 at tau = -1+0.3i (a recorded baseline defect, see
# baseline_failures.json), so the grid keeps the README lower edge.
SCAN_BOX = ((-1.0, 1.0), (0.5, 2.0))
SCAN_STEPS = (201, 151)

# verify-suites: the documented verification seed.  Seeds drawn at random
# hit a recorded baseline defect in about one case in forty (see
# baseline_failures.json), so the seed of the suites is pinned.
VERIFY_SEED = 42

# library-mix: requests of one round.  The split between the three kinds
# of request is that of the library calls `holink verify --seed 42` makes,
# the repository's own library consumer, as the traced verify-suites run
# counts them: massey.massey_value_via_linking.calls = 70 two-route Massey
# evaluations, linking.linking_elliptic.calls = 325 of which 70 run inside
# that route, and linking.check_adjunction.calls = 50.  verify uses no
# 8-point divisor, no z -> z^3, no translation and no tau outside its box,
# so the split within a kind is a coverage choice and not measured
# traffic: equal shares for each divisor size and each map, and a tenth
# of the Massey taus each toward the cusp and far along Re tau.
VERIFY_CALLS = {"massey": 70, "link": 255, "adjunction": 50}
MIX_SCALE = 6
MIX_LINK_K = (2, 4, 8)
MIX_MASSEY = VERIFY_CALLS["massey"] * MIX_SCALE
MIX_MASSEY_CUSP = MIX_MASSEY // 10
MIX_MASSEY_FAR = MIX_MASSEY // 10
MIX_MASSEY_BOX = MIX_MASSEY - MIX_MASSEY_CUSP - MIX_MASSEY_FAR
MIX_LINK_PER_K = VERIFY_CALLS["link"] * MIX_SCALE // len(MIX_LINK_K)
MIX_ADJ_PER_KIND = VERIFY_CALLS["adjunction"] * MIX_SCALE // 3
TAU_POOL_SIZE = 16

# Tau regions of the timed mix.  All lie in the admissible domain and none
# fails at baseline; the rest of the domain is measured by the domain
# probe (checks.probe_taus), whose failures are counted apart.
MIX_BOX = ((-1.0, 1.0), (0.5, 3.0))
MIX_CUSP_IM = (3.0, 400.0)
MIX_FAR_RE = (10.0, 1e3)

# Smallest torus or plane distance between any two generated points.
SEPARATION = 0.02


def verify_argv() -> list[str]:
    return ["verify", "--seed", str(VERIFY_SEED)]


def scan_argv(seed: int) -> list[str]:
    """`holink scan` arguments over the README box, shifted by a seeded
    sub-step offset so that every seed evaluates new tau values."""
    rng = random.Random(f"scan-grid:{seed}")
    (re_lo, re_hi), (im_lo, im_hi) = SCAN_BOX
    steps_re, steps_im = SCAN_STEPS
    d_re = rng.uniform(0.0, (re_hi - re_lo) / (steps_re - 1))
    d_im = rng.uniform(0.0, (im_hi - im_lo) / (steps_im - 1))
    return ["scan",
            "--re-min", repr(re_lo + d_re), "--re-max", repr(re_hi + d_re),
            "--im-min", repr(im_lo + d_im), "--im-max", repr(im_hi + d_im),
            "--steps-re", str(steps_re), "--steps-im", str(steps_im)]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified_taus(rng: random.Random, box, n: int) -> list[complex]:
    """n taus of the box, one Im tau from each of n equal strata, in random
    order.  Series cost depends on Im tau, so stratifying keeps the cost of
    a round nearly the same from seed to seed."""
    (re_lo, re_hi), (im_lo, im_hi) = box
    step = (im_hi - im_lo) / n
    taus = [complex(rng.uniform(re_lo, re_hi),
                    im_lo + (j + rng.random()) * step) for j in range(n)]
    rng.shuffle(taus)
    return taus


def torus_gap(p: complex, q: complex, tau: complex) -> float:
    """Distance between p and q modulo Z + Z*tau."""
    d = p - q
    y = d.imag / tau.imag
    x = d.real - y * tau.real
    x -= round(x)
    y -= round(y)
    return min(abs(complex(x + m, 0) + (y + n) * tau)
               for m in (-1, 0, 1) for n in (-1, 0, 1))


def _separated(points, gap) -> bool:
    return all(gap(p, q) >= SEPARATION
               for i, p in enumerate(points) for q in points[i + 1:])


def _terms(points, mults) -> list[list]:
    return [[p.real, p.imag, m] for p, m in zip(points, mults)]


def _alternating(k: int) -> list[int]:
    return [1 if i % 2 == 0 else -1 for i in range(k)]


def _cell_point(rng: random.Random, tau: complex) -> complex:
    return rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau


def _elliptic_pair(rng: random.Random, tau: complex, k: int):
    """Two degree-zero k-point divisors with pairwise separated points."""
    gap = lambda p, q: torus_gap(p, q, tau)  # noqa: E731
    while True:
        pts = [_cell_point(rng, tau) for _ in range(2 * k)]
        if _separated(pts, gap):
            return (_terms(pts[:k], _alternating(k)),
                    _terms(pts[k:], _alternating(k)))


def _annulus_point(rng: random.Random) -> complex:
    r = _log_uniform(rng, 0.3, 2.0)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(a), r * math.sin(a))


def _power_pair(rng: random.Random, n: int):
    """2-point sphere divisors z, w with z^n, w and the n-th roots of w
    separated from each other and from z, so no pairing collides."""
    plane = lambda p, q: abs(p - q)  # noqa: E731
    while True:
        z = [_annulus_point(rng) for _ in range(2)]
        w = [_annulus_point(rng) for _ in range(2)]
        roots = [abs(q) ** (1.0 / n) * complex(math.cos(t), math.sin(t))
                 for q in w
                 for t in ((math.atan2(q.imag, q.real) + 2 * math.pi * j) / n
                           for j in range(n))]
        if (_separated(z + w, plane) and _separated(z + roots, plane)
                and _separated([p ** n for p in z] + w, plane)):
            return _terms(z, [1, -1]), _terms(w, [1, -1])


def _shift_pair(rng: random.Random, tau: complex):
    """Elliptic 2-point divisors z, w and an offset c with z + c apart from w."""
    gap = lambda p, q: torus_gap(p, q, tau)  # noqa: E731
    while True:
        z = [_cell_point(rng, tau) for _ in range(2)]
        w = [_cell_point(rng, tau) for _ in range(2)]
        c = _cell_point(rng, tau)
        if _separated(z, gap) and _separated(w, gap) and _separated(
                [p + c for p in z] + w, gap):
            return [c.real, c.imag], _terms(z, [1, -1]), _terms(w, [1, -1])


def mix_inputs(seed: int) -> dict:
    """One round of library-mix requests, in a seeded order.

    Request forms (all numbers are plain floats, ints or lists of them):
      ["massey", re, im]
      ["link", pool_index, z_terms, w_terms]
      ["adj-power", n, z_terms, w_terms]          sphere, z -> z^n
      ["adj-shift", pool_index, [c_re, c_im], z_terms, w_terms]
    where a term is [re, im, multiplicity].
    """
    rng = random.Random(f"library-mix:{seed}")
    pool = _stratified_taus(rng, MIX_BOX, TAU_POOL_SIZE)
    reqs: list[list] = [["massey", t.real, t.imag]
                        for t in _stratified_taus(rng, MIX_BOX, MIX_MASSEY_BOX)]
    for _ in range(MIX_MASSEY_CUSP):
        reqs.append(["massey", rng.uniform(-1.0, 1.0),
                     _log_uniform(rng, *MIX_CUSP_IM)])
    for _ in range(MIX_MASSEY_FAR):
        re_ = rng.choice((-1.0, 1.0)) * _log_uniform(rng, *MIX_FAR_RE)
        reqs.append(["massey", re_, rng.uniform(*MIX_BOX[1])])
    # Pool curves are used in turn, so each carries the same share.
    for k in MIX_LINK_K:
        for j in range(MIX_LINK_PER_K):
            i = j % TAU_POOL_SIZE
            reqs.append(["link", i, *_elliptic_pair(rng, pool[i], k)])
    for n in (2, 3):
        for _ in range(MIX_ADJ_PER_KIND):
            reqs.append(["adj-power", n, *_power_pair(rng, n)])
    for j in range(MIX_ADJ_PER_KIND):
        i = j % TAU_POOL_SIZE
        reqs.append(["adj-shift", i, *_shift_pair(rng, pool[i])])
    rng.shuffle(reqs)
    return {"tau_pool": [[t.real, t.imag] for t in pool], "requests": reqs}


def workload_inputs(workload: str, seed: int):
    """The complete input of one workload round, as JSON-ready data."""
    if workload == "scan-grid":
        return scan_argv(seed)
    if workload == "verify-suites":
        return verify_argv()
    if workload == "library-mix":
        return mix_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def input_hash(obj) -> str:
    """sha256 of the canonical JSON form of an input."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
