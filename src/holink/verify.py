"""Seeded verification suites for every numerical invariant in the package.

Each suite draws its own random samples from a ``random.Random`` seeded
from the master seed and the suite's name, evaluates one invariant, and
returns its residuals; ``run_all`` alone reduces them to a worst residual
and decides whether that passes its tolerance.  A NaN residual makes the
worst NaN, which fails.  The formatted summary is a pure function of
(seed, tolerance override), so two runs with the same arguments produce
byte-identical text.  No suite uses numpy.  Two suites check against
Eisenstein's rows of sines, which share no code with the theta series: the
weierstrass-oracle compares the theta route for p with ``lattice_sum_p``,
and the principal-divisor compares the pairing of the divisor of p - p(a)
with Abel's value, from ``_p_difference``.

A tolerance override, when given, replaces the per-suite defaults across
the board.  Suites whose residuals are exactly zero (the integer-valued
Hodge checks) pass any positive tolerance.  Each floating-point default
sits 4 to 330 times above the suite's worst residual over seeds 0-199;
the residuals sit far above 1e-30, so an absurd override fails loudly.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from collections.abc import Callable

from .errors import DisjointnessError
from .hodge import (
    GroupAction,
    hodge_diamond_x,
    invariant_dims,
    invariant_dims_by_enumeration,
    standard_quotient_action,
)
from .linking import (
    Divisor,
    RationalMapSpec,
    arakelov_green,
    check_adjunction,
    linking_elliptic,
    linking_sphere,
)
from .massey import (_check_tolerance, massey_value_closed_form,
                     massey_value_via_linking)
from .special_functions import (
    TauParameter,
    _p_difference,
    as_tau,
    half_period_values,
    lambda_complement_ratio,
    lattice_sum_p,
    modular_lambda,
    theta,
    torus_distance,
    weierstrass_p,
)

#: The tau sampling box used throughout: Re in [-1, 1], Im in [0.3, 3].
TAU_BOX = ((-1.0, 1.0), (0.3, 3.0))


SuiteResult = namedtuple("SuiteResult", "name passed worst tolerance detail")


def _random_tau(rng: random.Random) -> TauParameter:
    """A tau drawn from TAU_BOX, validated once: suites hand the
    TauParameter to the library and use ``.value`` for their own arithmetic."""
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    return as_tau(complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi)))


def _random_annulus_point(rng: random.Random) -> complex:
    r_lo, r_hi = 0.1, 0.3
    while True:
        z = complex(rng.uniform(-r_hi, r_hi), rng.uniform(-r_hi, r_hi))
        if r_lo <= abs(z) <= r_hi:
            return z


def _random_points(rng: random.Random, count: int, lo: float,
                   hi: float) -> list[complex]:
    """``count`` points whose real, then imaginary, part is drawn from
    [lo, hi]."""
    return [complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
            for _ in range(count)]


def _disjoint_pair(rng: random.Random, tau: TauParameter,
                   ) -> tuple[Divisor, Divisor]:
    """Two random degree-zero 2-point divisors on C_tau with separated supports."""
    while True:
        pts = [p.real + p.imag * tau.value
               for p in _random_points(rng, 4, 0.05, 0.95)]
        ok = all(torus_distance(pts[i], pts[j], tau) > 1e-3
                 for i in range(4) for j in range(i + 1, 4))
        if ok:
            z = Divisor.elliptic(tau, [(pts[0], 1), (pts[1], -1)])
            w = Divisor.elliptic(tau, [(pts[2], 1), (pts[3], -1)])
            return z, w


def _suite_half_period_sum(rng: random.Random) -> tuple[list, str]:
    residuals = []
    for _ in range(100):
        hp = half_period_values(_random_tau(rng))
        residuals.append(abs(sum(hp)) / max(map(abs, hp)))
    return residuals, "e1+e2+e3 relative to max |e_k|, 100 tau"


def _suite_weierstrass_oracle(rng: random.Random) -> tuple[list, str]:
    residuals = []
    for _ in range(2):
        tau = _random_tau(rng)
        for _ in range(10):
            z = _random_annulus_point(rng)
            residuals.append(_scaled_error(lattice_sum_p(z, tau),
                                           weierstrass_p(z, tau)))
    return residuals, "theta path vs Eisenstein row sums, 2 tau x 10 points"


def _scaled_error(got: complex, expected: complex) -> float:
    """|got - expected| relative to max(1, |expected|): at Im tau = 0.3 the
    compared values reach |.| ~ 2000, where an absolute residual measures
    the magnitude rather than the error."""
    return abs(got - expected) / max(1.0, abs(expected))


#: Exact (tau, lambda(tau)) at singular moduli.  They check lambda itself:
#: with Re tau shifted by an even integer, lambda(tau + 2) tests little more
#: than the rounding of Re tau + 2.
_LAMBDA_SINGULAR_VALUES = (
    (1j, 0.5),
    (1 + 1j, -1.0),
    (2j, 17.0 - 12.0 * math.sqrt(2.0)),
    (0.5j, 12.0 * math.sqrt(2.0) - 16.0),
    (cmath.exp(1j * math.pi / 3), cmath.exp(1j * math.pi / 3)),
)


def _suite_lambda_periodicity(rng: random.Random) -> tuple[list, str]:
    residuals = [_scaled_error(modular_lambda(tau), lam)
                 for tau, lam in _LAMBDA_SINGULAR_VALUES]
    for _ in range(100):
        tau = _random_tau(rng)
        lam = modular_lambda(tau)
        residuals.append(_scaled_error(modular_lambda(tau.value + 2), lam))
        residuals.append(_scaled_error(modular_lambda(tau.value + 1),
                                       lam / (lam - 1)))
    return residuals, ("lambda(tau+2) and lambda(tau+1) functional equations, "
                       "100 tau; 5 singular values")


def _suite_lambda_complement(rng: random.Random) -> tuple[list, str]:
    taus = [_random_tau(rng) for _ in range(100)]
    residuals = [_scaled_error(lambda_complement_ratio(tau),
                               1.0 - modular_lambda(tau)) for tau in taus]
    return residuals, "(e3-e1)/(e2-e1) vs 1-lambda, 100 tau"


def _suite_lambda_no_underflow(rng: random.Random) -> tuple[list, str]:
    lams = [modular_lambda(_random_tau(rng)) for _ in range(100)]
    sizes = [min(abs(lam), abs(1.0 - lam)) for lam in lams]
    # inf where lambda or 1 - lambda underflows, or is NaN (no comparison holds)
    residuals = [0.0 if size > 1e-300 else math.inf for size in sizes]
    return residuals, (f"min(|lambda|, |1-lambda|) = {min(sizes):.6e} "
                       "over 100 tau")


def _suite_sphere_closed_form(rng: random.Random) -> tuple[list, str]:
    residuals = []
    for _ in range(50):
        while True:
            p, q, r, s = _random_points(rng, 4, -2.0, 2.0)
            if min(abs(p - q), abs(p - r), abs(p - s), abs(q - r),
                   abs(q - s), abs(r - s)) > 1e-3:
                break
        z = Divisor.sphere([(p, 1), (q, -1)])
        w = Divisor.sphere([(r, 1), (s, -1)])
        res = linking_sphere(z, w)
        if linking_sphere(w, z).value != res.value:
            residuals.append(math.inf)
            break
        cross = ((r - p) * (s - q)) / ((r - q) * (s - p))
        residuals.append(abs(res.value - math.log(abs(cross)) / math.pi))
    return residuals, "bitwise swap symmetry and (1/pi)log|cross ratio|, 50 pairs"


def _suite_linking_bilinearity(rng: random.Random) -> tuple[list, str]:
    residuals = []
    for _ in range(25):
        tau = _random_tau(rng)
        z1, w = _disjoint_pair(rng, tau)
        z2, _ = _disjoint_pair(rng, tau)
        if any(torus_distance(p, q, tau) < 1e-3
               for p in z2.support() for q in w.support() + z1.support()):
            continue
        lhs = linking_elliptic(z1 + z2, w).value
        rhs = linking_elliptic(z1, w).value + linking_elliptic(z2, w).value
        residuals.append(abs(lhs - rhs))
    for _ in range(25):
        pts = _random_points(rng, 6, -2.0, 2.0)
        if min(abs(u - v) for i, u in enumerate(pts)
               for v in pts[i + 1:]) < 1e-3:
            continue
        z1 = Divisor.sphere([(pts[0], 1), (pts[1], -1)])
        z2 = Divisor.sphere([(pts[2], 1), (pts[3], -1)])
        w = Divisor.sphere([(pts[4], 1), (pts[5], -1)])
        lhs = linking_sphere(z1 + z2, w).value
        rhs = linking_sphere(z1, w).value + linking_sphere(z2, w).value
        residuals.append(abs(lhs - rhs))
    return residuals, "linking(z1+z2, w) vs sum, elliptic and sphere draws"


def _suite_translation_invariance(rng: random.Random) -> tuple[list, str]:
    residuals = []
    for _ in range(50):
        tau = _random_tau(rng)
        z, w = _disjoint_pair(rng, tau)
        c = complex(rng.uniform(0, 1), 0) + rng.uniform(0, 1) * tau.value
        zt = Divisor.elliptic(tau, [(p + c, m) for p, m in z.terms])
        wt = Divisor.elliptic(tau, [(p + c, m) for p, m in w.terms])
        residuals.append(abs(linking_elliptic(zt, wt).value
                             - linking_elliptic(z, w).value))
    return residuals, "pairing depends on point differences only, 50 draws"


def _suite_half_period_dual_route(rng: random.Random) -> tuple[list, str]:
    residuals = []
    for _ in range(50):
        tau = _random_tau(rng)
        z = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
        w = Divisor.elliptic(tau, [(tau.value / 2, 1), ((1 + tau.value) / 2, -1)])
        hp = half_period_values(tau)
        closed = math.log(abs(hp.e3 - hp.e1) / abs(hp.e2 - hp.e1)) / (2 * math.pi)
        residuals.append(abs(linking_elliptic(z, w).value - closed))
    return residuals, "green double sum vs p-function closed form, 50 tau"


def _suite_adjunction_square(rng: random.Random) -> tuple[list, str]:
    spec = RationalMapSpec.power(2)
    residuals = []
    while len(residuals) < 50:
        pts = _random_points(rng, 4, 0.3, 2.0)
        if min(abs(u - v) for i, u in enumerate(pts)
               for v in pts[i + 1:]) < 1e-2:
            continue
        z = Divisor.sphere([(pts[0], 1), (pts[1], -1)])
        w = Divisor.sphere([(pts[2], 1), (pts[3], -1)])
        try:
            chk = check_adjunction(spec, z, w)
        except DisjointnessError:  # supports collide after the map
            continue
        residuals.append(chk.residual)
    return residuals, "<z, f^*w> vs <f_*z, w> under z -> z^2, 50 draws"


def _suite_green_flexibility(rng: random.Random) -> tuple[list, str]:
    # Admissible kernel changes leave degree-zero pairings fixed: an added
    # constant cancels against the zero total multiplicity, and the
    # oscillation eps*cos(2*pi*Re u) drops out whenever one divisor has
    # vanishing first Fourier moments, which the four-point configuration
    # [v] + [v+1/2] - [v+1/4] - [v+3/4] arranges identically in v.  The
    # kernel from theta1 at u + 2*tau is g(u) by quasi-periodicity: the one
    # suite running theta1's own series, whose terms from n = 4 count there.
    residuals = []
    for _ in range(10):
        tau = _random_tau(rng)
        v0 = complex(rng.uniform(0.0, 1.0), 0) + rng.uniform(0.05, 0.95) * tau.value
        z = Divisor.elliptic(tau, [(v0, 1), (v0 + 0.5, 1),
                                   (v0 + 0.25, -1), (v0 + 0.75, -1)])
        while True:
            _, w = _disjoint_pair(rng, tau)
            if all(torus_distance(p, q, tau) > 1e-3
                   for p in z.support() for q in w.support()):
                break
        base = _kernel_pairing(z, w, arakelov_green)
        shifted = _kernel_pairing(z, w, lambda u, t: arakelov_green(u, t) + 3.75)
        residuals.append(abs(shifted - base))
        eps = 1e-3
        wobbled = _kernel_pairing(
            z, w, lambda u, t: arakelov_green(u, t)
            + eps * math.cos(2 * math.pi * u.real))
        residuals.append(abs(wobbled - base))
        lifted = _kernel_pairing(
            z, w, lambda u, t: math.log(abs(theta(1, u + 2 * t.value, t))) / math.pi
            - (u + 2 * t.value).imag ** 2 / t.value.imag)
        residuals.append(abs(lifted - base))
    return residuals, ("kernel + const, + eps*cos and theta1 at u + 2 tau leave "
                       "pairings fixed, 10 draws")


def _kernel_pairing(z: Divisor, w: Divisor,
                    green: Callable[[complex, TauParameter], float]) -> float:
    """sum a * b * green(u, tau) over (P, a) in z and (Q, b) in w, by
    ``math.fsum``, with u the canonically oriented, unreduced P - Q, so that
    swapping z and w keeps every bit.  With ``arakelov_green`` it is the
    base of the altered-kernel sums, one kernel call per pair: the
    pairing's own kernel, so it equals ``linking_elliptic`` to roundoff."""
    t = z.curve.tau
    return math.fsum(
        a * b * green(p - q if (p.real, p.imag) <= (q.real, q.imag) else q - p, t)
        for p, a in z.terms for q, b in w.terms)


def _suite_principal_divisor(rng: random.Random) -> tuple[list, str]:
    # Abel's theorem: f = p - p(a) has the divisor D_a = [a] + [-a] - 2[0],
    # so <D_a, W> = (1/pi) sum_{(Q, b) in W} b log|p(Q) - p(a)| for a
    # degree-zero W disjoint from it.  The kernel's constant cancels against
    # deg W = 0, its quadratic term against a + (-a) - 2*0 = 0; p(Q) - p(a)
    # comes from Eisenstein's rows, which share no code with the kernel.
    residuals = []
    for _ in range(30):
        tau = _random_tau(rng)
        while True:
            a, *qs = [p.real + p.imag * tau.value
                      for p in _random_points(rng, 5, 0.0, 1.0)]
            pts = [0j, a, -a, *qs]
            if all(torus_distance(p, q, tau) >= 1e-3
                   for i, p in enumerate(pts) for q in pts[i + 1:]):
                break
        m, k = rng.choice((1, 2)), rng.choice((1, 2))
        w = Divisor.elliptic(tau, zip(qs, (m, -m, k, -k)))
        value = linking_elliptic(
            Divisor.elliptic(tau, [(a, 1), (-a, 1), (0j, -2)]), w).value
        abel = math.fsum(b * math.log(abs(_p_difference(q, a, tau)))
                         for q, b in w.terms) / math.pi
        residuals.append(abs(value - abel) / max(1.0, abs(value)))
    return residuals, ("<D_a, W> vs (1/pi) sum b log|p(Q) - p(a)| (Abel), "
                       "30 draws")


def _random_sign_family(rng: random.Random) -> GroupAction:
    """The group of one to three random generators of three signs each."""
    return GroupAction.closed([tuple(rng.choice((-1, 1)) for _ in range(3))
                               for _ in range(rng.randint(1, 3))])


def _suite_invariant_dims_dual_route(rng: random.Random) -> tuple[list, str]:
    actions = [standard_quotient_action(),
               *(_random_sign_family(rng) for _ in range(8))]
    residuals = []
    for action in actions:
        chars = invariant_dims(action)
        enum = invariant_dims_by_enumeration(action)
        residuals.extend(abs(chars[p, q] - enum[p, q])
                         for p in range(4) for q in range(4))
    return residuals, ("character averaging vs monomial enumeration, "
                       f"{len(actions)} groups (orders up to 8)")


def _suite_hodge_conjugation_symmetry(rng: random.Random) -> tuple[list, str]:
    actions = [standard_quotient_action(),
               *(_random_sign_family(rng) for _ in range(6))]
    residuals = []
    for action in actions:
        dims = invariant_dims(action)
        residuals.extend(abs(dims[p, q] - dims[q, p])
                         for p in range(4) for q in range(4))
    return residuals, "dims(p,q) == dims(q,p) for conjugation-compatible actions"


def _suite_serre_symmetry(rng: random.Random) -> tuple[list, str]:
    dims = hodge_diamond_x()
    residuals = [abs(dims[p, q] - dims[3 - p, 3 - q])
                 for p in range(4) for q in range(4)]
    return residuals, "dims(p,q) == dims(3-p,3-q) on the assembled diamond"


def _suite_massey_cross_path(rng: random.Random) -> tuple[list, str]:
    taus = [_random_tau(rng) for _ in range(50)]
    residuals = [abs(massey_value_closed_form(tau) - massey_value_via_linking(tau))
                 for tau in taus]
    return residuals, "closed form vs 8x elliptic linking, 50 tau"


def _suite_massey_reality(rng: random.Random) -> tuple[list, str]:
    taus = [_random_tau(rng) for _ in range(20)]
    values = [route(tau) for tau in taus
              for route in (massey_value_closed_form, massey_value_via_linking)]
    residuals = [0.0 if isinstance(v, float) and math.isfinite(v) else math.inf
                 for v in values]
    return residuals, "both routes return finite real values, 20 tau"


def _suite_massey_lambda_periodicity(rng: random.Random) -> tuple[list, str]:
    # tau -+ 1 negates both routes: |1 - lambda| inverts and [tau/2] -
    # [(1+tau)/2] changes sign.  A step toward Re tau = 0 stays in TAU_BOX.
    taus = [_random_tau(rng) for _ in range(30)]
    steps = [as_tau(t.value - 1.0 if t.value.real > 0.0 else t.value + 1.0)
             for t in taus]
    residuals = [abs(route(t1) + route(tau)) for tau, t1 in zip(taus, steps)
                 for route in (massey_value_closed_form, massey_value_via_linking)]
    return residuals, "tau -+ 1 negates both routes, 30 tau"


#: (name, runner, default tolerance) in report order.
_SUITES = (
    ("half-period-sum", _suite_half_period_sum, 5e-14),
    ("weierstrass-oracle", _suite_weierstrass_oracle, 5e-13),
    ("lambda-periodicity", _suite_lambda_periodicity, 1e-11),
    ("lambda-complement", _suite_lambda_complement, 1e-11),
    ("lambda-no-underflow", _suite_lambda_no_underflow, 1e-9),
    ("sphere-closed-form", _suite_sphere_closed_form, 5e-14),
    ("linking-bilinearity", _suite_linking_bilinearity, 5e-14),
    ("translation-invariance", _suite_translation_invariance, 5e-12),
    ("half-period-dual-route", _suite_half_period_dual_route, 5e-12),
    ("adjunction-square", _suite_adjunction_square, 5e-13),
    ("green-flexibility", _suite_green_flexibility, 1e-13),
    ("principal-divisor", _suite_principal_divisor, 5e-13),
    ("invariant-dims-dual-route", _suite_invariant_dims_dual_route, 1e-9),
    ("hodge-conjugation-symmetry", _suite_hodge_conjugation_symmetry, 1e-9),
    ("serre-symmetry", _suite_serre_symmetry, 1e-9),
    ("massey-cross-path", _suite_massey_cross_path, 1e-10),
    ("massey-reality", _suite_massey_reality, 1e-9),
    ("massey-lambda-periodicity", _suite_massey_lambda_periodicity, 1e-10),
)


def _worst_residual(residuals: list) -> float:
    """The one reduction rule: NaN if any residual is NaN, else the
    largest, 0.0 when there are none.  (``max`` alone would drop a NaN.)"""
    values = [float(r) for r in residuals]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def _suite_rng(seed: int, name: str) -> random.Random:
    """The stream of suite ``name`` under master seed ``seed``.  A string
    seed is hashed by SHA-512, and ``uniform``, ``choice`` and ``randint``
    draw the same numbers from it on every Python from 3.10 on, so the
    summary of a seed does not depend on the interpreter."""
    return random.Random(f"holink-verify:{seed}:{name}")


def run_all(seed: int = 42, tol: float | None = None) -> list[SuiteResult]:
    """Run every suite, each on its own ``_suite_rng(seed, name)``.

    ``tol``, when given (positive and finite), replaces each suite's default
    tolerance.  The verdict, worst residual below tolerance, is decided here.
    """
    if tol is not None:
        _check_tolerance(tol)
    results = []
    for name, runner, default_tol in _SUITES:
        limit = default_tol if tol is None else float(tol)
        residuals, detail = runner(_suite_rng(seed, name))
        worst = _worst_residual(residuals)
        results.append(SuiteResult(name, worst < limit, worst, limit, detail))
    return results


def format_summary(results: list[SuiteResult], seed: int,
                   tol: float | None = None) -> str:
    """Fixed-format text summary; byte-identical for identical inputs."""
    tol_text = "default" if tol is None else f"{float(tol):.3e}"
    lines = [f"verification suites: seed={seed} tol={tol_text}"]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name:<28s} worst={r.worst:.6e}  "
                     f"tol={r.tolerance:.3e}  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"result: {n_pass}/{len(results)} suites passed")
    return "\n".join(lines) + "\n"
