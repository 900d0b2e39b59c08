"""Seeded verification suites for every numerical invariant in the package.

Each suite draws its own random samples from a child seed derived from the
master seed, evaluates one invariant, and returns its residuals;
``run_all`` alone reduces them to a worst residual and decides whether
that passes its tolerance.  A NaN residual makes the worst NaN, which fails.
The formatted summary is a pure function of (seed, tolerance override), so
two runs with the same arguments produce byte-identical text.

A tolerance override, when given, replaces the per-suite defaults across
the board.  Suites whose residuals are exactly zero (the integer-valued
Hodge checks) pass any positive tolerance.  Each floating-point default
sits 7 to 210 times above the suite's worst residual over seeds 0-199;
the residuals sit far above 1e-30, so an absurd override fails loudly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    _corner_distance,
    _extrapolated_lattice_sums_p,
    _theta_series,
    as_tau,
    half_period_values,
    lambda_complement_ratio,
    modular_lambda,
    torus_distance,
    weierstrass_p,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

#: The tau sampling box used throughout: Re in [-1, 1], Im in [0.3, 3].
TAU_BOX = ((-1.0, 1.0), (0.3, 3.0))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str


def _random_tau(rng: np.random.Generator) -> TauParameter:
    """A tau drawn from TAU_BOX, validated once: suites hand the
    TauParameter to the library and use ``.value`` for their own arithmetic."""
    (re_lo, re_hi), (im_lo, im_hi) = TAU_BOX
    return as_tau(complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi)))


def _random_annulus_point(rng: np.random.Generator) -> complex:
    r_lo, r_hi = 0.1, 0.3
    while True:
        x, y = rng.uniform(-r_hi, r_hi, size=2)
        if r_lo <= abs(complex(x, y)) <= r_hi:
            return complex(x, y)


def _disjoint_pair(rng: np.random.Generator, tau: TauParameter,
                   ) -> tuple[Divisor, Divisor]:
    """Two random degree-zero 2-point divisors on C_tau with separated supports."""
    while True:
        pts = [complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
               for _ in range(4)]
        pts = [p.real + p.imag * tau.value for p in pts]
        ok = all(torus_distance(pts[i], pts[j], tau) > 1e-3
                 for i in range(4) for j in range(i + 1, 4))
        if ok:
            z = Divisor.elliptic(tau, [(pts[0], 1), (pts[1], -1)])
            w = Divisor.elliptic(tau, [(pts[2], 1), (pts[3], -1)])
            return z, w


def _suite_half_period_sum(rng: np.random.Generator) -> tuple[list, str]:
    residuals = []
    for _ in range(100):
        hp = half_period_values(_random_tau(rng))
        scale = max(abs(hp.e1), abs(hp.e2), abs(hp.e3))
        residuals.append(abs(hp.e1 + hp.e2 + hp.e3) / scale)
    return residuals, "e1+e2+e3 relative to max |e_k|, 100 tau"


def _suite_weierstrass_oracle(rng: np.random.Generator) -> tuple[list, str]:
    # The square sums at radii 25, 50 and 100, extrapolated, leave an
    # O(radius^-4) tail that grows with |z|, so the sample points stay
    # inside |z| <= 0.3.
    residuals = []
    for _ in range(2):
        tau = _random_tau(rng)
        zs = [_random_annulus_point(rng) for _ in range(10)]
        residuals.extend(
            _scaled_error(p, weierstrass_p(z, tau))
            for z, p in zip(zs, _extrapolated_lattice_sums_p(zs, tau, 100)))
    return residuals, ("theta path vs lattice sums at radii 25, 50, 100 "
                       "extrapolated, 2 tau x 10 points")


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


def _suite_lambda_periodicity(rng: np.random.Generator) -> tuple[list, str]:
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


def _suite_lambda_complement(rng: np.random.Generator) -> tuple[list, str]:
    taus = [_random_tau(rng) for _ in range(100)]
    residuals = [_scaled_error(lambda_complement_ratio(tau),
                               1.0 - modular_lambda(tau)) for tau in taus]
    return residuals, "(e3-e1)/(e2-e1) vs 1-lambda, 100 tau"


def _suite_lambda_no_underflow(rng: np.random.Generator) -> tuple[list, str]:
    lams = [modular_lambda(_random_tau(rng)) for _ in range(100)]
    sizes = [min(abs(lam), abs(1.0 - lam)) for lam in lams]
    # inf where lambda or 1 - lambda underflows, or is NaN (no comparison holds)
    residuals = [0.0 if size > 1e-300 else math.inf for size in sizes]
    return residuals, (f"min(|lambda|, |1-lambda|) = {min(sizes):.6e} "
                       "over 100 tau")


def _suite_sphere_closed_form(rng: np.random.Generator) -> tuple[list, str]:
    residuals = []
    for _ in range(50):
        while True:
            p, q, r, s = [complex(a, b)
                          for a, b in rng.uniform(-2.0, 2.0, size=(4, 2))]
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


def _suite_linking_bilinearity(rng: np.random.Generator) -> tuple[list, str]:
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
        pts = [complex(a, b) for a, b in rng.uniform(-2.0, 2.0, size=(6, 2))]
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


def _suite_translation_invariance(rng: np.random.Generator) -> tuple[list, str]:
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


def _suite_half_period_dual_route(rng: np.random.Generator) -> tuple[list, str]:
    residuals = []
    for _ in range(50):
        tau = _random_tau(rng)
        z = Divisor.elliptic(tau, [(0.0, 1), (0.5, -1)])
        w = Divisor.elliptic(tau, [(tau.value / 2, 1), ((1 + tau.value) / 2, -1)])
        hp = half_period_values(tau)
        closed = math.log(abs(hp.e3 - hp.e1) / abs(hp.e2 - hp.e1)) / (2 * math.pi)
        residuals.append(abs(linking_elliptic(z, w).value - closed))
    return residuals, "green double sum vs p-function closed form, 50 tau"


def _suite_adjunction_square(rng: np.random.Generator) -> tuple[list, str]:
    spec = RationalMapSpec.power(2)
    residuals = []
    while len(residuals) < 50:
        pts = [complex(a, b) for a, b in rng.uniform(0.3, 2.0, size=(4, 2))]
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


def _suite_green_flexibility(rng: np.random.Generator) -> tuple[list, str]:
    # Admissible kernel changes leave degree-zero pairings fixed: an added
    # constant cancels against the zero total multiplicity, and the
    # oscillation eps*cos(2*pi*Re u) drops out whenever one divisor has
    # vanishing first Fourier moments, which the four-point configuration
    # [v] + [v+1/2] - [v+1/4] - [v+3/4] arranges identically in v.
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
    return residuals, "kernel + const and + eps*cos leave pairings fixed, 10 draws"


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


def _laplacian_grid(tau: complex) -> np.ndarray:
    """Five-point finite-difference Laplacian of the Green kernel over the
    n x n grid of fundamental-cell midpoints at least 3/n from the lattice,
    in row-major cell order, from one theta series call over the stencil
    points: they lie inside the cell, which reduction leaves as it is.  g
    is formed from theta1's definition, apart from the pairing's kernel."""
    import numpy as np
    t = as_tau(tau)
    step, n = 2e-5, 64
    h = 1.0 / n
    mid = (np.arange(n) + 0.5) * h
    u = np.array([p for p in (mid[:, None] + mid * t.shifted).ravel().tolist()
                  if _corner_distance(p, t) >= 3.0 * h])
    s = np.concatenate([u + step, u - step, u + 1j * step, u - 1j * step, u])
    th1 = _theta_series(1, s, t.shifted).tolist()
    g = np.array([math.log(abs(th)) / math.pi - p.imag ** 2 / t.value.imag
                  for th, p in zip(th1, s.tolist())]).reshape(5, u.size)
    return (g[0] + g[1] + g[2] + g[3] - 4.0 * g[4]) / (step * step)


def _suite_green_laplacian(rng: np.random.Generator) -> tuple[list, str]:
    tau = 1j
    vals = _laplacian_grid(tau)
    mean = float(vals.mean())
    spread = float((vals.max() - vals.min()) / abs(mean))
    return [spread], (f"64x64 grid at tau=i: mean {mean:+.8f} "
                      f"(flat value -2/Im tau), {vals.size} cells")


def _random_sign_family(rng: np.random.Generator, conjugate: bool,
                        ) -> GroupAction:
    def draw() -> tuple[int, ...]:
        if conjugate:
            half = tuple(int(s) for s in rng.choice([-1, 1], size=3))
            return half + half
        return tuple(int(s) for s in rng.choice([-1, 1], size=6))

    gens = [draw() for _ in range(int(rng.integers(1, 4)))]
    return GroupAction.closed(gens, require_conjugation=conjugate)


def _suite_invariant_dims_dual_route(rng: np.random.Generator) -> tuple[list, str]:
    actions = [standard_quotient_action()]
    for k in range(8):
        actions.append(_random_sign_family(rng, conjugate=(k % 2 == 0)))
    residuals = []
    for action in actions:
        chars = invariant_dims(action)
        enum = invariant_dims_by_enumeration(action)
        residuals.extend(abs(chars[p, q] - enum[p, q])
                         for p in range(4) for q in range(4))
    return residuals, ("character averaging vs monomial enumeration, "
                       f"{len(actions)} groups (orders up to 8)")


def _suite_hodge_conjugation_symmetry(rng: np.random.Generator) -> tuple[list, str]:
    actions = [standard_quotient_action()]
    for _ in range(6):
        actions.append(_random_sign_family(rng, conjugate=True))
    residuals = []
    for action in actions:
        dims = invariant_dims(action)
        residuals.extend(abs(dims[p, q] - dims[q, p])
                         for p in range(4) for q in range(4))
    return residuals, "dims(p,q) == dims(q,p) for conjugation-compatible actions"


def _suite_serre_symmetry(rng: np.random.Generator) -> tuple[list, str]:
    dims = hodge_diamond_x()
    residuals = [abs(dims[p, q] - dims[3 - p, 3 - q])
                 for p in range(4) for q in range(4)]
    return residuals, "dims(p,q) == dims(3-p,3-q) on the assembled diamond"


def _suite_massey_cross_path(rng: np.random.Generator) -> tuple[list, str]:
    taus = [_random_tau(rng) for _ in range(50)]
    residuals = [abs(massey_value_closed_form(tau) - massey_value_via_linking(tau))
                 for tau in taus]
    return residuals, "closed form vs 8x elliptic linking, 50 tau"


def _suite_massey_reality(rng: np.random.Generator) -> tuple[list, str]:
    taus = [_random_tau(rng) for _ in range(20)]
    values = [route(tau) for tau in taus
              for route in (massey_value_closed_form, massey_value_via_linking)]
    residuals = [0.0 if isinstance(v, float) and math.isfinite(v) else math.inf
                 for v in values]
    return residuals, "both routes return finite real values, 20 tau"


def _suite_massey_lambda_periodicity(rng: np.random.Generator) -> tuple[list, str]:
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
    ("weierstrass-oracle", _suite_weierstrass_oracle, 1e-7),
    ("lambda-periodicity", _suite_lambda_periodicity, 1e-11),
    ("lambda-complement", _suite_lambda_complement, 1e-11),
    ("lambda-no-underflow", _suite_lambda_no_underflow, 1e-9),
    ("sphere-closed-form", _suite_sphere_closed_form, 5e-14),
    ("linking-bilinearity", _suite_linking_bilinearity, 5e-14),
    ("translation-invariance", _suite_translation_invariance, 5e-12),
    ("half-period-dual-route", _suite_half_period_dual_route, 5e-12),
    ("adjunction-square", _suite_adjunction_square, 5e-13),
    ("green-flexibility", _suite_green_flexibility, 1e-13),
    ("green-laplacian", _suite_green_laplacian, 1e-4),
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


def run_all(seed: int = 42, tol: float | None = None) -> list[SuiteResult]:
    """Run every suite with child seeds spawned from ``seed``.

    ``tol``, when given (positive and finite), replaces each suite's default
    tolerance.  The verdict, worst residual below tolerance, is decided here.
    """
    import numpy as np
    if tol is not None:
        _check_tolerance(tol)
    children = np.random.SeedSequence(seed).spawn(len(_SUITES))
    results = []
    for (name, runner, default_tol), child in zip(_SUITES, children):
        limit = default_tol if tol is None else float(tol)
        residuals, detail = runner(np.random.default_rng(child))
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
