"""Jacobi theta series, Weierstrass half-period data and the modular lambda
function, in double precision.

Conventions, pinned here and relied on by every consumer in the package:

* the nome is q = exp(i*pi*tau), and theta arguments use the unit-period
  normalization, so that

      theta1(z + 1, tau) = -theta1(z, tau),
      theta1(z + tau, tau) = -exp(-i*pi*tau - 2*pi*i*z) * theta1(z, tau);

* lambda(tau) = theta2(0, tau)^4 / theta3(0, tau)^4, which equals the
  half-period quotient (e3 - e2) / (e1 - e2); the verify suites check the
  convention (the lambda-complement suite and exact singular values);

* half-period values are e1 = p(1/2), e2 = p(tau/2), e3 = p((1+tau)/2)
  for the Weierstrass p-function of the lattice Z + Z*tau.  In terms of
  the zero-argument theta constants these are

      e1 =  (pi^2/3) * (theta3^4 + theta4^4)
      e2 = -(pi^2/3) * (theta2^4 + theta3^4)
      e3 =  (pi^2/3) * (theta2^4 - theta4^4)

  which sum to zero identically and reproduce p(1/2; Z+Zi) = 6.87518...
  (the lemniscatic value) at tau = i.

All series are truncated adaptively: summation stops once an upper bound
for the next term drops below EPS_SERIES * (1 + |partial sum|), within
about 136 terms at Im tau >= MIN_IM_TAU, as _EXP_CAP bounds the peak term.

Two paths evaluate theta, selected by input: the scalar series
``_theta_series`` (behind ``theta`` and its cache ``_theta_constants``) for
one point, and one numpy kernel, ``_theta_array(kind, z, tau)`` with z
broadcast against tau, for many.  The scalar series keeps no state: it
forms each term from (kind, z, tau) alone, so its bits do not depend on
earlier calls.  The kernel sums the same ``_paired_term``s in the same
order with the same per-point stopping rule (|partial sum| is
``np.hypot``, the libm function behind ``abs``), so its values equal the
scalar series' bit for bit (tests compare them by ``float.hex``).  Where
every z is 0 it takes one exponential per term and leaves the |Im z| part
out of the bound.  ``_batch_lambdas``, ``holink scan``'s path, feeds it
THETA_BLOCK consecutive taus at a time at z = 0, for kinds 2 and 3; its
taus come from a grid that has already applied the tau rule, so it
validates nothing itself.  ``verify``'s Green-kernel Laplacian runs it
for theta1 over many z of one tau, all inside the cell, where reduction
leaves a point as it is.  One point does not go through the kernel: a size-1
call takes 170-250 us against 5-15 us for the scalar loops (2-vCPU x86-64
host, numpy 2.4), while over verify's 20,320 Green-kernel points it costs
about 1 us a point.  numpy is imported by these array paths only, inside
their functions, so a process that builds no array never loads it.  No
fundamental-domain reduction of tau is performed; construction of
``TauParameter`` requires Im tau >= MIN_IM_TAU (= 0.05), as the q-series
lose precision near that floor (|q| -> 0.855).  Every evaluator of a
lattice quantity, and the public ``theta``, runs at
``TauParameter.shifted``, an exact shift into |Re tau| <= 1 taken once per
tau, so no phase of a term leaves double range.  The elliptic linking
pairing sums theta1 in a third form, from per-point phases and the per-tau
coefficients ``TauParameter._green_terms``, at differences with |Im u| <=
Im tau / 2 (see ``linking``).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, PoleError

if TYPE_CHECKING:
    import numpy as np

MIN_IM_TAU = 0.05
EPS_SERIES = 1e-18

#: Taus per block of ``_batch_lambdas`` (one call of the array kernel per
#: theta kind, then lambda over the block): enough to spread
#: numpy's per-call cost thin, few enough that a long sequence holds one
#: block of arrays at a time.
THETA_BLOCK = 1024

#: Snap radius onto half-integer lattice coordinates in ``reduce_mod_lattice``.
SNAP_TOL = 1e-12

#: Distance from the lattice within which p and the Green kernel raise PoleError.
POLE_TOL = 1e-12

# Largest exponent handed to exp() before we give up; doubles overflow at ~709.
_EXP_CAP = 700.0

# log(EPS_SERIES / 2): a series at z = 0 stops at the latest on the first term
# whose log bound is below it.
_LOG_HALF_EPS = math.log(EPS_SERIES / 2.0)

_PI = math.pi
_PI2_3 = math.pi ** 2 / 3.0
_IPI = 1j * _PI
#: theta1's factor (-1)^n * (-i), indexed by n & 1.
_THETA1_SIGNS = ((-1) ** 0 * (-1j), (-1) ** 1 * (-1j))


@dataclass(frozen=True)
class TauParameter:
    """Modulus of the curve C / (Z + Z*tau).

    Requires Im tau >= MIN_IM_TAU, which also bounds the nome, |q| < 0.855.
    There is deliberately no reduction to a fundamental domain: ``value``
    keeps the caller's tau, so lambda(tau + 1) stays testable.  Every
    evaluator runs at ``shifted = _even_shift(value)``, the same lattice.
    """

    value: complex
    shifted: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(f"tau must be finite, got {v!r}")
        if v.imag <= 0.0:
            raise DomainError(f"tau {v!r} not in upper half-plane")
        if v.imag < MIN_IM_TAU:
            raise DomainError(
                f"Im tau = {v.imag:g} is below the supported floor {MIN_IM_TAU:g}; "
                "the q-series loses double-precision accuracy near the real axis"
            )
        object.__setattr__(self, "shifted", _even_shift(v))

    @cached_property
    def _green_terms(self) -> tuple[tuple[tuple[complex, complex], ...],
                                    complex, complex]:
        """The tau-only data of ``linking_elliptic``'s kernel at ``shifted``:
        (c_n, d_n) = (-1)^n q^(n(n+1)) * (1, exp(pi*Im(tau)*n)), highest n
        first, for each n with exp(-pi*Im(tau)*n^2) >= EPS_SERIES / 2, then
        the unit phases exp(2*pi*i*Re tau) and exp(-2*pi*i*Re tau).
        |c_n| <= |d_n| = exp(-pi*Im(tau)*n^2), so no datum leaves double
        range, and from Im tau = 13.5 on only n = 0 remains."""
        tv = self.shifted
        coefs = [(1.0 + 0.0j, 1.0 + 0.0j)]
        n = 1
        while -_PI * tv.imag * n * n >= _LOG_HALF_EPS:
            phase = _PI * tv.real * (n * (n + 1))
            c = cmath.exp(complex(-_PI * tv.imag * (n * (n + 1)), phase))
            d = cmath.exp(complex(-_PI * tv.imag * (n * n), phase))
            coefs.append((-c, -d) if n & 1 else (c, d))
            n += 1
        return tuple(reversed(coefs)), _turn(tv.real), _turn(-tv.real)

    @cached_property
    def _gauss_basis(self) -> tuple[complex, complex]:
        """A Lagrange-Gauss-reduced basis (w1, w2) of Z + Z*shifted:
        |w1| <= |w2| <= |w2 - m*w1| for every integer m."""
        w1, w2 = 1.0 + 0.0j, self.shifted
        while True:
            if abs(w2) < abs(w1):
                w1, w2 = w2, w1
            m = round((w2 * w1.conjugate()).real / abs(w1) ** 2)
            if m == 0:
                return w1, w2
            w2 -= m * w1


def as_tau(tau: TauParameter | complex) -> TauParameter:
    """Coerce a bare complex number to a validated TauParameter.

    Public functions call this once and hand the TauParameter, never its
    bare ``.value``, to the functions they call.
    """
    if isinstance(tau, TauParameter):
        return tau
    return TauParameter(complex(tau))


def _turn(x: float) -> complex:
    """exp(2*pi*i*x) for a finite x, taken at x - round(x), which is exact."""
    return cmath.exp(complex(0.0, 2.0 * _PI * (x - round(x))))


def _as_int(name: str, value) -> int:
    """value as an int: any integral number but a bool, else ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return operator.index(value)


def _paired_term(kind: int, n: int, e_plus, e_minus):
    """The n-th paired term of theta_kind from its exponentials at +-k, for
    complex numbers or arrays alike: the sign rule of both theta paths."""
    if kind == 1:
        return _THETA1_SIGNS[n & 1] * (e_plus - e_minus)
    if kind == 4 and n & 1:
        return -(e_plus + e_minus)
    return e_plus + e_minus


def theta(kind: int, z: complex, tau: TauParameter | complex) -> complex:
    """Jacobi theta function theta_kind(z, tau), kind in {1, 2, 3, 4}.

    Unit-period convention (q = exp(i*pi*tau)):

        theta1(z) = -i * sum_n (-1)^n q^((n+1/2)^2) e^(i*pi*(2n+1)*z)
        theta2(z) =      sum_n        q^((n+1/2)^2) e^(i*pi*(2n+1)*z)
        theta3(z) =      sum_n        q^(n^2)       e^(2*pi*i*n*z)
        theta4(z) =      sum_n (-1)^n q^(n^2)       e^(2*pi*i*n*z)

    with n over Z; kind is any integral number but a bool.  One loop serves
    all kinds: the terms of exponent a = n + 1/2 (kinds 1, 2) or a = n >= 1
    (kinds 3, 4, after the n = 0 term) are paired at frequencies +-k,
    k = 2a, so oddness of theta1 holds exactly in floating point.
    Truncation stops once an upper bound for the next paired term falls
    below EPS_SERIES * (1 + |partial sum|), with no term cap; a term too
    large for double precision raises ConvergenceError.
    The series runs at ``tau.shifted`` = tau - 2k, k = round(Re tau / 2),
    and, where |Re z| > 1, at z - m, m = round(Re z): both shifts are exact.
    theta3 and theta4 are unchanged by them; theta1 and theta2 take the
    factor i^(k + 2m), by swapping and negating parts, so signed zeros keep
    their bits.  So theta1 is 0 at every even integer z.
    """
    kind = _as_int("theta kind", kind)
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"theta kind must be 1..4, got {kind!r}")
    t = as_tau(tau)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"theta argument must be finite, got {z!r}")
    m = round(z.real) if abs(z.real) > 1.0 else 0
    value = _theta_series(kind, z - m, t.shifted)
    if kind in (3, 4):
        return value
    turns = (round(t.value.real / 2.0) + 2 * m) % 4
    if turns & 1:
        value = complex(-value.imag, value.real)
    return -value if turns & 2 else value


def _theta_series(kind: int, z: complex, tau: complex) -> complex:
    """``theta``'s series at a valid kind, finite z and a shifted tau."""
    abs_im_z = abs(z.imag)
    half = kind in (1, 2)
    total = 0.0 + 0.0j if half else 1.0 + 0.0j
    for n in itertools.count(0 if half else 1):
        a = n + 0.5 if half else n
        k = 2 * a
        # |term| <= exp(-pi*Im(tau)*a^2 + pi*k*|Im z|) for each exponential.
        log_mag = -_PI * tau.imag * a * a + _PI * k * abs_im_z
        if not -math.inf < log_mag <= _EXP_CAP:
            # Or -inf or NaN, far up the imaginary axis: -pi*Im(tau) can
            # overflow to -inf where the product is finite (a = 1/2), and
            # pi*k*|Im z| to +inf.  The same bound as
            # pi*k*(|Im z| - k*Im(tau)/4) has no overflowing part.
            log_mag = _PI * k * (abs_im_z - 0.25 * k * tau.imag)
            if log_mag > _EXP_CAP:
                raise ConvergenceError(
                    f"theta{kind} term at n={n} exceeds double range "
                    f"(z={z!r}, tau={tau!r}); reduce z modulo "
                    "the lattice first")
        bound = 2.0 * math.exp(log_mag)
        if not bound >= EPS_SERIES * (1.0 + abs(total)):
            return total
        ta = tau * a * a
        kz = k * z
        e_plus = cmath.exp(_IPI * (ta + kz))
        e_minus = cmath.exp(_IPI * (ta - kz))
        total += _paired_term(kind, n, e_plus, e_minus)


def _even_shift(tau: complex) -> complex:
    """tau - 2*round(Re tau / 2) where |Re tau| > 1, else tau.  The shift
    is exact and keeps the lattice, e1, e2, e3 and the 2-torsion points;
    theta3, theta4 and theta2^4 have period 2.  An odd shift would not: it
    maps lambda to lambda / (lambda - 1)."""
    if abs(tau.real) > 1.0:
        return tau - 2.0 * round(tau.real / 2.0)
    return tau


@lru_cache(maxsize=512)
def _theta_constants(s: complex) -> tuple[complex, complex, complex]:
    """(theta2, theta3, theta4) at z = 0 and a ``TauParameter.shifted`` s,
    where theta2 gains a power of i (only theta2^4 is used).  It stays an
    ``lru_cache`` because ``bench/trace.py`` reads its ``cache_info()``."""
    return tuple(_theta_series(kind, 0.0, s) for kind in (2, 3, 4))


def _theta_array(kind: int, z, tau) -> np.ndarray:
    """theta_kind(z, tau) over z broadcast against tau (complex arrays or
    scalars), equal to ``_theta_series`` bit for bit.

    Its taus must be shifted (|Re tau| <= 1) and no term may pass
    _EXP_CAP: its two callers give it ``_even_shift``ed taus at z = 0, and
    in-cell z at tau = i.  ``_theta_series``'s loop for every point at once:
    the same ``_paired_term``s in the same order, each point stopping on its
    own partial sum.  Exponentials, the stopping bound's included, go
    through complex ``np.exp``, which computes exp(x) * (cos y, sin y) with
    libm as ``cmath.exp`` does (numpy's real float64 ``exp`` has SIMD loops
    that can differ from ``math.exp`` in the last bit), and |partial sum| is
    ``np.hypot``, libm's as in ``abs``.  Where every z is 0 each term takes
    one exponential and the bound has no |Im z| part.
    """
    import numpy as np
    # Far up the imaginary axis -pi * Im(tau) * a^2 overflows to -inf, whose
    # exp is the bound 0 that stops the scalar loop too: not an error.
    with np.errstate(over="ignore"):
        z, tau = np.broadcast_arrays(np.asarray(z, complex),
                                     np.asarray(tau, complex))
        at_zero = not z.any()
        im = tau.imag
        abs_im_z = np.abs(z.imag)
        half = kind in (1, 2)
        total = np.zeros(z.shape, complex) if half else np.ones(z.shape, complex)
        active = np.ones(z.shape, dtype=bool)
        for n in itertools.count(0 if half else 1):
            a = n + 0.5 if half else n
            k = 2 * a
            log_mag = -_PI * im * a * a
            if not at_zero:
                log_mag = log_mag + _PI * k * abs_im_z
            bound = 2.0 * np.exp(log_mag + 0j).real
            active &= bound >= EPS_SERIES * (1.0 + np.hypot(total.real,
                                                            total.imag))
            if not active.any():
                return total
            ta = tau * a * a
            if at_zero:
                e_plus = e_minus = np.exp(1j * _PI * ta)
            else:
                e_plus = np.exp(1j * _PI * (ta + k * z))
                e_minus = np.exp(1j * _PI * (ta - k * z))
            term = _paired_term(kind, n, e_plus, e_minus)
            total = np.where(active, total + term, total)


@dataclass(frozen=True)
class HalfPeriodValues:
    """Weierstrass p at the three half-periods of Z + Z*tau.

    e1 = p(1/2), e2 = p(tau/2), e3 = p((1+tau)/2); e1 + e2 + e3 = 0.
    """

    e1: complex
    e2: complex
    e3: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.e1, self.e2, self.e3)


def _half_periods(c2: complex, c3: complex,
                  c4: complex) -> tuple[complex, complex, complex]:
    """(e1, e2, e3) from the theta constants: the only copy of the formulas."""
    t2, t3, t4 = c2 ** 4, c3 ** 4, c4 ** 4
    return _PI2_3 * (t3 + t4), -_PI2_3 * (t2 + t3), _PI2_3 * (t2 - t4)


def half_period_values(tau: TauParameter | complex) -> HalfPeriodValues:
    """Half-period values via zero-argument theta constants.

    Derivation sketch: p(z) - p(omega_j) is a perfect square of a theta
    quotient with a double zero at omega_j, which yields the pairwise
    differences e1 - e2 = pi^2 theta3^4, e1 - e3 = pi^2 theta4^4,
    e3 - e2 = pi^2 theta2^4; combining with e1 + e2 + e3 = 0 gives the
    closed forms in ``_half_periods``.  Independently cross-checked
    against the direct lattice sum (``lattice_sum_p``) in the test suite.
    """
    return HalfPeriodValues(*_half_periods(*_theta_constants(as_tau(tau).shifted)))


def reduce_mod_lattice(z: complex, tau: TauParameter | complex) -> complex:
    """Representative of z in the cell [0,1) x [0,1) of (1, tau.shifted).

    Coordinates within SNAP_TOL of a half-integer are snapped onto it, so
    points meant to be half-periods are recognized exactly downstream.  A
    point whose lattice coordinates lie strictly inside the cell, off the
    snap lines, is its own representative, bit for bit; so reducing a
    reduced point again leaves it where it is.  Far out, where float
    coordinates would have lost digits, the reduction is exact.  A finite
    z whose coordinates leave double range raises DomainError.  Its body,
    ``_reduce_point``, serves ``Divisor`` and ``torus_distance`` too.
    """
    return _reduce_point(complex(z), as_tau(tau).shifted)


#: Largest |x| + 2|y| of the lattice coordinates (x, y) that
#: ``_reduce_point`` reduces in floats.  Their error is about
#: eps * (|x| + (1 + |Re tau|) * |y|) <= eps * (|x| + 2|y|) at a shifted
#: tau, so within the limit it stays below 2**-42 (2.3e-13), under
#: SNAP_TOL; beyond it the reduction is exact.
_FLOAT_REDUCTION_LIMIT = 2.0 ** 10


def _reduce_point(z: complex, tv: complex) -> complex:
    """``reduce_mod_lattice`` of a complex z at a shifted tau value tv."""
    # coordinates in the basis (1, tau): z = x + y*tau
    y = z.imag / tv.imag
    x = z.real - y * tv.real
    if not abs(x) + 2.0 * abs(y) <= _FLOAT_REDUCTION_LIMIT:  # an inf or NaN too
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(
                f"z = {z!r} has no lattice coordinates in double range at "
                f"tau = {tv!r}")
        return _reduce_point(_exact_cell_point(z, tv), tv)
    # each coordinate mod 1, snapped onto a half-integer within SNAP_TOL
    xs = x - math.floor(x)
    half = round(2.0 * xs) / 2.0
    if abs(xs - half) < SNAP_TOL:
        xs = half % 1.0
    ys = y - math.floor(y)
    half = round(2.0 * ys) / 2.0
    if abs(ys - half) < SNAP_TOL:
        ys = half % 1.0
    if 0.0 < xs == x and 0.0 < ys == y:
        return z
    return complex(xs + ys * tv.real, ys * tv.imag)


def _exact_cell_point(z: complex, tv: complex) -> complex:
    """The point of the cell congruent to z, from z's rational lattice
    coordinates reduced mod 1 and rounded once.  ``fractions`` is imported
    here, off the import path, as numpy is in the array paths."""
    from fractions import Fraction
    tr, ti = Fraction(tv.real), Fraction(tv.imag)
    y = Fraction(z.imag) / ti
    x = Fraction(z.real) - y * tr
    x, y = x - math.floor(x), y - math.floor(y)
    return complex(x + y * tr, y * ti)


def _corner_distance(zr: complex, t: TauParameter) -> float:
    """Distance from zr, a point of the fundamental cell, to the nearest of
    its corners 0, 1, tau, 1+tau: the distance from the lattice wherever it
    is below min(1, Im tau)/2, since no other lattice point comes nearer."""
    tv = t.shifted
    return min(abs(zr), abs(zr - 1.0), abs(zr - tv), abs(zr - 1.0 - tv))


def torus_distance(u: complex, v: complex, tau: TauParameter | complex) -> float:
    """Distance between u and v modulo the lattice Z + Z*tau: one reduction
    of the difference, then the distance to the nearest cell corner.  On a
    skewed cell a nearer lattice point can lie outside the cell, but only
    where the corner distance is at least min(1, Im tau)/2; there the
    distance is that to the nearest corner of the point's cell in a
    Lagrange-Gauss-reduced basis, which is the nearest lattice point.  The
    difference is taken in one canonical orientation, so that
    torus_distance(u, v) == torus_distance(v, u) bit for bit.  Its body,
    ``_reduced_difference``, serves ``linking``'s disjointness test too."""
    t = as_tau(tau)
    ur, dist = _reduced_difference(complex(u), complex(v), t)
    if dist < min(1.0, t.shifted.imag) / 2.0:
        return dist
    w1, w2 = t._gauss_basis
    det = w1.real * w2.imag - w1.imag * w2.real
    a = (ur.real * w2.imag - ur.imag * w2.real) / det
    b = (w1.real * ur.imag - w1.imag * ur.real) / det
    p = (a - math.floor(a)) * w1 + (b - math.floor(b)) * w2
    return min(abs(p), abs(p - w1), abs(p - w2), abs(p - w1 - w2))


def _reduced_difference(u: complex, v: complex,
                        t: TauParameter) -> tuple[complex, float]:
    """(reduced oriented difference, its corner distance) of complex u, v."""
    d = u - v if (u.real, u.imag) <= (v.real, v.imag) else v - u
    ur = _reduce_point(d, t.shifted)
    return ur, _corner_distance(ur, t)


def lattice_sum_p(z: complex, tau: TauParameter | complex, radius: int) -> complex:
    """Weierstrass p(z) by direct lattice summation; the slow oracle.

    Sums 1/z^2 + sum' [1/(z-w)^2 - 1/w^2] over w = m + n*tau with
    |m|, |n| <= radius (symmetric square truncation), grouping w with -w so
    that evenness in z holds exactly in floating point and the conditionally
    convergent odd part cancels identically.  The remaining truncation error
    is O(|z|^2 / radius^2) (absolute bound O(1/radius)); radius 400 gives
    roughly 1e-6 * |z|^2 near the square lattice.  Summation order is fixed
    (n = 0 row first, then rows n = 1..radius), so results are reproducible
    bit for bit.  A call holds at most five arrays of R + (2R+1)R complex
    values (25.7 MB at radius 400).  The radius is any integral number but
    a bool.
    """
    t = as_tau(tau)
    z = complex(z)
    radius = _as_int("radius", radius)
    if radius < 10:
        raise ValueError(f"radius must be >= 10, got {radius}")
    if torus_distance(z, 0.0, t) < POLE_TOL:
        raise PoleError(f"z = {z!r} lies on the lattice of tau = {t.value!r}")
    return _lattice_sums_p([z], t, radius)[0]


def _lattice_sums_p(zs: list[complex], t: TauParameter,
                    radius: int) -> list[complex]:
    """``lattice_sum_p`` at each z of ``zs``, bit for bit, off the lattice:
    the half-lattice w and 2/w^2 are built once for all of them, and each z
    is one whole-array expression over w (``np.sum``'s pairwise order
    depends only on the length)."""
    import numpy as np
    # Half-lattice enumeration: (m, 0) for m = 1..R, then (m, n) for n >= 1,
    # as m + n*Re tau and n*Im tau: the parts the complex m + n*tau rounds to.
    m = np.arange(-radius, radius + 1, dtype=np.float64)
    n = np.arange(1, radius + 1, dtype=np.float64)[:, None]
    w = np.empty(radius * (2 * radius + 2), dtype=np.complex128)
    w[:radius] = m[radius + 1:]
    grid = w[radius:].reshape(radius, 2 * radius + 1)
    grid.real, grid.imag = n * t.shifted.real + m, n * t.shifted.imag
    c = 2.0 / np.square(w)
    return [complex(1.0 / z ** 2 + np.sum(1.0 / np.square(z - w)
                                          + 1.0 / np.square(z + w) - c))
            for z in zs]


def _extrapolated_lattice_sums_p(zs: list[complex], t: TauParameter,
                                 radius: int) -> list[complex]:
    """p at each z of ``zs`` off the lattice, by two Richardson steps
    (Richardson & Gaunt, Phil. Trans. A 226, 1927) over the square sums
    s1, s2, s4 of ``_lattice_sums_p`` at radius/4, radius/2 and radius (a
    multiple of 4): r1 = (4*s2 - s1)/3 and r2 = (4*s4 - s2)/3 cancel the
    R^-2 tail, and (8*r2 - r1)/7 = (32*s4 - 12*s2 + s1)/21 the R^-3 one,
    leaving O(R^-4).  At radius 100 (26,600 lattice values per point
    against 320,400 at radius 400), over the verify suites' tau box and
    annulus 0.1 <= |z| <= 0.3, its error relative to the theta route was
    at most 3.2e-8 (near the corners Re tau = +-0.9, Im tau = 0.3) and at
    least 29x below the plain sum's at radius 400 at every point checked."""
    s1, s2, s4 = (_lattice_sums_p(zs, t, radius * j // 4) for j in (1, 2, 4))
    return [(32.0 * c - 12.0 * b + a) / 21.0 for a, b, c in zip(s1, s2, s4)]


def weierstrass_p(z: complex, tau: TauParameter | complex) -> complex:
    """Weierstrass p(z) for the lattice Z + Z*tau, via theta functions.

    Uses p(z) = e1 + (pi * theta3(0) * theta4(0) * theta2(z) / theta1(z))^2
    at tau.shifted, after reducing z into the fundamental cell, once.
    Raises PoleError within POLE_TOL of a cell corner, i.e. of the lattice.
    """
    t = as_tau(tau)
    zr = reduce_mod_lattice(z, t)
    if _corner_distance(zr, t) < POLE_TOL:
        raise PoleError(f"p(z) has a pole at lattice point z = {z!r}")
    c2, c3, c4 = _theta_constants(t.shifted)
    e1, _, _ = _half_periods(c2, c3, c4)
    quot = _theta_series(2, zr, t.shifted) / _theta_series(1, zr, t.shifted)
    return e1 + (_PI * c3 * c4 * quot) ** 2


def modular_lambda(tau: TauParameter | complex) -> complex:
    """Modular lambda(tau) = theta2(0)^4 / theta3(0)^4, at tau.shifted.

    Accuracy relative to max(1, |lambda|), measured against mpmath over
    seeded taus: up to 4e-9 within 0.15 of the cusps +-1 near the Im tau
    floor, where the q-series run at |q| up to 0.855 and |lambda| reaches
    1e26; 3e-14 elsewhere in the band Im tau in [0.05, 0.5); 2.1e-15 far
    along Re tau (|Re tau| from 1e3 to 1e15, Im tau in [0.3, 3]), where the
    shift leaves the error of the shifted tau.
    """
    c2, c3, _ = _theta_constants(as_tau(tau).shifted)
    return c2 ** 4 / c3 ** 4


def _batch_lambdas(taus: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(taus, lambdas) array pairs, one per THETA_BLOCK block, that run
    through a 1-d array of taus that already pass the tau rule.  The kernel
    gives theta2 and theta3 at the shifted taus, and each lambda is formed
    in Python over ``.tolist()``, as ``modular_lambda`` forms it: the two
    agree bit for bit by construction."""
    import numpy as np
    for lo in range(0, taus.size, THETA_BLOCK):
        block = taus[lo:lo + THETA_BLOCK]
        shifted = [_even_shift(tau) for tau in block.tolist()]
        c2, c3 = (_theta_array(kind, 0.0, shifted).tolist() for kind in (2, 3))
        yield block, np.array([a ** 4 / b ** 4 for a, b in zip(c2, c3)],
                              dtype=complex)


def lambda_complement_ratio(tau: TauParameter | complex) -> complex:
    """The half-period quotient (e3 - e1) / (e2 - e1).

    Contract: equals 1 - lambda(tau); the equality is asserted by the test
    suite rather than here, so the two routes stay independent.
    """
    hp = half_period_values(tau)
    return (hp.e3 - hp.e1) / (hp.e2 - hp.e1)

