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

Every series sums the terms that one rule, ``_term_range``, picks from
Im tau and |Im z| before the first: each term whose modulus bound is at
least EPS_SERIES / 4, and always theta1's and theta2's first term (from
Im tau ~ 54 on it alone is below that, yet it is the value): at most 136
at Im tau >= MIN_IM_TAU, where no term passes exp(_EXP_CAP).

One body, ``_theta_series(kind, z, tau)``, sums theta at one complex
point.  It keeps no state and validates nothing: ``theta`` checks the one
input, z, that can put a term out of double range.  ``theta`` and
``_theta_constants`` are its only callers.  ``holink scan`` sums theta2(0)
and theta3(0) over its grid in ``_grid_lambdas``, each term from a row's
modulus and a column's phase, bit for bit as the series sums them.  The
package needs nothing beyond the standard library.  ``lattice_sum_p`` sums
p by Eisenstein's rows of sines, the theta-free reference for the theta
route.  No fundamental-domain reduction of tau is performed; construction of
``TauParameter`` requires Im tau >= MIN_IM_TAU (= 0.05), as the q-series
lose precision near that floor (|q| -> 0.855).
Every evaluator of a lattice quantity, and the public ``theta``, runs at
``TauParameter.shifted``, an exact shift into |Re tau| <= 1 taken once per
tau, so no phase of a term leaves double range.  The Green kernel, of the
pairing and ``arakelov_green`` alike, and ``weierstrass_p`` sum theta1 in a
third form, one body, ``_folded_theta1``, from ``TauParameter._green_terms``
at |Im u| <= Im tau / 2, in double range at any Im tau (see ``linking``).
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property, lru_cache

from ._frozen import Frozen
from .errors import ConvergenceError, DomainError, PoleError

MIN_IM_TAU = 0.05
EPS_SERIES = 1e-18

#: Distance from the lattice within which p and the Green kernel raise PoleError.
POLE_TOL = 1e-12

# Largest exponent handed to exp() before we give up; doubles overflow at ~709.
_EXP_CAP = 700.0

_PI = math.pi
#: c = -log(EPS_SERIES / 4) / pi: a term is summed where its log modulus
#: bound -pi*Im(tau)*a^2 + 2*pi*a*|Im z| is at least -pi*c.
_TERM_C = -math.log(EPS_SERIES / 4.0) / _PI
_PI2 = math.pi ** 2
_PI2_3 = _PI2 / 3.0
_IPI = 1j * _PI
#: theta1's factor (-1)^n * (-i), indexed by n & 1.
_THETA1_SIGNS = ((-1) ** 0 * (-1j), (-1) ** 1 * (-1j))


class TauParameter(Frozen):
    """Modulus of the curve C / (Z + Z*tau).

    Requires Im tau >= MIN_IM_TAU, which also bounds the nome, |q| < 0.855.
    There is deliberately no reduction to a fundamental domain: ``value``
    keeps the caller's tau, so lambda(tau + 1) stays testable.  Every
    evaluator runs at ``shifted = _even_shift(value)``, the same lattice,
    which equality, hash and repr leave out.
    """

    _fields = ("value",)

    def __init__(self, value: complex) -> None:
        object.__setattr__(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate ``value`` and set ``shifted``.  A method of its own, as
        ``bench/trace.py`` and the tests count constructions by wrapping it."""
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
        """The tau-only data of the Green kernel and ``weierstrass_p`` at
        ``shifted``: (c_n, d_n) = (-1)^n q^(n(n+1)) * (1, exp(pi*Im(tau)*n)),
        highest n first, for n = 0 and each n that ``_term_range`` gives
        theta3 at z = 0 (|d_n| = |q^(n^2)|), then the unit phases
        exp(+-2*pi*i*Re tau).  |c_n| <= |d_n| <= 1, so no datum leaves double
        range; from Im tau = 13.64 on only n = 0 remains."""
        tv = self.shifted
        coefs = [(1.0 + 0.0j, 1.0 + 0.0j)]
        for n in _term_range(False, tv.imag, 0.0):
            phase = _PI * tv.real * (n * (n + 1))
            c = cmath.exp(complex(-_PI * tv.imag * (n * (n + 1)), phase))
            d = cmath.exp(complex(-_PI * tv.imag * (n * n), phase))
            coefs.append((-c, -d) if n & 1 else (c, d))
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
    v = complex(tau)
    return _shared_tau(v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag))


@lru_cache(maxsize=64)
def _shared_tau(v: complex, *zero_signs: float) -> TauParameter:
    """The TauParameter of a bare tau, one per bits of both parts (the signs
    keep 0.0 and -0.0 apart), so that its tables are built once; the 64
    latest are kept, and no failure is."""
    return TauParameter(v)


def _turn(x: float) -> complex:
    """exp(2*pi*i*x) for a finite x, taken at x - round(x), which is exact."""
    return cmath.exp(complex(0.0, 2.0 * _PI * (x - round(x))))


def _folded_theta1(coefs: tuple[tuple[complex, complex], ...], x: complex,
                   x_inv: complex) -> complex:
    """F = x G(x) - G(1/x), G(t) = sum_n c_n t^n, by Horner's rule over
    ``TauParameter._green_terms[0]``, G(1/x) as sum_n d_n x_inv^n with
    x_inv = exp(-pi*Im(tau)) / x: theta1 over its largest term, up to a
    unit factor, at x = exp(2*pi*i*u), |x| <= 1 (``linking._pair_greens``)."""
    g = g_inv = 0.0
    for c, d in coefs:
        g = g * x + c
        g_inv = g_inv * x_inv + d
    return x * g - g_inv


def _as_int(name: str, value) -> int:
    """value as an int: any integral number but a bool, else ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return operator.index(value)


def _paired_term(kind: int, n: int, e_plus: complex,
                 e_minus: complex) -> complex:
    """The n-th paired term of theta_kind from its exponentials at +-k: the
    sign rule of the theta series."""
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
    ``_term_range`` picks the terms summed; where the largest passes
    exp(_EXP_CAP) the call raises ConvergenceError, here, not in the series.
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
    # The largest term has the a nearest r = |Im z| / Im tau: floor(r) + 1/2,
    # or round(r), where a = 0 is the constant 1.  An infinite r gives NaN.
    off = 0.5 if kind in (1, 2) else 0.0
    s = abs(z.imag) / t.value.imag + (0.5 - off)
    a = s - s % 1.0 + off
    if not _PI * a * (2.0 * abs(z.imag) - a * t.value.imag) <= _EXP_CAP:
        raise ConvergenceError(f"theta{kind} term exceeds double range (z={z!r}, "
                               f"tau={t.value!r}); reduce z modulo the lattice first")
    m = round(z.real) if abs(z.real) > 1.0 else 0
    value = _theta_series(kind, z - m, t.shifted)
    if kind in (3, 4):
        return value
    turns = (round(t.value.real / 2.0) + 2 * m) % 4
    if turns & 1:
        value = complex(-value.imag, value.real)
    return -value if turns & 2 else value


def _term_range(half: bool, im_tau: float, abs_im_z: float) -> range:
    """The n summed at a = n + 1/2 (``half``: theta1, theta2; n = 0 always)
    or a = n >= 1: each a <= r + sqrt(r^2 + _TERM_C / Im tau), r = |Im z| /
    Im tau, whose term bound is at least EPS_SERIES / 4."""
    r = abs_im_z / im_tau
    last = r + math.sqrt(r * r + _TERM_C / im_tau)
    if half:
        return range(max(1, math.floor(last + 0.5)))
    return range(1, math.floor(last) + 1)


def _theta_series(kind: int, z: complex, tau: complex) -> complex:
    """theta_kind at a valid kind, a complex z and a shifted complex tau
    whose terms stay below exp(_EXP_CAP): ``_term_range``'s paired terms,
    summed in order."""
    half = kind in (1, 2)
    total = 0j if half else 1 + 0j
    for n in _term_range(half, tau.imag, abs(z.imag)):
        a = n + 0.5 if half else n
        ta = tau * a * a
        if not z:
            e_plus = e_minus = cmath.exp(_IPI * ta)
        else:
            kz = 2 * a * z
            e_plus = cmath.exp(_IPI * (ta + kz))
            e_minus = cmath.exp(_IPI * (ta - kz))
        total += _paired_term(kind, n, e_plus, e_minus)
    return total


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
    """The theta series' (theta2, theta3, theta4) at z = 0 and a shifted s;
    theta2 gains a power of i (only theta2^4 is used).  It stays an
    ``lru_cache`` because ``bench/trace.py`` reads its ``cache_info()``."""
    return tuple(_theta_series(kind, 0j, s) for kind in (2, 3, 4))


HalfPeriodValues = namedtuple("HalfPeriodValues", "e1 e2 e3")
HalfPeriodValues.__doc__ = """Weierstrass p at the three half-periods of
Z + Z*tau: e1 = p(1/2), e2 = p(tau/2), e3 = p((1+tau)/2); e1 + e2 + e3 = 0."""


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
    against Eisenstein's row sum (``lattice_sum_p``) in the test suite.
    """
    return HalfPeriodValues(*_half_periods(*_theta_constants(as_tau(tau).shifted)))


def reduce_mod_lattice(z: complex, tau: TauParameter | complex) -> complex:
    """Representative of z in the cell [0,1) x [0,1) of (1, tau.shifted).

    Each lattice coordinate is taken mod 1.  A point whose lattice
    coordinates lie strictly inside the cell is its own representative,
    bit for bit, so reducing a reduced point again leaves it where it is;
    on a cell edge, where a coordinate is 0, it can move its last bit.
    Far out, where float coordinates would lose digits, the reduction is
    exact.  Every finite z has a representative; only a z that is not
    finite raises DomainError.  The coordinates round by about eps, so a
    value taken at the representative loses about eps/d at distance d from
    the lattice.  Its body, ``_reduce_point``, serves ``Divisor`` and
    ``torus_distance`` too.
    """
    return _reduce_point(complex(z), as_tau(tau).shifted)


#: Largest |x| + 2|y| of the lattice coordinates (x, y) that
#: ``_reduce_point`` reduces in floats.  Their error is about
#: eps * (|x| + (1 + |Re tau|) * |y|) <= eps * (|x| + 2|y|) at a shifted
#: tau, so within the limit it stays below 2**-42 (2.3e-13), under the
#: 1e-12 merge distance of ``linking.Divisor``; beyond it the reduction is
#: exact.
_FLOAT_REDUCTION_LIMIT = 2.0 ** 10


def _reduce_point(z: complex, tv: complex) -> complex:
    """``reduce_mod_lattice`` of a complex z at a shifted tau value tv."""
    # coordinates in the basis (1, tau): z = x + y*tau
    y = z.imag / tv.imag
    x = z.real - y * tv.real
    if not abs(x) + 2.0 * abs(y) <= _FLOAT_REDUCTION_LIMIT:  # an inf or NaN too
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"z = {z!r} is not finite: it has no lattice "
                              "coordinates")
        x, y, tr, ti = _exact_coordinates(z, tv)
        x, y = x - math.floor(x), y - math.floor(y)
        return _reduce_point(complex(x + y * tr, y * ti), tv)
    # each coordinate mod 1: one that rounds up to 1.0 wraps to 0
    xs = (x - math.floor(x)) % 1.0
    ys = (y - math.floor(y)) % 1.0
    if 0.0 < xs == x and 0.0 < ys == y:
        return z
    return complex(xs + ys * tv.real, ys * tv.imag)


def _exact_coordinates(z: complex, tv: complex) -> tuple:
    """z's lattice coordinates (x, y), z = x + y*tv, and tv's parts, as
    exact fractions: callers reduce x and y and round the congruent point
    once.  ``fractions`` is imported here, off the import path: few points
    reach it."""
    from fractions import Fraction
    tr, ti = Fraction(tv.real), Fraction(tv.imag)
    y = Fraction(z.imag) / ti
    return Fraction(z.real) - y * tr, y, tr, ti


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
    """(reduced oriented difference, its corner distance) of complex u, v;
    where u - v leaves double range, that of their representatives."""
    d = u - v if (u.real, u.imag) <= (v.real, v.imag) else v - u
    try:
        ur = _reduce_point(d, t.shifted)
    except DomainError:  # d is not finite: u or v is not, or u - v overflows
        return _reduced_difference(_reduce_point(u, t.shifted),
                                   _reduce_point(v, t.shifted), t)
    return ur, _corner_distance(ur, t)


#: A row is summed while exp(-2*pi*(n*Im tau - |Im z|)), its size relative
#: to the first, is at least 1e-18: n <= (_ROW_C + |Im z|) / Im tau.
_ROW_C = math.log(1e18) / (2.0 * _PI)


def lattice_sum_p(z: complex, tau: TauParameter | complex) -> complex:
    """Weierstrass p(z) at ``tau.shifted`` by Eisenstein's row summation
    (A. Weil, Elliptic Functions according to Eisenstein and Kronecker,
    1976; DLMF 23.8): each row of the lattice sums in closed form,
    sum_m (z + m + n*tau)^-2 = pi^2 csc^2(pi (z + n tau)), so

        p(z) = pi^2 csc^2(pi z) - pi^2/3 + sum_{n >= 1} pi^2 [csc^2(pi (z +
               n tau)) + csc^2(pi (z - n tau)) - 2 csc^2(pi n tau)],

    whose rows fall off as exp(-2 pi n Im tau).  The theta-free reference
    for ``weierstrass_p``, with which it shares no formula: no theta
    series, no half-period value.  z is summed at the
    representative whose lattice coordinates are nearest 0: z's (x, y) in
    the basis (1, tau), taken exactly, become x - round(x) and y - round(y),
    and the point is rounded once, so a z already there comes back as it
    is, up to the sign of a zero part.  So the sum keeps its digits next to
    every lattice point, and far out z loses none.  The row count is fixed
    before the first row from Im tau and |Im z| (``_ROW_C``).  p(-z) equals
    p(z) bit for bit.  PoleError within POLE_TOL of the lattice;
    DomainError at a z that is not finite.
    """
    t = as_tau(tau)
    tv = t.shifted
    u = complex(z)
    if not (math.isfinite(u.real) and math.isfinite(u.imag)):
        raise DomainError(f"lattice_sum_p argument must be finite, got {u!r}")
    x, y, tr, ti = _exact_coordinates(u, tv)
    x, y = x - round(x), y - round(y)
    u = complex(x + y * tr, y * ti)
    if abs(u) < POLE_TOL:
        raise PoleError(f"z = {z!r} lies on the lattice of tau = {t.value!r}")

    def csc2(w: complex) -> complex:
        return _PI2 / cmath.sin(_PI * w) ** 2

    total = csc2(u) - _PI2_3
    for n in range(1, math.floor((_ROW_C + abs(u.imag)) / tv.imag) + 1):
        total += csc2(u + n * tv) + csc2(u - n * tv) - 2.0 * csc2(n * tv)
    return total


def _p_difference(z: complex, a: complex, t: TauParameter) -> complex:
    """p(z) - p(a) at ``t.shifted`` by ``lattice_sum_p``'s rows, row n of z
    less row n of a as one product, csc^2 x - csc^2 y = sin(y - x) sin(y +
    x) / (sin^2 x sin^2 y), so

        p(z) - p(a) = pi^2 sin(pi (a - z)) sum_{|n| <= N} sin(pi (z + a +
                      2 n tau)) / (sin^2(pi (z + n tau)) sin^2(pi (a + n tau))):

    the rows' -2 csc^2(pi n tau) cancel exactly, and no row subtracts two
    large numbers.  z and a are summed at their representatives in the
    cell centred on 0, taken in floats from ``_reduce_point``; N is fixed
    before the first row from Im tau and the larger |Im| (``_ROW_C``)."""
    tv = t.shifted

    def centred(p: complex) -> complex:
        p = _reduce_point(complex(p), tv)
        if 2.0 * p.imag > tv.imag:
            p -= tv
        return p - 1.0 if 2.0 * (p.real - p.imag / tv.imag * tv.real) > 1.0 else p

    u, v = centred(z), centred(a)
    rows = math.floor((_ROW_C + max(abs(u.imag), abs(v.imag))) / tv.imag)
    sin = cmath.sin
    total = 0j
    for n in range(-rows, rows + 1):
        w = n * tv
        total += (sin(_PI * (u + v + 2.0 * w))
                  / (sin(_PI * (u + w)) * sin(_PI * (v + w))) ** 2)
    return _PI2 * sin(_PI * (v - u)) * total


def weierstrass_p(z: complex, tau: TauParameter | complex) -> complex:
    """Weierstrass p(z) for the lattice Z + Z*tau, at tau.shifted.

    z is reduced into the cell once, to zr, and u = zr, or tau - zr where
    Im zr > Im tau / 2 (p is even and periodic).  At X = exp(2*pi*i*u),
    theta2/theta1 = i*F2/F1 with F1 = F(X) of ``_folded_theta1`` and F2 =
    -F(-X), as theta2(u) = theta1(u + 1/2); so p = e1 - (pi theta3(0)
    theta4(0) F(-X)/F(X))^2 at any Im tau.  PoleError within POLE_TOL of
    the lattice.

    Near the lattice F(X) cancels: at distance d from it the relative error
    is about c * eps / d.  Against ``lattice_sum_p`` over seeded points, c
    stays below 10 over [-1, 1] x [0.3, 3] (3.3 measured); in the band Im
    tau < 0.3 it reaches 2.4e4 near the cusp 0 and 2.7e3 near +-1 (3.3e-5 at
    tau = 0.0154+0.0576i, z = 1e-9 (1 + i))."""
    t = as_tau(tau)
    zr = reduce_mod_lattice(z, t)
    if _corner_distance(zr, t) < POLE_TOL:
        raise PoleError(f"p(z) has a pole at lattice point z = {z!r}")
    tv = t.shifted
    u = tv - zr if 2.0 * zr.imag > tv.imag else zr
    ph = _turn(u.real)
    x = ph * math.exp(-2.0 * _PI * u.imag)
    x_inv = ph.conjugate() * math.exp(_PI * (2.0 * u.imag - tv.imag))
    coefs = t._green_terms[0]
    ratio = _folded_theta1(coefs, -x, -x_inv) / _folded_theta1(coefs, x, x_inv)
    c2, c3, c4 = _theta_constants(tv)
    e1, _, _ = _half_periods(c2, c3, c4)
    return e1 - (_PI * c3 * c4 * ratio) ** 2


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


def _grid_lambdas(re_axis: list[float],
                  im_axis: list[float]) -> Iterator[list[complex]]:
    """``modular_lambda`` over the taus re + i*im of a grid that pass the tau
    rule, bit for bit: one list over ``re_axis`` per im of ``im_axis``.
    ``cmath.exp`` takes a term of theta2(0) or theta3(0) at a shifted s as
    exp(x) * (cos y, sin y): x depends on Im s alone, so a row takes exp(x)
    once per a, and y on Re s alone, so a column's phase is taken once per
    a.  Rows sum h = total / 2 in the series' order (halving is exact)."""
    columns = [_even_shift(complex(re, im_axis[0])) for re in re_axis]
    phases: dict[tuple[bool, int], list[complex]] = {}
    for im in im_axis:
        row = _even_shift(complex(re_axis[0], im))
        halves = []
        for half, h0 in ((True, 0j), (False, 0.5 + 0j)):
            h = [h0] * len(columns)
            for n in _term_range(half, im, 0.0):
                a = n + 0.5 if half else n
                if (half, n) not in phases:
                    phases[half, n] = [complex(math.cos(y), math.sin(y)) for y in
                                       ((_IPI * (tau * a * a)).imag for tau in columns)]
                m = math.exp((_IPI * (row * a * a)).real)
                h = [t + m * p for t, p in zip(h, phases[half, n])]
            halves.append(h)
        yield [(c2 + c2) ** 4 / (c3 + c3) ** 4 for c2, c3 in zip(*halves)]


def lambda_complement_ratio(tau: TauParameter | complex) -> complex:
    """The half-period quotient (e3 - e1) / (e2 - e1).

    Contract: equals 1 - lambda(tau); the equality is asserted by the test
    suite rather than here, so the two routes stay independent.
    """
    hp = half_period_values(tau)
    return (hp.e3 - hp.e1) / (hp.e2 - hp.e1)

