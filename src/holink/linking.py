"""Holomorphic linking of degree-zero divisors on the sphere and on
elliptic curves.

The pairing of two disjoint degree-zero divisors Z, W on a compact curve
is the integral over Z of a Green primitive for W; on curves it collapses
to finite sums of logarithms:

* sphere:   <Z, W> = (1/pi) * sum_{(P,a) in Z} sum_{(Q,b) in W} a*b*log|P - Q|,
  with terms containing the point at infinity dropped (the cross-ratio
  limit convention); for two-point divisors this is
  (1/pi) * log|cross ratio|.

* elliptic: <Z, W> = sum sum a*b*g_tau(P - Q), where

      g_tau(u) = (1/pi) * (log|theta1(u, tau)| - pi * (Im u)^2 / Im tau)

  is the translation-invariant Green kernel of C/(Z + Z*tau).  The kernel
  normalization makes (i/pi)*d d-bar g = (delta_0 - area form / Im tau),
  and any additive constant cancels in degree-zero double sums, so the
  constant is fixed to zero.

``_check_pair`` decides disjointness for every pair before any term is
formed.  The elliptic evaluator, ``_pair_greens``, builds theta1 at each
difference from per-point phases and per-tau coefficients, divided by its
largest term, so that no term leaves double range at any Im tau;
``arakelov_green``, one theta1 series per point, is the reference it is
tested against.  Each pair is taken in one canonical order, and both
evaluators add their terms with ``math.fsum``, which is correctly rounded
and so order independent: hence linking(z, w) == linking(w, z) holds bit
for bit.  They only sum, with the one kernel: the comparison with the
half-period closed form and the altered-kernel checks live with the other
route comparisons, in ``massey`` and ``verify``.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    BranchError,
    CapabilityError,
    CurveMismatchError,
    DisjointnessError,
    DivergenceError,
    DomainError,
    HomologyError,
    PoleError,
)
from .special_functions import (
    POLE_TOL,
    SNAP_TOL,
    TauParameter,
    _corner_distance,
    _reduce_point,
    _reduced_difference,
    _theta_series,
    _turn,
    as_tau,
    reduce_mod_lattice,
)

#: Tolerance below which two support points count as colliding.
DISJOINTNESS_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


class _InfinityType:
    """Marker for the point at infinity on the sphere."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityType()

Point = complex | _InfinityType


@dataclass(frozen=True)
class Curve:
    """Either the Riemann sphere or the elliptic curve C/(Z + Z*tau)."""

    kind: str
    tau: TauParameter | None = None

    @classmethod
    def sphere(cls) -> "Curve":
        return cls("sphere", None)

    @classmethod
    def elliptic(cls, tau: TauParameter | complex) -> "Curve":
        return cls("elliptic", tau)

    def __post_init__(self) -> None:
        if self.kind not in ("sphere", "elliptic"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind == "elliptic" and self.tau is None:
            raise ValueError("elliptic curve needs a tau parameter")
        if self.kind == "sphere" and self.tau is not None:
            raise ValueError("the sphere carries no tau parameter")
        if self.kind == "elliptic":
            object.__setattr__(self, "tau", as_tau(self.tau))

    def __repr__(self) -> str:
        if self.kind == "sphere":
            return "Curve.sphere()"
        return f"Curve.elliptic({self.tau.value!r})"


SPHERE = Curve.sphere()


def _point_key(p: Point) -> tuple:
    if isinstance(p, _InfinityType):
        return (1, 0.0, 0.0)
    return (0, p.real, p.imag)


def _sphere_measure(p: Point, q: Point) -> tuple[float | None, float]:
    """(what the pairing sums from, distance) of two points of the sphere:
    |p - q| twice, or None where INFINITY takes part, at distance 0 from
    itself and inf from every finite point.  On an elliptic curve the
    measure is ``_reduced_difference``."""
    if isinstance(p, _InfinityType) or isinstance(q, _InfinityType):
        return None, 0.0 if p is q else math.inf
    r = abs(p - q)
    return r, r


#: Margin of the merge screen in ``Divisor``, in units of Im tau: far above
#: SNAP_TOL and SNAP_TOL / MIN_IM_TAU (2e-11).
_SCREEN_MARGIN = 1e-9


class Divisor:
    """Formal integer combination of points on a fixed curve.

    Terms are canonicalized on construction: elliptic points are reduced
    into the fundamental cell (with half-period snapping), duplicate points
    are merged, zero multiplicities are dropped, and the term list is
    sorted.  Instances are immutable.

    A point merges into the first earlier one within SNAP_TOL of it.  On an
    elliptic curve a screen skips the measurement of most pairs: two
    reduced points whose imaginary parts differ by a fraction of Im tau in
    (_SCREEN_MARGIN, 1 - _SCREEN_MARGIN) have a difference whose lattice
    coordinate y stays that far from an integer, so they lie at least
    _SCREEN_MARGIN * MIN_IM_TAU apart on the torus.  Every other pair is
    measured by ``_reduced_difference``, so the screen changes no term.
    """

    __slots__ = ("curve", "terms")

    def __init__(self, curve: Curve, terms: Iterable[tuple[Point, int]]):
        object.__setattr__(self, "curve", curve)
        elliptic = curve.kind == "elliptic"
        if elliptic:
            t = curve.tau
            tv = t.shifted
            apart_lo = _SCREEN_MARGIN * tv.imag
            apart_hi = (1.0 - _SCREEN_MARGIN) * tv.imag
        canon: list[tuple[Point, int]] = []
        for point, mult in terms:
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ValueError(f"multiplicity must be an int, got {mult!r}")
            if isinstance(point, _InfinityType):
                if curve.kind != "sphere":
                    raise DomainError("infinity marker is only meaningful on the sphere")
            else:
                point = complex(point)
                if not (math.isfinite(point.real) and math.isfinite(point.imag)):
                    raise DomainError(f"divisor point must be finite, got {point!r}")
                if elliptic:
                    point = _reduce_point(point, tv)
            # merge with an existing representative, if any
            for i, (p0, m0) in enumerate(canon):
                if elliptic:
                    if apart_lo < abs(p0.imag - point.imag) < apart_hi:
                        continue
                    dist = _reduced_difference(p0, point, t)[1]
                else:
                    dist = _sphere_measure(p0, point)[1]
                if dist < SNAP_TOL:
                    canon[i] = (p0, m0 + mult)
                    break
            else:
                canon.append((point, mult))
        canon = [(p, m) for (p, m) in canon if m != 0]
        canon.sort(key=lambda t: _point_key(t[0]))
        object.__setattr__(self, "terms", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @classmethod
    def sphere(cls, terms: Iterable[tuple[Point, int]]) -> "Divisor":
        return cls(SPHERE, terms)

    @classmethod
    def elliptic(cls, tau: TauParameter | complex,
                 terms: Iterable[tuple[Point, int]]) -> "Divisor":
        return cls(Curve.elliptic(tau), terms)

    def degree(self) -> int:
        return sum(m for _, m in self.terms)

    def support(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.terms)

    def __neg__(self) -> "Divisor":
        return -1 * self

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        if self.curve != other.curve:
            raise CurveMismatchError(
                f"cannot add divisors on {self.curve!r} and {other.curve!r}"
            )
        return Divisor(self.curve, list(self.terms) + list(other.terms))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        """k * self.  Reduction leaves the canonical points where they are,
        so a nonzero k scales the multiplicities of the same terms."""
        if not isinstance(k, int):
            return NotImplemented
        return Divisor(self.curve, [(p, k * m) for p, m in self.terms])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Divisor) and self.curve == other.curve
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.curve, tuple((_point_key(p), m) for p, m in self.terms)))

    def __repr__(self) -> str:
        return f"Divisor({self.curve!r}, {list(self.terms)!r})"


class LinkingMethod(enum.Enum):
    CROSS_RATIO = "cross-ratio"
    ARAKELOV_GREEN = "arakelov-green"


@dataclass(frozen=True)
class LinkingResult:
    """Linking value plus provenance: ``method`` names the evaluator that
    produced ``value``, the cross-ratio log sum on the sphere or the
    Green-kernel double sum on an elliptic curve."""

    value: float
    method: LinkingMethod


def _check_pair(z: Divisor, w: Divisor, kind: str) -> list:
    """Check curve kind, degrees and disjointness, in that order, and return
    (a * b, what the pairing sums from) for each pair (P, a), (Q, b),
    z-major: the first part of ``_sphere_measure`` on the sphere, and on an
    elliptic curve (P, Q), smaller (re, im) first, as ``_reduced_difference``
    orders them.  Reduced points whose imaginary parts differ by more than
    apart_lo = 2 * DISJOINTNESS_TOL * max(1, Im tau), and by less than
    Im tau - apart_lo, lie that far apart on the torus; only the other
    pairs are measured, by ``_reduced_difference``."""
    if z.curve.kind != kind or z.curve != w.curve:
        raise CurveMismatchError(
            f"expected two divisors on one {kind} curve, got "
            f"{z.curve!r} and {w.curve!r}"
        )
    for which, d in (("first", z), ("second", w)):
        if d.degree() != 0:
            raise HomologyError(f"{which} divisor has degree {d.degree()}, expected 0")
    t = z.curve.tau
    elliptic = kind == "elliptic"
    if elliptic:
        im_t = t.shifted.imag
        apart_lo = 2.0 * DISJOINTNESS_TOL * max(1.0, im_t)
        apart_hi = im_t - apart_lo
    measured = []
    for p, a in z.terms:
        for q, b in w.terms:
            if elliptic:
                m = (p, q) if (p.real, p.imag) <= (q.real, q.imag) else (q, p)
                dist = (math.inf if apart_lo < abs(p.imag - q.imag) < apart_hi
                        else _reduced_difference(p, q, t)[1])
            else:
                m, dist = _sphere_measure(p, q)
            if dist < DISJOINTNESS_TOL:
                raise DisjointnessError(
                    f"supports collide near {p!r} (distance {dist:.3e})"
                )
            measured.append((a * b, m))
    return measured


def _pairing_sum(terms: Iterable[float]) -> float:
    """``math.fsum`` of a pairing's terms.  Multiplicities are unbounded
    ints, so a term or the sum can leave double range: DomainError."""
    try:
        values = list(terms)
        if not any(map(math.isinf, values)):
            return math.fsum(values)
    except OverflowError:
        pass
    raise DomainError("linking sum leaves double range: the multiplicities "
                      "are too large for double precision")


def linking_sphere(z: Divisor, w: Divisor) -> LinkingResult:
    """<Z, W> on the sphere: (1/pi) sum a*b*log|P - Q|.

    Any pair containing the infinity marker contributes nothing (the factor
    containing infinity drops out of the cross-ratio limit).  The swap
    symmetry is exact: abs(p - q) == abs(q - p), and ``fsum`` is order
    independent.
    """
    total = _pairing_sum(ab * math.log(r) for ab, r in _check_pair(z, w, "sphere")
                         if r is not None)
    return LinkingResult(total / math.pi, LinkingMethod.CROSS_RATIO)


def arakelov_green(u: complex, tau: TauParameter | complex) -> float:
    """Green kernel g_tau(u) of the flat torus C/(Z + Z*tau).

    g_tau(u) = (1/pi) * (log|theta1(u, tau)| - pi*(Im u)^2 / Im tau), with
    additive constant zero, at tau.shifted.  The argument is reduced into
    the fundamental cell once, so periodicity is exact; theta1's
    quasi-periodicity makes the unreduced formula periodic as well, up to
    roundoff.  Lattice points are poles: PoleError within POLE_TOL of a
    cell corner.  A theta1 that underflows to 0 off the lattice (large
    Im tau) raises DivergenceError.
    """
    t = as_tau(tau)
    ur = reduce_mod_lattice(u, t)
    if _corner_distance(ur, t) < POLE_TOL:
        raise PoleError(f"green kernel has a logarithmic pole at {u!r}")
    return _green_from_theta1(_theta_series(1, ur, t.shifted), ur, t)


def _green_from_theta1(th1: complex, ur: complex, t: TauParameter) -> float:
    """g_tau at ur, a reduced point off the lattice, from theta1(ur, tau):
    the formula and underflow rule of every Green-kernel evaluation."""
    mod = abs(th1)
    if mod == 0.0:
        raise DivergenceError(
            f"theta1({ur!r}, {t.value!r}) underflows to 0: log|theta1| is "
            "out of double range")
    return math.log(mod) / math.pi - ur.imag ** 2 / t.value.imag


def linking_elliptic(z: Divisor, w: Divisor) -> LinkingResult:
    """<Z, W> on C/(Z + Z*tau) via the Green-kernel double sum.

    value = sum_{(P,a)} sum_{(Q,b)} a * b * g_tau(P - Q).

    ``_check_pair`` decides disjointness for every pair first, then
    ``_pair_greens`` forms the terms.
    """
    pairs = _check_pair(z, w, "elliptic")
    return LinkingResult(_pairing_sum(_pair_greens(z, w, pairs)),
                         LinkingMethod.ARAKELOV_GREEN)


def _pair_greens(z: Divisor, w: Divisor, pairs: list) -> Iterator[float]:
    """a * b * g_tau(A - B) for each (a * b, (A, B)) of ``_check_pair(z, w)``.

    The pair is taken at u = A + s*tau - B, s in {-1, 0, 1}, so that
    y = Im u has |y| <= Im tau / 2 (g is periodic).  With X = exp(2*pi*i*u),
    or exp(-2*pi*i*u) where y < 0, so that |X| = exp(-2*pi*|y|) <= 1,
    theta1's q-series (DLMF 20.2.1) is +-i q^(1/4) X^(-1/2) F, where

        F = X G(X) - G(1/X),   G(t) = sum_{n >= 0} (-1)^n q^(n(n+1)) t^n,

    and |F| is |theta1(u)| over its largest term exp(-pi*Im(tau)/4 +
    pi*|y|).  So g_tau(u) = log|F| / pi - (Im tau / 2 - |y|)^2 / Im tau.
    X is exp(-2*pi*|y|) times the unit phases of A, B and s*tau, taken
    once per point and once per tau.  G(1/X) is summed as sum d_n x_inv^n
    with x_inv = exp(-pi*Im(tau)) / X, of modulus at most 1, and d_n from
    ``TauParameter._green_terms``; every term of either sum is at most 1,
    so nothing leaves double range.  Both sums run by Horner's rule.
    """
    t = z.curve.tau
    coefs, up, down = t._green_terms
    im_t = t.shifted.imag
    half = 0.5 * im_t
    phases = {}
    for p in z.support() + w.support():
        e = _turn(p.real)
        phases[p] = e, e.conjugate()
    for ab, (p, q) in pairs:
        y = p.imag - q.imag
        ep, ep_c = phases[p]
        eq, eq_c = phases[q]
        ph, ph_c = ep * eq_c, eq * ep_c
        if y > half:
            y -= im_t
            ph, ph_c = ph * down, ph_c * up
        elif y < -half:
            y += im_t
            ph, ph_c = ph * up, ph_c * down
        if y < 0.0:
            y = -y
            ph, ph_c = ph_c, ph
        x = ph * math.exp(-_TWO_PI * y)
        x_inv = ph_c * math.exp(_TWO_PI * (y - half))
        gx = g_inv = 0.0
        for c, d in coefs:
            gx = gx * x + c
            g_inv = g_inv * x_inv + d
        gap = half - y
        yield ab * (math.log(abs(x * gx - g_inv)) / math.pi - gap * (gap / im_t))


def linking(z: Divisor, w: Divisor) -> LinkingResult:
    """Dispatch by curve kind; the evaluator rejects mismatched curves."""
    if z.curve.kind == "sphere":
        return linking_sphere(z, w)
    return linking_elliptic(z, w)


@dataclass(frozen=True)
class RationalMapSpec:
    """A map from the supported catalog.

    kind = "identity" (either curve), "power" with an integral exponent n
    in {2, 3} (sphere to sphere, z -> z^n), or "translation" by a fixed
    numeric offset, kept as a complex (elliptic curve to itself).  Anything
    else raises CapabilityError on construction, as does applying a map to
    a curve it is not defined on.
    """

    kind: str
    exponent: int | None = None
    offset: complex | None = None

    @classmethod
    def identity(cls) -> "RationalMapSpec":
        return cls("identity")

    @classmethod
    def power(cls, n: int) -> "RationalMapSpec":
        return cls("power", exponent=n)

    @classmethod
    def translation(cls, offset: complex) -> "RationalMapSpec":
        return cls("translation", offset=offset)

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "power", "translation"):
            raise CapabilityError(f"map kind {self.kind!r} is outside the catalog")
        if self.kind == "power":
            n = self.exponent
            if (isinstance(n, bool) or not hasattr(type(n), "__index__")
                    or operator.index(n) not in (2, 3)):
                raise CapabilityError("power maps are supported for exponents 2 "
                                      f"and 3 only, got {n!r}")
            object.__setattr__(self, "exponent", operator.index(n))
        if self.kind == "translation":
            if not isinstance(self.offset, numbers.Complex):
                raise CapabilityError("translation map needs a numeric offset, "
                                      f"got {self.offset!r}")
            object.__setattr__(self, "offset", complex(self.offset))

    def _validate_for(self, curve: Curve) -> None:
        if self.kind == "power" and curve.kind != "sphere":
            raise CapabilityError("power maps are defined on the sphere only")
        if self.kind == "translation" and curve.kind != "elliptic":
            raise CapabilityError("translations are defined on elliptic curves only")


def pushforward(d: Divisor, spec: RationalMapSpec) -> Divisor:
    """Image divisor: each point P with multiplicity a maps to (f(P), a)."""
    spec._validate_for(d.curve)
    if spec.kind == "identity":
        return d
    if spec.kind == "power":
        n = spec.exponent
        terms = []
        for p, m in d.terms:
            if isinstance(p, _InfinityType):
                terms.append((INFINITY, m))
            else:
                terms.append((p ** n, m))
        return Divisor(d.curve, terms)
    # translation
    return Divisor(d.curve, [(p + spec.offset, m) for p, m in d.terms])


def pullback(d: Divisor, spec: RationalMapSpec) -> Divisor:
    """Preimage divisor: each point Q with multiplicity b yields every
    preimage with multiplicity b.

    Power maps branch exactly over 0 and infinity; a divisor meeting either
    critical value (within the disjointness tolerance) raises BranchError.
    """
    spec._validate_for(d.curve)
    if spec.kind == "identity":
        return d
    if spec.kind == "power":
        n = spec.exponent
        terms = []
        for q, b in d.terms:
            if isinstance(q, _InfinityType):
                raise BranchError("infinity is a critical value of z -> z^n")
            if abs(q) < DISJOINTNESS_TOL:
                raise BranchError("0 is a critical value of z -> z^n")
            r = abs(q) ** (1.0 / n)
            phase = cmath.phase(q)
            for k in range(n):
                root = cmath.rect(r, (phase + 2 * math.pi * k) / n)
                terms.append((root, b))
        return Divisor(d.curve, terms)
    # translation
    return Divisor(d.curve, [(q - spec.offset, b) for q, b in d.terms])


@dataclass(frozen=True)
class AdjunctionCheck:
    """Both sides of <Z, f^* W> = <f_* Z, W> and their disagreement."""

    lhs: float
    rhs: float
    residual: float


def check_adjunction(spec: RationalMapSpec, z: Divisor, w: Divisor) -> AdjunctionCheck:
    """Evaluate <z, pullback(w)> and <pushforward(z), w> and compare.

    z lives on the source curve, w on the target (the catalog maps are all
    endomorphisms, so both divisors carry the same curve).  Support
    collisions, including images of z hitting w, surface as
    DisjointnessError from the pairing evaluators.
    """
    if z.curve != w.curve:
        raise CurveMismatchError(
            f"adjunction needs both divisors on the map's curve, got "
            f"{z.curve!r} and {w.curve!r}"
        )
    lhs = linking(z, pullback(w, spec)).value
    rhs = linking(pushforward(z, spec), w).value
    return AdjunctionCheck(lhs, rhs, abs(lhs - rhs))
