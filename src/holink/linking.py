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
  constant is fixed to zero.  Elliptic divisors on one tau share one
  ``Curve``, so the pairing compares their curves by identity.

One kernel body, ``_pair_greens``, evaluates g_tau, for the pairing and
``arakelov_green`` alike, and clears each pair of the pairing just before
its term: it builds theta1 at each difference from per-point phases and
per-tau coefficients, divided by its largest term, so that no term leaves
double range at any Im tau; ``weierstrass_p`` sums the same folded theta1,
``_folded_theta1``.  Its independent references are theta1's own series,
in the tests, and Abel's theorem, in ``verify``'s principal-divisor suite:
the pairing with the divisor of p - p(a) is a sum of log|p(Q) - p(a)|,
summed by Eisenstein's rows without theta.  Each pair is taken in one
canonical order, and both evaluators add their terms with ``math.fsum``,
which is correctly rounded and so order independent: hence linking(z, w)
== linking(w, z) holds bit for bit.  They only sum: the comparison with
the half-period closed form and the altered-kernel checks live with the
other route comparisons, in ``massey`` and ``verify``.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
from collections import namedtuple
from collections.abc import Iterable, Iterator

from ._frozen import Frozen
from .errors import (
    BranchError,
    CapabilityError,
    CurveMismatchError,
    DisjointnessError,
    DomainError,
    HomologyError,
    PoleError,
)
from .special_functions import (
    POLE_TOL,
    TauParameter,
    _as_int,
    _corner_distance,
    _folded_theta1,
    _reduce_point,
    _reduced_difference,
    _turn,
    as_tau,
    reduce_mod_lattice,
)

#: Tolerance below which two support points count as colliding.
DISJOINTNESS_TOL = 1e-9

#: Distance below which ``Divisor`` merges two points into one term.
MERGE_TOL = 1e-12

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

    def __reduce__(self) -> str:
        # pickled by name, so every protocol, 0 and 1 too, loads the one
        # marker
        return "INFINITY"


INFINITY = _InfinityType()

Point = complex | _InfinityType


class Curve(Frozen):
    """Either the Riemann sphere or the elliptic curve C/(Z + Z*tau)."""

    _fields = ("kind", "tau")

    def __init__(self, kind: str, tau: TauParameter | complex | None = None) -> None:
        if kind not in ("sphere", "elliptic"):
            raise ValueError(f"unknown curve kind {kind!r}")
        if kind == "elliptic":
            if tau is None:
                raise ValueError("elliptic curve needs a tau parameter")
            tau = as_tau(tau)
        elif tau is not None:
            raise ValueError("the sphere carries no tau parameter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "tau", tau)

    @classmethod
    def sphere(cls) -> "Curve":
        return cls("sphere", None)

    @classmethod
    def elliptic(cls, tau: TauParameter | complex) -> "Curve":
        """The one curve of ``as_tau(tau)``, cached in that TauParameter's
        ``__dict__``: divisors on one shared tau share their curve."""
        t = as_tau(tau)
        if "_curve" not in t.__dict__:
            t.__dict__["_curve"] = cls("elliptic", t)
        return t.__dict__["_curve"]

    def __repr__(self) -> str:
        if self.kind == "sphere":
            return "Curve.sphere()"
        return f"Curve.elliptic({self.tau.value!r})"


SPHERE = Curve.sphere()


def _term_key(term: tuple[Point, int]) -> tuple:
    p = term[0]
    return (1, 0.0, 0.0) if p is INFINITY else (0, p.real, p.imag)


def _sphere_distance(p: Point, q: Point) -> float:
    """|p - q|; INFINITY is at distance 0 from itself and inf from every
    finite point.  On an elliptic curve ``_reduced_difference`` measures."""
    if isinstance(p, _InfinityType) or isinstance(q, _InfinityType):
        return 0.0 if p is q else math.inf
    return abs(p - q)


#: Margin of the merge screen in ``Divisor``, in units of Im tau: far above
#: MERGE_TOL / MIN_IM_TAU (2e-11), so the pairs it skips lie farther apart
#: than MERGE_TOL.
_SCREEN_MARGIN = 1e-9


class Divisor(Frozen):
    """Formal integer combination of points on a fixed curve.

    Terms are canonicalized on construction: elliptic points are reduced
    into the fundamental cell, duplicate points are merged, zero
    multiplicities are dropped, and the term list is sorted.  Instances
    are ``Frozen`` values; pickle and ``copy`` keep the stored point bits.
    Divisors that ``Divisor.elliptic`` builds on one tau share one curve.

    A point merges into the first earlier one within MERGE_TOL of it.  On an
    elliptic curve a screen skips the measurement of most pairs: two
    reduced points whose imaginary parts differ by a fraction of Im tau in
    (_SCREEN_MARGIN, 1 - _SCREEN_MARGIN) have a difference whose lattice
    coordinate y stays that far from an integer, so they lie at least
    _SCREEN_MARGIN * MIN_IM_TAU apart on the torus.  Every other pair is
    measured by ``_reduced_difference``, so the screen changes no term.
    """

    _fields = ("curve", "terms")

    def __init__(self, curve: Curve, terms: Iterable[tuple[Point, int]]):
        object.__setattr__(self, "curve", curve)
        elliptic = curve.kind == "elliptic"
        if elliptic:
            tv = curve.tau.shifted
        checked = []
        for point, mult in terms:
            if type(mult) is not int:
                mult = _as_int("multiplicity", mult)
            if isinstance(point, _InfinityType):
                if curve.kind != "sphere":
                    raise DomainError("infinity marker is only meaningful on the sphere")
            else:
                if type(point) is not complex:
                    point = complex(point)
                if not (math.isfinite(point.real) and math.isfinite(point.imag)):
                    raise DomainError(f"divisor point must be finite, got {point!r}")
                if elliptic:
                    point = _reduce_point(point, tv)
            checked.append((point, mult))
        object.__setattr__(self, "terms", _merged(curve, (), checked))

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
        return _restore_divisor(self.curve,
                                _merged(self.curve, self.terms, other.terms))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        """k * self: the same canonical points, their multiplicities scaled
        by k, and no terms for k = 0."""
        try:
            k = _as_int("scale", k)
        except ValueError:
            return NotImplemented
        return _restore_divisor(
            self.curve, tuple((p, k * m) for p, m in self.terms) if k else ())

    def __repr__(self) -> str:
        return f"Divisor({self.curve!r}, {list(self.terms)!r})"


def _merged(curve: Curve, terms: tuple, new: Iterable) -> tuple:
    """``terms``, a divisor's canonical terms on ``curve``, with each (point,
    mult) of ``new``, its point reduced already, merged into the first
    earlier point within MERGE_TOL of it, or appended; then sorted, without
    zero multiplicities.  No point is reduced here, so none moves a bit."""
    canon = list(terms)
    elliptic = curve.kind == "elliptic"
    if elliptic:
        t = curve.tau
        im_t = t.shifted.imag
        apart_lo, apart_hi = _SCREEN_MARGIN * im_t, (1.0 - _SCREEN_MARGIN) * im_t
    for point, mult in new:
        for i, (p0, m0) in enumerate(canon):
            if elliptic:
                if apart_lo < abs(p0.imag - point.imag) < apart_hi:
                    continue
                dist = _reduced_difference(p0, point, t)[1]
            else:
                dist = _sphere_distance(p0, point)
            if dist < MERGE_TOL:
                canon[i] = (p0, m0 + mult)
                break
        else:
            canon.append((point, mult))
    canon = [(p, m) for (p, m) in canon if m != 0]
    canon.sort(key=_term_key)
    return tuple(canon)


def _restore_divisor(curve: Curve, terms: tuple) -> Divisor:
    """The divisor with these canonical terms, as k * d and d + e build it:
    construction would reduce the points again, and a point on the cell
    edge x = 0 can move its last bit."""
    divisor = object.__new__(Divisor)
    object.__setattr__(divisor, "curve", curve)
    object.__setattr__(divisor, "terms", terms)
    return divisor


class LinkingMethod(enum.Enum):
    CROSS_RATIO = "cross-ratio"
    ARAKELOV_GREEN = "arakelov-green"


LinkingResult = namedtuple("LinkingResult", "value method")
LinkingResult.__doc__ = """Linking value plus provenance: ``method`` names the
evaluator that produced ``value``, the cross-ratio log sum on the sphere or
the Green-kernel double sum on an elliptic curve."""


def _check_pair(z: Divisor, w: Divisor, kind: str) -> None:
    """Check curve kind, then degrees: the evaluators clear the pairs."""
    if z.curve.kind != kind or z.curve != w.curve:
        raise CurveMismatchError(
            f"expected two divisors on one {kind} curve, got "
            f"{z.curve!r} and {w.curve!r}"
        )
    for which, d in (("first", z), ("second", w)):
        if d.degree() != 0:
            raise HomologyError(f"{which} divisor has degree {d.degree()}, expected 0")


def _collision(p: Point, dist: float) -> DisjointnessError:
    return DisjointnessError(f"supports collide near {p!r} (distance {dist:.3e})")


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

    Every pair is cleared before any term is formed.  Any pair containing
    the infinity marker contributes nothing (the factor containing infinity
    drops out of the cross-ratio limit).  The swap symmetry is exact:
    abs(p - q) == abs(q - p), and ``fsum`` is order independent.
    """
    _check_pair(z, w, "sphere")
    measured = []
    for p, a in z.terms:
        for q, b in w.terms:
            dist = _sphere_distance(p, q)
            if dist < DISJOINTNESS_TOL:
                raise _collision(p, dist)
            if INFINITY not in (p, q):
                measured.append((a * b, dist))
    total = _pairing_sum(ab * math.log(r) for ab, r in measured)
    return LinkingResult(total / math.pi, LinkingMethod.CROSS_RATIO)


def arakelov_green(u: complex, tau: TauParameter | complex) -> float:
    """Green kernel g_tau(u) of the flat torus C/(Z + Z*tau).

    g_tau(u) = (1/pi) * (log|theta1(u, tau)| - pi*(Im u)^2 / Im tau), with
    additive constant zero, at tau.shifted.  The argument is reduced into
    the fundamental cell once, so periodicity is exact, and g is the
    pairing's kernel ``_pair_greens`` at the pair (0, reduced u), whose
    terms stay in double range at any Im tau.  Lattice points are poles:
    PoleError within POLE_TOL of a cell corner, the only check made.

    Near the lattice the kernel's sums cancel: at distance d from it the
    absolute error is about c * eps / d, with c below 1 over [-1, 1] x
    [0.3, 3] and up to 37 near the cusp 0 at the Im tau floor (against
    40-digit mpmath, 100 seeded points each).
    """
    t = as_tau(tau)
    ur = reduce_mod_lattice(u, t)
    if _corner_distance(ur, t) < POLE_TOL:
        raise PoleError(f"green kernel has a logarithmic pole at {u!r}")
    return next(_pair_greens(t, ((0j, 1),), ((ur, 1),), clear=False))


def linking_elliptic(z: Divisor, w: Divisor) -> LinkingResult:
    """<Z, W> on C/(Z + Z*tau) via the Green-kernel double sum.

    value = sum_{(P,a)} sum_{(Q,b)} a * b * g_tau(P - Q).

    One pass of ``_pair_greens``, z-major, clears each pair and then forms
    its term; the first colliding pair raises DisjointnessError.
    """
    _check_pair(z, w, "elliptic")
    greens = _pair_greens(z.curve.tau, z.terms, w.terms)
    return LinkingResult(_pairing_sum(greens), LinkingMethod.ARAKELOV_GREEN)


def _pair_greens(t: TauParameter, z_terms: Iterable, w_terms: Iterable,
                 clear: bool = True) -> Iterator[float]:
    """a * b * g_tau(A - B) for each (P, a) of ``z_terms`` and (Q, b) of
    ``w_terms``, z-major, reduced points of ``t``: (A, B) is (P, Q) with the
    smaller (re, im) first, as ``_reduced_difference`` orders them.  With
    ``clear``, a pair nearer than DISJOINTNESS_TOL raises DisjointnessError
    before its term; only a pair whose Im parts differ by at most apart_lo
    = 2 * DISJOINTNESS_TOL * max(1, Im tau), or by at least Im tau -
    apart_lo, can be, and ``_reduced_difference`` measures those.

    The pair is taken at u = A + s*tau - B, s in {-1, 0, 1}, so that
    y = Im u has |y| <= Im tau / 2 (g is periodic).  With X = exp(2*pi*i*u),
    or exp(-2*pi*i*u) where y < 0, so that |X| = exp(-2*pi*|y|) <= 1,
    theta1's q-series (DLMF 20.2.1) is +-i q^(1/4) X^(-1/2) F, where

        F = X G(X) - G(1/X),   G(t) = sum_{n >= 0} (-1)^n q^(n(n+1)) t^n,

    and |F| is |theta1(u)| over its largest term exp(-pi*Im(tau)/4 +
    pi*|y|).  So g_tau(u) = log|F| / pi - (Im tau / 2 - |y|)^2 / Im tau.
    X is exp(-2*pi*|y|) times the unit phases of A, B and s*tau, taken
    once per point and once per tau.  F is ``_folded_theta1``, as in
    ``weierstrass_p``; no term of it exceeds 1.  A product a * b beyond
    double range makes the term inf, which ``_pairing_sum`` reports after
    the pass, so a later colliding pair raises DisjointnessError first.
    """
    coefs, up, down = t._green_terms
    im_t = t.shifted.imag
    half = 0.5 * im_t
    apart_lo = 2.0 * DISJOINTNESS_TOL * max(1.0, im_t)
    apart_hi = im_t - apart_lo
    exp, log, fold, two_pi = math.exp, math.log, _folded_theta1, _TWO_PI
    w_phased = []
    for q, b in w_terms:
        e = _turn(q.real)
        w_phased.append((q, q.real, q.imag, b, e, e.conjugate()))
    for p, a in z_terms:
        p_re, p_im = p.real, p.imag
        ep = _turn(p_re)
        ep_c = ep.conjugate()
        for q, q_re, q_im, b, eq, eq_c in w_phased:
            y = p_im - q_im
            if clear and not apart_lo < abs(y) < apart_hi:
                dist = _reduced_difference(p, q, t)[1]
                if dist < DISJOINTNESS_TOL:
                    raise _collision(p, dist)
            if p_re < q_re or p_re == q_re and p_im <= q_im:
                ph, ph_c = ep * eq_c, eq * ep_c
            else:
                y = -y
                ph, ph_c = eq * ep_c, ep * eq_c
            if y > half:
                y -= im_t
                ph, ph_c = ph * down, ph_c * up
            elif y < -half:
                y += im_t
                ph, ph_c = ph * up, ph_c * down
            if y < 0.0:
                y = -y
                ph, ph_c = ph_c, ph
            x = ph * exp(-two_pi * y)
            x_inv = ph_c * exp(two_pi * (y - half))
            gap = half - y
            g = (log(abs(fold(coefs, x, x_inv))) / math.pi
                 - gap * (gap / im_t))
            try:
                g *= a * b
            except OverflowError:  # a * b beyond double range
                g = math.inf
            yield g


def linking(z: Divisor, w: Divisor) -> LinkingResult:
    """Dispatch by curve kind; the evaluator rejects mismatched curves."""
    if z.curve.kind == "sphere":
        return linking_sphere(z, w)
    return linking_elliptic(z, w)


class RationalMapSpec(Frozen):
    """A map from the supported catalog.

    kind = "identity" (either curve), "power" with an integral exponent n
    in {2, 3} (sphere to sphere, z -> z^n), or "translation" by a fixed
    numeric offset, kept as a complex (elliptic curve to itself).  Anything
    else, a bool offset included, raises CapabilityError on construction, as
    does applying a map to a curve it is not defined on; an offset that is
    not finite in double precision raises DomainError on construction.
    """

    _fields = ("kind", "exponent", "offset")

    def __init__(self, kind: str, exponent: int | None = None,
                 offset: complex | None = None) -> None:
        if kind not in ("identity", "power", "translation"):
            raise CapabilityError(f"map kind {kind!r} is outside the catalog")
        if kind == "power":
            try:
                n = _as_int("exponent", exponent)
            except ValueError:
                n = None
            if n not in (2, 3):
                raise CapabilityError("power maps are supported for exponents 2 "
                                      f"and 3 only, got {exponent!r}")
            exponent = n
        if kind == "translation":
            if isinstance(offset, bool) or not isinstance(offset, numbers.Complex):
                raise CapabilityError("translation map needs a numeric offset, "
                                      f"got {offset!r}")
            try:
                offset = complex(offset)
            except OverflowError:  # a number beyond double range
                offset = complex(math.inf)
            if not cmath.isfinite(offset):
                raise DomainError(f"translation offset must be finite, got {offset!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def identity(cls) -> "RationalMapSpec":
        return cls("identity")

    @classmethod
    def power(cls, n: int) -> "RationalMapSpec":
        return cls("power", exponent=n)

    @classmethod
    def translation(cls, offset: complex) -> "RationalMapSpec":
        return cls("translation", offset=offset)

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
        return Divisor(d.curve, [(p if p is INFINITY else _power(p, n), m)
                                 for p, m in d.terms])
    # translation
    return Divisor(d.curve, [(p + spec.offset, m) for p, m in d.terms])


def _power(p: complex, n: int) -> complex:
    """p^n, or DomainError naming p where p^n leaves double range (Python
    raises OverflowError for some such p and returns NaN for others)."""
    try:
        image = p ** n
        if cmath.isfinite(image):
            return image
    except OverflowError:
        pass
    raise DomainError(f"z^{n} leaves double range at the divisor point {p!r}")


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


AdjunctionCheck = namedtuple("AdjunctionCheck", "lhs rhs residual")
AdjunctionCheck.__doc__ = """Both sides of <Z, f^* W> = <f_* Z, W> and their
disagreement."""


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
