"""Hodge numbers of a blown-up torus quotient, by exact integer counting.

The threefold of interest is the crepant resolution of T/G, where T is a
product of three elliptic curves and G = Z/2 x Z/2 acts diagonally on the
holomorphic cotangent frame (dt, dz1, dz2) by sign patterns (and by the
same signs on the conjugate frame).  Everything here is exact integer
arithmetic; no floats enter at any point.

The computation runs in three steps:

1. ``torus_hodge``: h^{p,q}(T) = C(3,p) * C(3,q).
2. ``invariant_dims``: dimensions of the G-invariant part of
   Lambda^p(frame) tensor Lambda^q(conjugate frame), by averaging
   characters over the group; ``invariant_dims_by_enumeration`` counts
   invariant wedge monomials directly and must agree (both routes are kept
   on purpose, as a cross-check).
3. ``blowup_assemble``: a blow-up along a smooth center adds the center's
   (p-1, q-1) numbers; the sixteen fixed elliptic curves of the quotient
   each contribute an elliptic-curve Hodge square of ones.
"""

from __future__ import annotations

import itertools
import math

from ._frozen import Frozen
from .errors import ActionValidationError

_GENERATORS = ("dt", "dz1", "dz2", "dt~", "dz1~", "dz2~")

Signs = tuple[int, int, int, int, int, int]


def _validate_element(el) -> Signs:
    el = tuple(el)
    if len(el) != 6:
        raise ActionValidationError(
            f"group element must carry 6 signs (one per generator), got {el!r}"
        )
    for s in el:
        if s not in (1, -1):
            raise ActionValidationError(f"signs must be +1 or -1, got {s!r}")
    return el  # type: ignore[return-value]


def _compose(a: Signs, b: Signs) -> Signs:
    return tuple(x * y for x, y in zip(a, b))  # type: ignore[return-value]


class GroupAction(Frozen):
    """A finite group of diagonal +-1 actions on the six-generator frame.

    Elements act on (dt, dz1, dz2) and their conjugates by signs.  The
    constructor checks that the identity is present and the set is closed
    under composition (every diagonal sign element is its own inverse, so
    this makes it a group).  Actions coming from holomorphic automorphisms
    satisfy the conjugation pairing sign[k] == sign[k+3]; that check can be
    relaxed for synthetic sign-pattern families used in tests, and is left
    out of equality and hash.
    """

    _fields = ("elements", "require_conjugation")

    def __init__(self, elements: tuple[Signs, ...],
                 require_conjugation: bool = True) -> None:
        els = tuple(_validate_element(e) for e in elements)
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "require_conjugation", require_conjugation)
        if len(set(els)) != len(els):
            raise ActionValidationError("duplicate group elements")
        identity = (1, 1, 1, 1, 1, 1)
        if identity not in els:
            raise ActionValidationError("group action must contain the identity")
        el_set = set(els)
        for a in els:
            for b in els:
                if _compose(a, b) not in el_set:
                    raise ActionValidationError(
                        f"set is not closed under composition: {a!r} * {b!r} missing"
                    )
        if require_conjugation:
            for e in els:
                for k in range(3):
                    if e[k] != e[k + 3]:
                        raise ActionValidationError(
                            f"element {e!r} breaks the conjugation pairing "
                            f"(sign on {_GENERATORS[k]} must equal sign on "
                            f"{_GENERATORS[k + 3]})"
                        )

    @classmethod
    def closed(cls, generators, *, require_conjugation: bool = True) -> "GroupAction":
        """Close a list of sign vectors under composition and build the action:
        diagonal sign elements commute and square to the identity, so they
        generate the products of their subsets."""
        els = {(1, 1, 1, 1, 1, 1)}
        for g in generators:
            g = _validate_element(g)
            els |= {_compose(e, g) for e in els}
        return cls(tuple(sorted(els, reverse=True)),
                   require_conjugation=require_conjugation)

    def order(self) -> int:
        return len(self.elements)

    def _key(self) -> tuple:
        return (self.elements,)


def standard_quotient_action() -> GroupAction:
    """The Z/2 x Z/2 action of the quotient construction.

    Generators, as sign patterns on (dt, dz1, dz2):

    * a free involution: half-period translation in the first factor
      (fixes dt) combined with negation of both other factors
      -> (+1, -1, -1);
    * a reflection: negation of the first and third factors, identity on
      the second -> (-1, +1, -1).
    """
    g1 = (1, -1, -1, 1, -1, -1)
    g2 = (-1, 1, -1, -1, 1, -1)
    return GroupAction.closed([g1, g2])


class BigradedDims(Frozen):
    """A 4x4 table of integers dims[p][q], p, q in 0..3."""

    _fields = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]) -> None:
        if len(table) != 4 or any(len(row) != 4 for row in table):
            raise ValueError("BigradedDims wants a 4x4 table")
        for row in table:
            for v in row:
                if not isinstance(v, int) or v < 0:
                    raise ValueError(f"dimensions must be non-negative ints, got {v!r}")
        object.__setattr__(self, "table", table)

    @classmethod
    def from_function(cls, fn) -> "BigradedDims":
        return cls(tuple(tuple(int(fn(p, q)) for q in range(4)) for p in range(4)))

    def __getitem__(self, pq: tuple[int, int]) -> int:
        p, q = pq
        return self.table[p][q]

    def as_matrix(self) -> list[list[int]]:
        """Rows indexed by p, columns by q."""
        return [list(row) for row in self.table]

    def betti(self, k: int) -> int:
        """b_k = sum of h^{p,q} over p + q = k."""
        return sum(self.table[p][k - p] for p in range(4) if 0 <= k - p <= 3)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.betti(k) for k in range(7))

    def diamond(self) -> str:
        """Centered diamond rendering, h^{0,0} at the top.

        Row k lists h^{p, k-p} with p descending, so the third row reads
        h^{3,0} h^{2,1} h^{1,2} h^{0,3}.
        """
        cell = max(len(str(v)) for row in self.table for v in row)
        rows = []
        for k in range(7):
            ps = [p for p in range(3, -1, -1) if 0 <= k - p <= 3]
            entries = [str(self.table[p][k - p]).rjust(cell) for p in ps]
            rows.append("  ".join(entries))
        width = max(len(r) for r in rows)
        return "\n".join(r.center(width).rstrip() for r in rows)


def torus_hodge() -> BigradedDims:
    """Hodge numbers of a three-dimensional complex torus: C(3,p)*C(3,q)."""
    return BigradedDims.from_function(
        lambda p, q: math.comb(3, p) * math.comb(3, q))


def invariant_dims(action: GroupAction) -> BigradedDims:
    """Dimensions of the invariant (p,q)-forms, by character averaging.

    For a diagonal element with signs s on the frame, the trace on
    Lambda^p(frame) tensor Lambda^q(conjugate frame) is
    e_p(s_0, s_1, s_2) * e_q(s_3, s_4, s_5) with e_k the elementary
    symmetric polynomial; the invariant dimension is the group average,
    an exact integer because ``GroupAction`` admits only groups.
    """
    def elementary(signs: tuple[int, int, int], k: int) -> int:
        return sum(map(math.prod, itertools.combinations(signs, k)))

    def dim(p: int, q: int) -> int:
        return sum(elementary(el[:3], p) * elementary(el[3:], q)
                   for el in action.elements) // action.order()

    return BigradedDims.from_function(dim)


def invariant_dims_by_enumeration(action: GroupAction) -> BigradedDims:
    """Same dimensions by listing wedge monomials fixed by every element.

    Each monomial (a subset S of the frame, T of the conjugate frame) is an
    eigenvector of every diagonal element, so the invariant subspace is
    spanned by monomials whose total sign is +1 for all group elements.
    """
    def dim(p: int, q: int) -> int:
        return sum(all(math.prod(el[i] for i in s_idx + t_idx) == 1
                       for el in action.elements)
                   for s_idx in itertools.combinations(range(3), p)
                   for t_idx in itertools.combinations(range(3, 6), q))

    return BigradedDims.from_function(dim)


class BlowupCenter(Frozen):
    """A smooth center of blow-up with its own (small) Hodge table.

    For a curve center only h^{p,q} with p, q in {0, 1} can be nonzero; an
    elliptic curve has all four equal to one.
    """

    _fields = ("label", "dims")

    def __init__(self, label: str,
                 dims: tuple[tuple[int, int], tuple[int, int]]) -> None:
        if (len(dims) != 2 or any(len(row) != 2 for row in dims)
                or any(not isinstance(v, int) or v < 0
                       for row in dims for v in row)):
            raise ValueError(f"center {label!r} has invalid dims {dims!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def elliptic_curve(cls, label: str) -> "BlowupCenter":
        return cls(label, ((1, 1), (1, 1)))

    def dim(self, p: int, q: int) -> int:
        if 0 <= p <= 1 and 0 <= q <= 1:
            return self.dims[p][q]
        return 0


def blowup_assemble(base: BigradedDims, centers: list[BlowupCenter]) -> BigradedDims:
    """Hodge numbers after blowing up each center once:

    dims(p, q) = base(p, q) + sum_centers center(p-1, q-1).

    Out-of-range shifts contribute nothing, so the corners of the table are
    untouched, as they must be for a birational modification of a smooth
    projective threefold.
    """
    for c in centers:
        if not isinstance(c, BlowupCenter):
            raise ValueError(f"centers must be BlowupCenter instances, got {c!r}")

    def dim(p: int, q: int) -> int:
        extra = sum(c.dim(p - 1, q - 1) for c in centers)
        return base[p, q] + extra

    return BigradedDims.from_function(dim)


def quotient_fixed_curves() -> list[BlowupCenter]:
    """The sixteen elliptic curves fixed by the non-free involutions.

    The reflection involution and its composite with the free involution
    each fix eight disjoint elliptic curves in the quotient (indexed by the
    two-torsion translates in the non-fibral directions); all sixteen are
    crepant blow-up centers of the resolution.
    """
    return [BlowupCenter.elliptic_curve(f"fixed-curve-{k}-{l}")
            for k in range(4) for l in range(4)]


def hodge_diamond_x() -> BigradedDims:
    """Hodge numbers of the resolved quotient threefold.

    Pipeline: invariant forms of the standard action on the torus, then one
    elliptic-curve blow-up contribution for each of the sixteen fixed
    curves.  The result is h^{0,0} = h^{3,0} = h^{0,3} = h^{3,3} = 1,
    h^{1,1} = h^{2,2} = h^{1,2} = h^{2,1} = 19, all else zero.
    """
    invariant = invariant_dims(standard_quotient_action())
    return blowup_assemble(invariant, quotient_fixed_curves())
