"""Hodge numbers of a blown-up torus quotient, by exact integer counting.

The threefold of interest is the crepant resolution of T/G, where T is a
product of three elliptic curves and G = Z/2 x Z/2 acts diagonally on the
holomorphic cotangent frame (dt, dz1, dz2) by sign patterns, which act on
the conjugate frame the same way.  Everything here is exact integer
arithmetic; no floats enter at any point.

The computation runs in two steps.  ``torus_hodge``, C(3,p) * C(3,q), is
not one of them: it is the binomial reference that the tests compare the
trivial group's ``invariant_dims`` against.

1. ``invariant_dims``: dimensions of the G-invariant part of
   Lambda^p(frame) tensor Lambda^q(conjugate frame), by averaging
   characters over the group; ``invariant_dims_by_enumeration`` counts
   invariant wedge monomials directly and must agree (both routes are kept
   on purpose, as a cross-check).
2. ``hodge_diamond_x``: the invariant table plus 16 on each cell with
   1 <= p, q <= 2, one elliptic-curve blow-up for each of the sixteen fixed
   curves of the quotient.
"""

from __future__ import annotations

import itertools
import math

from ._frozen import Frozen
from .errors import ActionValidationError
from .special_functions import _as_int

Signs = tuple[int, int, int]


def _validate_element(el) -> Signs:
    el = tuple(el)
    if len(el) != 3:
        raise ActionValidationError(
            f"group element must carry 3 signs (on dt, dz1, dz2), got {el!r}")
    try:
        signs = tuple(_as_int("sign", s) for s in el)
    except ValueError as exc:
        raise ActionValidationError(str(exc)) from None
    for s in signs:
        if s not in (1, -1):
            raise ActionValidationError(f"signs must be +1 or -1, got {s!r}")
    return signs  # type: ignore[return-value]


def _compose(a: Signs, b: Signs) -> Signs:
    return tuple(x * y for x, y in zip(a, b))  # type: ignore[return-value]


class GroupAction(Frozen):
    """A finite group of diagonal +-1 actions on the frame (dt, dz1, dz2).

    An element is three signs, each the int +1 or -1, one per frame
    vector; a real sign acts on the conjugate frame the same way.  The
    elements are kept in descending order, so one group given in any order
    compares and hashes equal.  The constructor checks that the identity is
    present and that the set is closed under composition (every diagonal
    sign element is its own inverse, so this makes it a group).
    """

    _fields = ("elements",)

    def __init__(self, elements: tuple[Signs, ...]) -> None:
        els = tuple(sorted(map(_validate_element, elements), reverse=True))
        object.__setattr__(self, "elements", els)
        if len(set(els)) != len(els):
            raise ActionValidationError("duplicate group elements")
        if (1, 1, 1) not in els:
            raise ActionValidationError("group action must contain the identity")
        el_set = set(els)
        for a in els:
            for b in els:
                if _compose(a, b) not in el_set:
                    raise ActionValidationError(
                        f"set is not closed under composition: {a!r} * {b!r} missing"
                    )

    @classmethod
    def closed(cls, generators) -> "GroupAction":
        """Close a list of sign vectors under composition and build the action:
        diagonal sign elements commute and square to the identity, so they
        generate the products of their subsets."""
        els = {(1, 1, 1)}
        for g in generators:
            g = _validate_element(g)
            els |= {_compose(e, g) for e in els}
        return cls(els)

    def order(self) -> int:
        return len(self.elements)


def standard_quotient_action() -> GroupAction:
    """The Z/2 x Z/2 action of the quotient construction.

    Generators, as sign patterns on (dt, dz1, dz2):

    * a free involution: half-period translation in the first factor
      (fixes dt) combined with negation of both other factors
      -> (+1, -1, -1);
    * a reflection: negation of the first and third factors, identity on
      the second -> (-1, +1, -1).
    """
    return GroupAction.closed([(1, -1, -1), (-1, 1, -1)])


class BigradedDims(Frozen):
    """A 4x4 table of integers dims[p][q], p, q in 0..3."""

    _fields = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]) -> None:
        if len(table) != 4 or any(len(row) != 4 for row in table):
            raise ValueError("BigradedDims wants a 4x4 table")
        for row in table:
            for v in row:
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
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

    For a diagonal element with signs s on the frame, and so on the
    conjugate frame, the trace on Lambda^p(frame) tensor Lambda^q(conjugate
    frame) is e_p(s) * e_q(s) with e_k the elementary symmetric polynomial;
    the invariant dimension is the group average, an exact integer because
    ``GroupAction`` admits only groups.
    """
    def elementary(signs: tuple[int, int, int], k: int) -> int:
        return sum(map(math.prod, itertools.combinations(signs, k)))

    def dim(p: int, q: int) -> int:
        return sum(elementary(el, p) * elementary(el, q)
                   for el in action.elements) // action.order()

    return BigradedDims.from_function(dim)


def invariant_dims_by_enumeration(action: GroupAction) -> BigradedDims:
    """Same dimensions by listing wedge monomials fixed by every element.

    Each monomial (a subset S of the frame, T of the conjugate frame, both
    indexing the three signs) is an eigenvector of every diagonal element,
    so the invariant subspace is spanned by monomials whose total sign is
    +1 for all group elements.
    """
    def dim(p: int, q: int) -> int:
        return sum(all(math.prod(el[i] for i in s_idx + t_idx) == 1
                       for el in action.elements)
                   for s_idx in itertools.combinations(range(3), p)
                   for t_idx in itertools.combinations(range(3), q))

    return BigradedDims.from_function(dim)


def hodge_diamond_x() -> BigradedDims:
    """Hodge numbers of the resolved quotient threefold.

    The invariant forms of the standard action on the torus, plus the
    crepant blow-up of the sixteen elliptic curves fixed by the non-free
    involutions: the reflection and its composite with the free involution
    each fix eight disjoint elliptic curves in the quotient (indexed by the
    two-torsion translates in the non-fibral directions).  Blowing up a
    smooth curve adds its Hodge numbers at (p - 1, q - 1), and an elliptic
    curve's are a 2x2 square of ones, so each adds one on every cell with
    1 <= p, q <= 2 and the boundary of the table is untouched.  The result
    is h^{0,0} = h^{3,0} = h^{0,3} = h^{3,3} = 1,
    h^{1,1} = h^{2,2} = h^{1,2} = h^{2,1} = 19, all else zero.
    """
    invariant = invariant_dims(standard_quotient_action())
    return BigradedDims.from_function(
        lambda p, q: invariant[p, q] + (16 if 1 <= p <= 2 and 1 <= q <= 2 else 0))
