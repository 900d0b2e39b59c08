"""Invariant-form dimensions, the blow-up shift, and the final diamond."""

import math

import numpy as np
import pytest

from holink import (
    ActionValidationError,
    BigradedDims,
    GroupAction,
    hodge_diamond_x,
    invariant_dims,
    invariant_dims_by_enumeration,
    standard_quotient_action,
    torus_hodge,
)

EXPECTED_DIAMOND = (
    (1, 0, 0, 1),
    (0, 19, 19, 0),
    (0, 19, 19, 0),
    (1, 0, 0, 1),
)
EXPECTED_BETTI = [1, 0, 19, 40, 19, 0, 1]


def test_torus_hodge_is_binomial():
    t = torus_hodge()
    for p in range(4):
        for q in range(4):
            assert t[p, q] == math.comb(3, p) * math.comb(3, q)
    assert [t.betti(k) for k in range(7)] == [math.comb(6, k) for k in range(7)]
    assert t.euler_characteristic() == 0


def test_standard_action_shape():
    act = standard_quotient_action()
    assert act.order() == 4
    assert act.elements == ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def test_invariant_table_spot_values():
    inv = invariant_dims(standard_quotient_action())
    spots = {
        (0, 0): 1, (1, 1): 3, (3, 0): 1, (2, 1): 3,
        (1, 2): 3, (0, 3): 1, (2, 2): 3, (3, 3): 1,
    }
    for pq, want in spots.items():
        assert inv[pq] == want, (pq, inv[pq], want)
    # everything off those spots vanishes for this action
    for p in range(4):
        for q in range(4):
            if (p, q) not in spots:
                assert inv[p, q] == 0, (p, q)


def test_invariant_dims_two_routes_agree_standard():
    act = standard_quotient_action()
    assert invariant_dims(act).table == invariant_dims_by_enumeration(act).table


def test_invariant_dims_two_routes_agree_synthetic():
    # random sign-pattern groups
    rng = np.random.default_rng(301)
    for _ in range(30):
        act = GroupAction.closed([tuple(rng.choice([1, -1], size=3))
                                  for _ in range(rng.integers(1, 4))])
        a = invariant_dims(act)
        b = invariant_dims_by_enumeration(act)
        assert a.table == b.table
        assert a[0, 0] == 1  # constants are always invariant
        # averaging over a subgroup can only cut dimensions down
        full = torus_hodge()
        for p in range(4):
            for q in range(4):
                assert 0 <= a[p, q] <= full[p, q]


def test_trivial_action_recovers_torus():
    act = GroupAction(((1, 1, 1),))
    assert invariant_dims(act).table == torus_hodge().table


def test_action_validation():
    idn = (1, 1, 1)
    with pytest.raises(ActionValidationError):
        GroupAction(())  # no identity
    with pytest.raises(ActionValidationError):
        GroupAction(((1, -1, -1),))  # identity missing
    with pytest.raises(ActionValidationError):
        GroupAction((idn, (1, -1)))  # wrong arity
    with pytest.raises(ActionValidationError):
        GroupAction((idn, (1, -1, 0)))  # not a sign
    with pytest.raises(ActionValidationError):
        # not closed: missing the product of the two non-identity elements
        GroupAction((idn, (1, -1, -1), (-1, 1, -1)))
    with pytest.raises(ActionValidationError, match="^duplicate group elements$"):
        GroupAction((idn, (1, -1, -1), idn))
    # the six-sign form, each sign repeated on the conjugate frame
    with pytest.raises(ActionValidationError, match="must carry 3 signs"):
        GroupAction(((1, 1, 1, 1, 1, 1),))
    with pytest.raises(ActionValidationError, match="must carry 3 signs"):
        GroupAction.closed([(1, -1, -1, 1, -1, -1)])


def test_action_equality_ignores_the_order_of_its_elements():
    idn, a, b, ab = (1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)
    closed = GroupAction.closed([a, b])
    for order in ((idn, a, b, ab), (idn, b, a, ab), (ab, b, idn, a)):
        act = GroupAction(order)
        assert act == closed and hash(act) == hash(closed)
        assert act.elements == closed.elements and repr(act) == repr(closed)


@pytest.mark.parametrize("sign", [True, 1.0, -1.0, np.float64(1.0), np.bool_(True)])
def test_action_signs_are_ints(sign):
    # a bool or a float is not a sign, though it compares equal to one
    for build in (GroupAction, GroupAction.closed):
        with pytest.raises(ActionValidationError, match="sign must be an int"):
            build(((sign,) * 3,))


def test_action_stores_numpy_signs_as_ints():
    act = GroupAction.closed([tuple(np.array([1, -1, -1]))])
    assert act == GroupAction.closed([(1, -1, -1)])
    assert {type(s) for el in act.elements for s in el} == {int}
    act = GroupAction(((np.int64(1),) * 3,))
    assert type(act.elements[0][0]) is int
    assert repr(act) == "GroupAction(elements=((1, 1, 1),))"


def test_bigraded_dims_validation():
    with pytest.raises(ValueError):
        BigradedDims(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        BigradedDims.from_function(lambda p, q: -1)
    # entries are non-bool ints
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="non-negative ints"):
            BigradedDims(((bad, 0, 0, 0),) + ((0, 0, 0, 0),) * 3)


def test_hodge_symmetries_of_invariant_table():
    inv = invariant_dims(standard_quotient_action())
    for p in range(4):
        for q in range(4):
            assert inv[p, q] == inv[q, p]           # conjugation
            assert inv[p, q] == inv[3 - p, 3 - q]   # Serre duality


def test_blowup_shifts_middle_only():
    # the sixteen elliptic-curve blow-ups add 16 on each cell with
    # 1 <= p, q <= 2; the boundary of the table is the invariant table's
    base = invariant_dims(standard_quotient_action())
    out = hodge_diamond_x()
    for p in range(4):
        for q in range(4):
            want = 16 if 1 <= p <= 2 and 1 <= q <= 2 else 0
            assert out[p, q] - base[p, q] == want, (p, q)


def test_final_diamond_exact():
    x = hodge_diamond_x()
    for p in range(4):
        for q in range(4):
            assert x[p, q] == EXPECTED_DIAMOND[p][q], (p, q)
    assert x.as_matrix() == [list(r) for r in EXPECTED_DIAMOND]


def test_final_betti_and_euler():
    x = hodge_diamond_x()
    assert [x.betti(k) for k in range(7)] == EXPECTED_BETTI
    assert x.euler_characteristic() == 0
    # anti-diagonal sums of the table are exactly the Betti numbers
    anti = [sum(x[p, k - p] for p in range(4) if 0 <= k - p <= 3)
            for k in range(7)]
    assert anti == EXPECTED_BETTI


def test_diamond_rendering():
    txt = hodge_diamond_x().diamond()
    lines = txt.splitlines()
    assert len(lines) == 7
    assert lines[0].split() == ["1"]
    assert lines[1].split() == ["0", "0"]
    assert lines[2].split() == ["0", "19", "0"]
    assert lines[3].split() == ["1", "19", "19", "1"]
    assert lines[4].split() == ["0", "19", "0"]
    assert lines[5].split() == ["0", "0"]
    assert lines[6].split() == ["1"]
    # no trailing spaces anywhere (stable for golden comparisons)
    assert all(line == line.rstrip() for line in lines)
