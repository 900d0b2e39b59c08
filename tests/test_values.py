"""The value classes' contract: immutable fields, equality and hash over the
compared fields, keyword construction, pickle and copy, and a stable repr.
The five records, which validate nothing, are namedtuples: each also equals
the plain tuple of its values, indexes, unpacks and has a len.  Every other
value class stands on ``Frozen``."""

import copy
import pickle

import pytest

from holink import (
    AdjunctionCheck,
    BigradedDims,
    Curve,
    Divisor,
    GroupAction,
    HalfPeriodValues,
    INFINITY,
    LinkingResult,
    MasseyReport,
    RationalMapSpec,
    SuiteResult,
    TauParameter,
    torus_hodge,
)
from holink._frozen import Frozen

_SIGNS = [(1, -1, -1), (-1, 1, -1)]


def _warm_tau():
    # the cached tables live beside the fields and are not compared
    t = TauParameter(0.3 + 1.1j)
    t._green_terms
    return t


# name: (build, twin, field, repr).  ``build()`` is called twice with equal
# arguments; ``twin()`` must equal it too although it differs in what the
# class does not compare; ``field`` is assigned; the repr strings are those
# of the frozen dataclasses the classes replaced, and ``Divisor``'s own.
CASES = {
    "TauParameter": (
        lambda: TauParameter(0.3 + 1.1j), _warm_tau, "value",
        "TauParameter(value=(0.3+1.1j))"),
    "HalfPeriodValues": (
        lambda: HalfPeriodValues(1.5 + 0j, -0.75 + 0.25j, -0.75 - 0.25j), None,
        "e2", "HalfPeriodValues(e1=(1.5+0j), e2=(-0.75+0.25j), e3=(-0.75-0.25j))"),
    "Curve": (
        lambda: Curve("sphere"), None, "kind", "Curve.sphere()"),
    # the constructor builds a new curve; Curve.elliptic returns the one
    # curve of its shared tau
    "Curve-elliptic": (
        lambda: Curve("elliptic", 0.3 + 1.1j),
        lambda: Curve.elliptic(0.3 + 1.1j), "tau",
        "Curve.elliptic((0.3+1.1j))"),
    "LinkingResult": (
        lambda: LinkingResult(-0.25), None, "value", "LinkingResult(value=-0.25)"),
    "RationalMapSpec": (
        lambda: RationalMapSpec("power", exponent=2), None, "exponent",
        "RationalMapSpec(kind='power', exponent=2, offset=None)"),
    "AdjunctionCheck": (
        lambda: AdjunctionCheck(0.5, 0.5, 0.0), None, "residual",
        "AdjunctionCheck(lhs=0.5, rhs=0.5, residual=0.0)"),
    "MasseyReport": (
        lambda: MasseyReport(tau=1j, value_closed_form=-0.9, value_via_linking=-0.9,
                             residual=0.0, nonvanishing=True, lambda_at_tau=0.5 + 0j),
        None, "nonvanishing",
        "MasseyReport(tau=1j, value_closed_form=-0.9, value_via_linking=-0.9, "
        "residual=0.0, nonvanishing=True, lambda_at_tau=(0.5+0j))"),
    # the generators' order is not compared: the elements are sorted
    "GroupAction": (
        lambda: GroupAction.closed(_SIGNS),
        lambda: GroupAction.closed(_SIGNS[::-1]), "elements",
        "GroupAction(elements=((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)))"),
    "BigradedDims": (
        torus_hodge, None, "table",
        "BigradedDims(table=((1, 3, 3, 1), (3, 9, 9, 3), (3, 9, 9, 3), "
        "(1, 3, 3, 1)))"),
    "SuiteResult": (
        lambda: SuiteResult("theta-quasi", True, 2.5e-15, 1e-12, "40 draws"), None,
        "passed",
        "SuiteResult(name='theta-quasi', passed=True, worst=2.5e-15, "
        "tolerance=1e-12, detail='40 draws')"),
    # terms are canonicalised, so their input order is not compared
    "Divisor": (
        lambda: Divisor.sphere([(1, 1), (2, -1)]),
        lambda: Divisor.sphere([(2, -1), (1, 1)]), "terms",
        "Divisor(Curve.sphere(), [((1+0j), 1), ((2+0j), -1)])"),
    "Divisor-elliptic": (
        lambda: Divisor.elliptic(0.3 + 1.1j, [(0.5, 1), (0.25 + 0.55j, -1)]),
        lambda: Divisor.elliptic(0.3 + 1.1j, [(0.25 + 0.55j, -1), (1.5, 1)]),
        "curve",
        "Divisor(Curve.elliptic((0.3+1.1j)), [((0.25+0.55j), -1), "
        "((0.5+0j), 1)])"),
}

#: The records: namedtuples, not ``Frozen`` values.
RECORDS = ("HalfPeriodValues", "LinkingResult", "AdjunctionCheck",
           "MasseyReport", "SuiteResult")


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    build, twin, field, text = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name.split("-")[0]
    assert a is not b
    for other in (b, (twin or build)()):
        assert a == other and not a != other and hash(a) == hash(other)
    assert a != object() and a != name
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert repr(a) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(a, protocol))
        assert type(clone) is type(a)
        assert clone == a and hash(clone) == hash(a) and repr(clone) == text
        assert getattr(clone, field) == getattr(a, field)
    duplicate = copy.copy(a)
    assert type(duplicate) is type(a) and duplicate == a and repr(duplicate) == text
    assert getattr(duplicate, field) == getattr(a, field)
    assert isinstance(a, tuple if name in RECORDS else Frozen)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_the_tuple_of_its_values(name):
    record = CASES[name][0]()
    values = tuple(getattr(record, field) for field in record._fields)
    assert record == values and tuple(record) == values
    assert hash(record) == hash(values) and len(record) == len(values)
    assert [record[i] for i in range(len(values))] == list(values)
    first, *rest = record
    assert (first, *rest) == values
    assert type(record)(*values) == record == type(record)._make(values)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


def _term_bits(divisor):
    return [(p if p is INFINITY else (p.real.hex(), p.imag.hex()), m)
            for p, m in divisor.terms]


@pytest.mark.parametrize("divisor", [
    Divisor.sphere([(INFINITY, 2), (0.1 + 0.2j, -1), (1 / 3, -1)]),
    # reduced into the cell of the shifted tau -0.7+1.1i: the stored points
    # are not the ones given, and a copy keeps the stored bits
    Divisor.elliptic(1.3 + 1.1j, [(0.1 + 0.7j, 3), (-2.35 - 4.4j, -1),
                                  ((1.3 + 1.1j) / 2, -2)]),
    # next to the lattice point tau, on the cell edge x = 0: reducing the
    # stored point once more moves its last bit, so a copy must not
    # construct anew
    Divisor.elliptic(-0.30322773586661467 + 2.113429950059692j,
                     [(2.7870890565343673 + 8.453719800233012j, 1), (0.5, -1)]),
])
def test_divisor_pickle_and_copy_keep_the_point_bits(divisor):
    clones = [pickle.loads(pickle.dumps(divisor, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(divisor), copy.deepcopy(divisor)]:
        assert type(clone) is Divisor and clone == divisor
        assert hash(clone) == hash(divisor) and repr(clone) == repr(divisor)
        assert _term_bits(clone) == _term_bits(divisor)
