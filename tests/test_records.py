"""The contract every pxpy record keeps: immutable, hashable, checked on construction.

Every checked record (EquationInstance, SolutionTriple, SearchBox and
CatalanInstance) refuses a non-integer field with TypeError and stores a
plain int for any integer-like one.
"""

import pytest

from pxpy.arithmetic import RootResult
from pxpy.catalan import CatalanInstance
from pxpy.classifier import (
    EquationInstance,
    SolutionFamily,
    SolutionTriple,
    trace_candidate,
    verify,
)
from pxpy.oracle import CrossCheckResult, SearchBox, SearchReport, brute_force


def _records():
    """(name, build, a field name): build() makes a fresh record of equal value."""
    inst, box = EquationInstance(2, 1), SearchBox(3, 4)
    hits = (SolutionTriple(0, 3, 3), SolutionTriple(1, 1, 2))
    return [
        ("RootResult", lambda: RootResult(3, True), "root"),
        ("EquationInstance", lambda: EquationInstance(2, 1), "p"),
        ("SolutionTriple", lambda: SolutionTriple(1, 2, 3), "z"),
        ("SolutionFamily", lambda: SolutionFamily(EquationInstance(2, 1), 3, 0, 3, 0), "scale"),
        ("SearchBox", lambda: SearchBox(3, 4), "y_max"),
        ("SearchReport", lambda: SearchReport(inst, box, hits, 1.5), "solutions"),
        ("CrossCheckResult", lambda: CrossCheckResult(inst, box, (), hits[:1]), "only_families"),
        ("CatalanInstance", lambda: CatalanInstance(3, 2, 2, 3), "b"),
    ]


RECORDS = _records()
IDS = [name for name, _, _ in RECORDS]


@pytest.mark.parametrize("name, build, field", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(name, build, field):
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert getattr(record, field) == before


@pytest.mark.parametrize("name, build, field", RECORDS, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(name, build, field):
    first, again = build(), build()
    assert first is not again
    assert first == again and not first != again
    assert hash(first) == hash(again)
    assert len({first, again}) == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EquationInstance(2, 0), "n must be >= 1"),
        (lambda: EquationInstance(4, 0), "n must be >= 1"),
        (lambda: EquationInstance(4, 1), "p must be prime, got 4"),
        (lambda: EquationInstance(1, 1), "p must be prime, got 1"),
        (lambda: SolutionTriple(-1, 0, 0), "x, y, z must be non-negative"),
        (lambda: SolutionTriple(0, -1, 0), "x, y, z must be non-negative"),
        (lambda: SolutionTriple(0, 0, -1), "x, y, z must be non-negative"),
        (lambda: SearchBox(-1, 0), "box bounds must be non-negative"),
        (lambda: SearchBox(0, -1), "box bounds must be non-negative"),
        (lambda: CatalanInstance(-1, 2, 2, 3), "all fields must be non-negative"),
        (lambda: CatalanInstance(3, 2, 2, -3), "all fields must be non-negative"),
    ],
)
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_solution_triples_order_by_x_then_y_then_z():
    keys = [(1, 1, 3), (0, 3, 3), (3, 0, 3), (1, 1, 2), (0, 4, 0), (1, 0, 9)]
    triples = [SolutionTriple(*key) for key in keys]
    assert [t.as_tuple() for t in sorted(triples)] == sorted(keys)
    assert SolutionTriple(0, 9, 9) < SolutionTriple(1, 0, 0)
    assert SolutionTriple(2, 2, 2) <= SolutionTriple(2, 2, 2)
    assert SolutionTriple(2, 3, 0) > SolutionTriple(2, 2, 7)


class TestSearchReportEquality:
    def _report(self, solutions, elapsed_ms):
        return SearchReport(EquationInstance(2, 1), SearchBox(3, 4), solutions, elapsed_ms)

    def test_elapsed_time_is_left_out(self):
        hits = (SolutionTriple(0, 3, 3),)
        fast, slow = self._report(hits, 0.25), self._report(hits, 90.0)
        assert fast == slow
        assert not fast != slow
        assert hash(fast) == hash(slow)
        assert slow.elapsed_ms == 90.0

    def test_different_solutions_differ(self):
        one = self._report((SolutionTriple(0, 3, 3),), 1.0)
        other = self._report((SolutionTriple(3, 0, 3),), 1.0)
        assert one != other
        assert not one == other

    def test_a_report_equals_only_a_report(self):
        report = self._report((SolutionTriple(0, 3, 3),), 1.0)
        assert report != tuple(report) and tuple(report) != report
        assert not report == tuple(report)


NOT_AN_INTEGER = "'float' object cannot be interpreted as an integer"


class Integral:
    """An integer-like value that is not an int: it only has __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


CHECKED = [
    ("EquationInstance", EquationInstance, (3, 1)),
    ("SolutionTriple", SolutionTriple, (3, 0, 3)),
    ("SearchBox", SearchBox, (3, 4)),
    ("CatalanInstance", CatalanInstance, (3, 2, 2, 3)),
]


@pytest.mark.parametrize("name, cls, fields", CHECKED, ids=[c[0] for c in CHECKED])
def test_checked_records_refuse_a_float_in_any_field(name, cls, fields):
    for i in range(len(fields)):
        floated = list(fields)
        floated[i] = float(floated[i])
        with pytest.raises(TypeError) as excinfo:
            cls(*floated)
        assert str(excinfo.value) == NOT_AN_INTEGER


@pytest.mark.parametrize("name, cls, fields", CHECKED, ids=[c[0] for c in CHECKED])
def test_checked_records_store_plain_ints(name, cls, fields):
    for i, field in enumerate(cls._fields):
        changed = list(fields)
        changed[i] = Integral(fields[i])
        record = cls(*changed)
        assert [type(value) for value in record] == [int] * len(fields)
        assert record == fields
        assert type(cls(*fields)._replace(**{field: Integral(fields[i])})[i]) is int


def test_a_numpy_prime_builds_an_instance_every_function_can_use():
    numpy = pytest.importorskip("numpy")
    instance = EquationInstance(numpy.int64(3), 1)
    assert type(instance.p) is int
    assert trace_candidate(instance, SolutionTriple(1, 0, 2)).accepted
    assert verify(instance, SolutionTriple(1, 0, 2))
    assert (1, 0, 2) in brute_force(instance, SearchBox(3, 3)).solutions


@pytest.mark.parametrize(
    "record, change, message",
    [
        (EquationInstance(2, 1), {"p": 4}, "p must be prime, got 4"),
        (EquationInstance(2, 1), {"n": 0}, "n must be >= 1"),
        (SolutionTriple(1, 2, 3), {"x": -1}, "x, y, z must be non-negative"),
        (SearchBox(3, 4), {"y_max": -1}, "box bounds must be non-negative"),
        (CatalanInstance(3, 2, 2, 3), {"a": -1}, "all fields must be non-negative"),
        (EquationInstance(2, 1), {"n": 1.0}, NOT_AN_INTEGER),
        (SearchBox(3, 4), {"x_max": 3.0}, NOT_AN_INTEGER),
        (SearchBox(3, 4), {"y_max": 4.0}, NOT_AN_INTEGER),
        (EquationInstance(2, 1), {"p": 3.0}, NOT_AN_INTEGER),
        (SolutionTriple(1, 2, 3), {"x": 1.0}, NOT_AN_INTEGER),
        (SolutionTriple(1, 2, 3), {"z": 3.0}, NOT_AN_INTEGER),
        (CatalanInstance(3, 2, 2, 3), {"a": 3.0}, NOT_AN_INTEGER),
        (CatalanInstance(3, 2, 2, 3), {"y": 3.0}, NOT_AN_INTEGER),
    ],
    ids=["EquationInstance-p", "EquationInstance-n", "SolutionTriple", "SearchBox",
         "CatalanInstance", "EquationInstance-float-n", "SearchBox-float-x_max",
         "SearchBox-float-y_max", "EquationInstance-float-p", "SolutionTriple-float-x",
         "SolutionTriple-float-z", "CatalanInstance-float-a", "CatalanInstance-float-y"],
)
def test_replace_and_make_check_like_the_constructor(record, change, message):
    error = TypeError if message == NOT_AN_INTEGER else ValueError
    with pytest.raises(error) as excinfo:
        record._replace(**change)
    assert str(excinfo.value) == message
    fields = [change.get(name, value) for name, value in zip(record._fields, record)]
    with pytest.raises(error) as excinfo:
        type(record)._make(fields)
    assert str(excinfo.value) == message
    assert type(record)._make(record) == record
    assert type(record._replace()) is type(record)
