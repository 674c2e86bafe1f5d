"""Consecutive perfect powers and the square-minus-prime-power obstruction.

Mihailescu's theorem (Catalan's conjecture) says a^x - b^y = 1 with all of
a, b, x, y > 1 has exactly one solution: 3^2 - 2^3 = 1. The classifier leans
on that fact twice, so this module re-derives it by bounded search, keeping
the repository from resting on an unchecked citation.

All searches are serial and emit sorted results, so output is deterministic.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .classifier import EquationInstance, InternalInconsistencyError
from .oracle import SearchBox, SearchReport, brute_force

__all__ = [
    "CatalanInstance",
    "lemma2_no_solutions",
    "search_catalan",
]


class CatalanInstance(
    NamedTuple("CatalanInstance", [("a", int), ("b", int), ("x", int), ("y", int)])
):
    """The query: does a^x - b^y = 1 hold?

    Stores ints, refusing others (TypeError); equal to any equal tuple,
    even another record's; no pxpy container mixes record types.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, x: int, y: int) -> CatalanInstance:
        fields = index(a), index(b), index(x), index(y)
        if min(fields) < 0:
            raise ValueError("all fields must be non-negative")
        return tuple.__new__(cls, fields)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def search_catalan(a_max: int, b_max: int, x_max: int, y_max: int) -> list[CatalanInstance]:
    """Every (a, b, x, y) with 2 <= a <= a_max, ..., 2 <= y <= y_max and a^x - b^y = 1.

    Precomputes all a^x values into a lookup table, then probes b^y + 1
    against it; sorted by (a, b, x, y).
    """
    powers: dict[int, list[tuple[int, int]]] = {}
    for a in range(2, a_max + 1):
        value = a * a
        for x in range(2, x_max + 1):
            powers.setdefault(value, []).append((a, x))
            value *= a
    found = []
    for b in range(2, b_max + 1):
        value = b * b
        for y in range(2, y_max + 1):
            for a, x in powers.get(value + 1, ()):
                found.append(CatalanInstance(a, b, x, y))
            value *= b
    found.sort()
    return found


def lemma2_no_solutions(p: int, x_max: int) -> SearchReport:
    """Exhaustively confirm that p^x + 1 = z^2 has no solution for x <= x_max.

    Requires p prime and p > 3, for which the equation is insolvable: x = 0
    gives z^2 = 2, and x >= 1 would make z^2 - p^x = 1 a second consecutive
    perfect power pair unless x = 1, where (z-1)(z+1) = p contradicts p
    prime. The returned report therefore always carries an empty solution
    list; a hit raises InternalInconsistencyError, flagging a bug.
    """
    if p <= 3:
        raise ValueError("p must be a prime greater than 3")
    report = brute_force(EquationInstance(p, 1), SearchBox(x_max, 0))
    if report.solutions:
        raise InternalInconsistencyError(
            f"{p}^x + 1 = z^2 with prime {p} > 3 must have no solutions; "
            f"search produced {[t.as_tuple() for t in report.solutions]}"
        )
    return report
