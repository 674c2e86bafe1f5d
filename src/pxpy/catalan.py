"""Consecutive perfect powers and the square-minus-prime-power obstruction.

Mihailescu's theorem (Catalan's conjecture) says a^x - b^y = 1 with all of
a, b, x, y > 1 has exactly one solution: 3^2 - 2^3 = 1. The classifier leans
on that fact twice, so this module re-derives it by bounded search, keeping
the repository from resting on an unchecked citation. search_catalan builds
one table of exact powers per call, row k holding base^(k+2), at one product
per table entry, up to the largest value a hit can take, and finds every
a^x - 1 that is also some b^y by one set intersection; an empty box builds
none, and nothing is kept between calls.

All searches are deterministic and emit sorted results.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain, repeat
from math import isqrt
from operator import index, mul, sub
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

    Refuses non-integer bounds with TypeError, as CatalanInstance does; a
    bound below 2 empties the box, and then nothing is built. One table of
    exact powers serves both sides: row k holds base^(k+2) for bases 2, 3,
    ..., made from row k - 1 by one product per entry, and only as wide as
    the sides that use it, so no entry is formed that neither side needs.
    No hit's a^x exceeds a_max^x_max or b_max^y_max + 1, so each row is cut
    at whichever of the two their bit lengths make smaller, the other never
    being formed, and the table ends at its first empty row. The a side is
    the first x_max - 1 rows cut to a_max - 1 entries, the b side the first
    y_max - 1 rows cut to b_max - 1. One set intersection of the a^x - 1
    with the b^y gives the hits; each hit is looked up in the rows, so every
    way of writing it as a^x and as b^y is reported. Each call builds its
    own table and keeps nothing. Sorted by (a, b, x, y).
    """
    a_max, b_max, x_max, y_max = index(a_max), index(b_max), index(x_max), index(y_max)
    if min(a_max, b_max, x_max, y_max) < 2:
        return []
    if x_max * a_max.bit_length() <= y_max * b_max.bit_length():
        cap = a_max**x_max
    else:
        cap = b_max**y_max + 1
    bases = range(2, min(max(a_max, b_max), isqrt(cap)) + 1)
    rows, row, shared = [], bases, min(x_max, y_max) - 1
    for k in range(max(x_max, y_max) - 1):
        if k == shared:  # only the side with more rows needs the rest
            row = row[: (a_max if x_max > y_max else b_max) - 1]
        row = list(map(mul, row, bases))
        del row[bisect(row, cap) :]  # each row increases with its base
        if not row:
            break
        rows.append(row)
    a_side = [row[: a_max - 1] for row in rows[: x_max - 1]]
    b_side = [row[: b_max - 1] for row in rows[: y_max - 1]]
    hits = set(map(sub, chain.from_iterable(a_side), repeat(1)))
    hits.intersection_update(chain.from_iterable(b_side))
    found = [
        CatalanInstance(a, b, x, y)
        for value in hits
        for b, y in _roots(b_side, value)
        for a, x in _roots(a_side, value + 1)
    ]
    found.sort()
    return found


def _roots(rows: list[list[int]], value: int):
    """Every (base, exponent) with base^exponent = value in rows, row k holding base^(k+2)."""
    for exponent, row in enumerate(rows, 2):
        if row[0] > value:
            break
        if value in row:
            yield row.index(value) + 2, exponent


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
            f"search produced {[tuple(t) for t in report.solutions]}"
        )
    return report
