"""Exact arbitrary-precision integer primitives.

Plain Python ints carry every value (they are unbounded), all results are
computed exactly with no floating point anywhere, and every function is a
pure function of its arguments, so concurrent callers need no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DETERMINISTIC_PRIMALITY_BOUND",
    "RootResult",
    "eval_lhs",
    "integer_root",
    "is_prime",
    "p_adic_valuation",
]

# Largest value below which the strong-probable-prime witness tiers used by
# is_prime() are proven to leave no composite undetected.
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

# (bound, witnesses): the witness set is complete for every n < bound.
_WITNESS_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (DETERMINISTIC_PRIMALITY_BOUND, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


@dataclass(frozen=True, slots=True)
class RootResult:
    """Floor k-th root of a radicand plus an exactness flag.

    Invariants: root**k <= radicand < (root + 1)**k, and exact holds iff
    root**k == radicand.
    """

    root: int
    exact: bool


def integer_root(m: int, k: int) -> RootResult:
    """Floor k-th root of m, by integer Newton iteration with floor correction.

    Exact at any size; never touches floating point.

    Raises ValueError if k < 1 or m < 0.
    """
    if k < 1:
        raise ValueError("root degree k must be >= 1")
    if m < 0:
        raise ValueError("radicand must be non-negative")
    if k == 1 or m < 2:
        return RootResult(m, True)
    # Start above the true root (2^ceil(bits/k)); the iteration then
    # decreases monotonically onto the floor.
    x = 1 << -(-m.bit_length() // k)
    while True:
        stepped = ((k - 1) * x + m // x ** (k - 1)) // k
        if stepped >= x:
            break
        x = stepped
    while x**k > m:
        x -= 1
    while (x + 1) ** k <= m:
        x += 1
    return RootResult(x, x**k == m)


def p_adic_valuation(m: int, p: int) -> tuple[int, int]:
    """Largest e with p^e dividing m, plus the cofactor m / p^e.

    Raises ValueError for m < 1 (the valuation of 0 is infinite) or p < 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1; the valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be >= 2")
    e = 0
    while True:
        quotient, remainder = divmod(m, p)
        if remainder:
            return e, m
        m = quotient
        e += 1


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Strong-probable-prime rounds with witness sets proven complete for every
    value below DETERMINISTIC_PRIMALITY_BOUND (about 3.3 * 10^24), small
    values included. Inputs at or above that bound are refused with
    ValueError rather than risking a wrong answer.
    """
    if m < 4:
        return m >= 2
    if m >= DETERMINISTIC_PRIMALITY_BOUND:
        raise ValueError(
            f"cannot certify primality of {m}: deterministic witness sets "
            f"are only proven below {DETERMINISTIC_PRIMALITY_BOUND}"
        )
    if m % 2 == 0:
        return False
    for bound, witnesses in _WITNESS_TIERS:
        if m < bound:
            break
    d = m - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in witnesses:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def eval_lhs(p: int, x: int, y: int) -> int:
    """p^x + p^y, computed exactly.

    Raises ValueError if p < 2 or either exponent is negative.
    """
    if p < 2:
        raise ValueError("base p must be >= 2")
    if x < 0 or y < 0:
        raise ValueError("exponents must be non-negative")
    return p**x + p**y
