"""Exact integer primitives: floor roots, p-adic valuations, primality, p^x + p^y.

Plain Python ints carry every value (they are unbounded), all results are
computed exactly with no floating point anywhere, and every function is a
pure function of its arguments, so concurrent callers need no coordination.
is_prime keeps a bounded cache of its answers; it stays pure, and the cache
is safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import index
from typing import NamedTuple

__all__ = [
    "DETERMINISTIC_PRIMALITY_BOUND",
    "RootResult",
    "eval_lhs",
    "integer_root",
    "is_prime",
    "p_adic_valuation",
]

# psi_13, the least strong pseudoprime to every prime base up to 41 (Sorenson
# and Webster 2017): below it, _WITNESSES leave no composite undetected.
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

# The first 13 primes, the strong-probable-prime witnesses of is_prime.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class RootResult(NamedTuple):
    """Floor k-th root of a radicand plus an exactness flag.

    Invariants: root**k <= radicand < (root + 1)**k, and exact holds iff
    root**k == radicand. Equal to any equal tuple, even another record's;
    no pxpy container mixes record types.
    """

    root: int
    exact: bool


def integer_root(m: int, k: int) -> RootResult:
    """Floor k-th root of m: math.isqrt for even k, integer Newton otherwise.

    Roots nest, floor(m^(1/2j)) = floor(isqrt(m)^(1/j)), as an integer is
    at most sqrt(m) iff it is at most isqrt(m); exact iff both steps are.
    For odd k, let r = floor(m^(1/k)). For any x > r the step
    x' = floor(((k - 1)*x + floor(m / x^(k-1))) / k) satisfies r <= x' < x:
    x' < x because x^k > m, and x' >= r by the AM-GM inequality, since
    floor((a + floor(b)) / k) = floor((a + b) / k) for an integer a. The
    iteration starts at 2^ceil(bits(m)/k) > r, so it decreases strictly and
    stops exactly at r, the first x whose step does not decrease (Brent and
    Zimmermann, Modern Computer Arithmetic, 1.5.2, RootInt). Exact at any
    size; never touches floating point.

    Raises ValueError if k < 1 or m < 0.
    """
    if k < 1:
        raise ValueError("root degree k must be >= 1")
    if m < 0:
        raise ValueError("radicand must be non-negative")
    if k == 1 or m < 2:
        return RootResult(m, True)
    if k >= m.bit_length():  # 2 <= m < 2^k: the floor root is 1, inexact
        return RootResult(1, False)
    if not k & 1:
        s = isqrt(m)
        if k == 2:
            return RootResult(s, s * s == m)
        root, exact = integer_root(s, k // 2)
        return RootResult(root, exact and s * s == m)
    x = 1 << -(-m.bit_length() // k)
    while True:
        stepped = ((k - 1) * x + m // x ** (k - 1)) // k
        if stepped >= x:
            return RootResult(x, x**k == m)
        x = stepped


def p_adic_valuation(m: int, p: int) -> tuple[int, int]:
    """Largest e with p^e dividing m, plus the cofactor m / p^e.

    For p = 2, e is the count of trailing zero bits and the cofactor a
    shift: linear in the size of m. Any other p (composites included) is
    removed by repeated squaring, as GMP's mpz_remove does (Brent and
    Zimmermann, Modern Computer Arithmetic, 1.4): divide by p, p^2, p^4, ...
    while each divides, then settle the rest of e one bit at a time from the
    largest power down. That is about log2(e) squarings and 2*log2(e)
    divisions instead of e divisions of an m-sized value by p; the last few,
    on operands about the size of m, dominate. They are near-linear with a
    subquadratic division and, with CPython's schoolbook division, a few
    quadratic passes in C rather than e passes driven from Python.

    Raises ValueError for m < 1 (the valuation of 0 is infinite) or p < 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1; the valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be >= 2")
    if p == 2:
        e = (m & -m).bit_length() - 1
        return e, m >> e
    if m % p:  # the common case, answered without a call
        return 0, m
    return _remove(m, p)


def _remove(m: int, q: int) -> tuple[int, int]:
    """(e, m / q^e) for the largest e with q^e dividing m; m >= 1, q >= 2."""
    quotient, remainder = divmod(m, q)
    if remainder:
        return 0, m
    # m = q * (q^2)^half * rest with q^2 not dividing rest, so q divides
    # rest at most once.
    half, rest = _remove(quotient, q * q)
    quotient, remainder = divmod(rest, q)
    if remainder:
        return 2 * half + 1, rest
    return 2 * half + 2, quotient


# EquationInstance tests p on every construction, and callers build many
# instances over a few primes. typed=True keeps 7.0 from hitting 7's entry,
# so a non-int always reaches the body and is refused.
@lru_cache(maxsize=1024, typed=True)
def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Trial division by the first 13 primes, 2..41, answers every m below
    43^2 and every m with one of them as a factor. Any other m gets
    strong-probable-prime rounds on those same 13 witnesses, which are
    proven to leave no composite undetected below
    DETERMINISTIC_PRIMALITY_BOUND = psi_13, about 3.3 * 10^24 (Sorenson and
    Webster, Math. Comp. 86 (2017), 985-1003). Inputs at or above that bound
    are refused with ValueError rather than risking a wrong answer, and a
    non-integer m with TypeError. Answers are cached (1024 entries).
    """
    m = index(m)
    if m >= DETERMINISTIC_PRIMALITY_BOUND:
        raise ValueError(
            f"cannot certify primality of {m}: deterministic witness sets "
            f"are only proven below {DETERMINISTIC_PRIMALITY_BOUND}"
        )
    for a in _WITNESSES:
        if m % a == 0:
            return m == a
    if m < 43 * 43:  # a composite this small has a prime factor below 43
        return m > 1
    d = m - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _WITNESSES:
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

    For p = 2 the powers are shifts, (1 << x) + (1 << y). Any other p is
    formed as p^lo * (p^(hi - lo) + 1) with lo <= hi, the same integer at
    about the cost of p^hi alone rather than of p^hi plus p^lo. Only verify
    calls this; the oracle's scan forms p^x + p^y unfactored on purpose.

    Raises ValueError if p < 2 or either exponent is negative.
    """
    if p < 2:
        raise ValueError("base p must be >= 2")
    if x < 0 or y < 0:
        raise ValueError("exponents must be non-negative")
    if p == 2:
        return (1 << x) + (1 << y)
    lo, hi = (x, y) if x <= y else (y, x)
    return p**lo * (p ** (hi - lo) + 1)
