"""Unit and property tests for the exact integer primitives."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pxpy.arithmetic
from pxpy.arithmetic import (
    DETERMINISTIC_PRIMALITY_BOUND,
    RootResult,
    eval_lhs,
    integer_root,
    is_prime,
    p_adic_valuation,
)


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


def trial_division_is_prime(m):
    """Independent oracle, deliberately naive."""
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def naive_valuation(m, p):
    """Independent oracle: peel off one factor of p at a time."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e, m


# Primes small and large, and composites: the valuation accepts any p >= 2.
VALUATION_BASES = (2, 3, 5, 97, 1_000_003, 4, 6, 10)


class TestIntegerRoot:
    def test_examples(self):
        assert integer_root(4, 2) == RootResult(2, True)
        assert integer_root(0, 5) == RootResult(0, True)
        assert integer_root(3, 2) == RootResult(1, False)
        assert integer_root(16, 4) == RootResult(2, True)

    def test_degree_one_is_identity(self):
        for m in (0, 1, 7, 10**40):
            assert integer_root(m, 1) == RootResult(m, True)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            integer_root(5, 0)
        with pytest.raises(ValueError):
            integer_root(-1, 2)

    def test_exhaustive_small_range(self):
        # Incremental counting oracle: climb the floor root by hand.
        for k in range(1, 13):
            root = 0
            for m in range(20_001):
                while (root + 1) ** k <= m:
                    root += 1
                result = integer_root(m, k)
                assert result.root == root, (m, k)
                assert result.exact == (root**k == m), (m, k)

    @pytest.mark.parametrize("m", [2, 3, 2**40, 2**40 + 1, 3**50, 10**30 - 1])
    def test_degree_at_the_bit_length(self, m):
        # At k >= m.bit_length() the floor root is 1; the boundary and both
        # neighbours are checked against the definition.
        for k in (m.bit_length() - 1, m.bit_length(), m.bit_length() + 1):
            result = integer_root(m, k)
            assert result.root**k <= m < (result.root + 1) ** k, (m, k)
            assert result.exact == (result.root**k == m), (m, k)

    def test_degree_far_past_the_bit_length_returns_at_once(self):
        # 1 <= 2^20 < 2^(10^12); Newton from x = 2 would build 2^(10^12 - 1).
        assert integer_root(2**20, 10**12) == RootResult(1, False)

    def test_power_of_two_degree_halves_to_a_square_root(self, monkeypatch):
        # An even degree takes isqrt and roots that: 2^10 recurses through
        # 2^9, ..., 2 and no Newton step runs.
        degrees = []

        def counting_root(m, k):
            degrees.append(k)
            return integer_root(m, k)

        monkeypatch.setattr(pxpy.arithmetic, "integer_root", counting_root)
        m = 243**1024
        assert integer_root(m, 1024) == RootResult(243, True)
        assert degrees == [2**i for i in range(9, 0, -1)]
        assert integer_root(m - 1, 1024) == RootResult(242, False)
        assert integer_root(m + 1, 1024) == RootResult(243, False)

    @pytest.mark.parametrize("delta", [0, -1, 1])
    def test_wide_fourth_root_is_fast(self, delta):
        # A 100,000-bit root: two isqrt calls, where a Newton loop on the
        # 400,000-bit radicand took over a second.
        x = 3**63_093
        assert x.bit_length() >= 100_000
        m = x**4 + delta
        started = time.perf_counter()
        result = integer_root(m, 4)
        assert time.perf_counter() - started < 0.5
        assert result == RootResult(x - 1 if delta < 0 else x, delta == 0)

    def test_matches_isqrt(self):
        values = list(range(1000)) + [10**20 + 7, 2**61 - 1, 3**50, 10**30]
        for m in values:
            assert integer_root(m, 2).root == math.isqrt(m)

    @given(m=st.integers(0, 10**36), k=st.integers(1, 6))
    def test_bracketing_invariant(self, m, k):
        result = integer_root(m, k)
        assert result.root**k <= m < (result.root + 1) ** k
        assert result.exact == (result.root**k == m)

    @given(root=st.integers(0, 10**9), k=st.integers(2, 6))
    def test_exact_powers_detected(self, root, k):
        assert integer_root(root**k, k) == RootResult(root, True)

    @given(root=st.integers(1, 10**9), k=st.integers(2, 6))
    def test_near_powers_not_exact(self, root, k):
        result = integer_root(root**k + 1, k)
        assert result.root == root
        assert not result.exact


class TestPAdicValuation:
    def test_examples(self):
        assert p_adic_valuation(12, 2) == (2, 3)
        assert p_adic_valuation(6, 2) == (1, 3)
        assert p_adic_valuation(7, 3) == (0, 7)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            p_adic_valuation(0, 2)
        with pytest.raises(ValueError):
            p_adic_valuation(5, 1)

    def test_exhaustive_small_range(self):
        for p in (2, 3, 5, 7):
            for m in range(1, 10_001):
                e, cofactor = p_adic_valuation(m, p)
                assert p**e * cofactor == m
                assert cofactor % p != 0

    @given(m=st.integers(1, 10**18), p=st.sampled_from([2, 3, 5, 7, 11, 97]))
    def test_reconstruction_invariant(self, m, p):
        e, cofactor = p_adic_valuation(m, p)
        assert p**e * cofactor == m
        assert cofactor % p != 0

    @given(e=st.integers(0, 50), cofactor=st.integers(1, 10**9))
    def test_constructed_valuations(self, e, cofactor):
        if cofactor % 3 == 0:
            cofactor += 1
        assert p_adic_valuation(3**e * cofactor, 3) == (e, cofactor)

    @given(
        p=st.sampled_from(VALUATION_BASES),
        e=st.integers(0, 600),
        c=st.integers(1, 10**30),
        divisible=st.booleans(),
    )
    def test_matches_naive_division(self, p, e, c, divisible):
        if divisible:
            c *= p
        m = p**e * c
        assert p_adic_valuation(m, p) == naive_valuation(m, p)

    @pytest.mark.parametrize("p", VALUATION_BASES)
    def test_pinned_shapes(self, p):
        for e in (0, 1, 2, 3, 7, 8, 64, 600):
            assert p_adic_valuation(p**e, p) == (e, 1)
        for m in range(1, min(p, 200)):
            assert p_adic_valuation(m, p) == (0, m)
        assert p_adic_valuation(1, p) == (0, 1)

    def test_composite_bases_count_whole_factors(self):
        # p = 4 must not count single factors of 2.
        assert p_adic_valuation(2**7, 4) == (3, 2)
        assert p_adic_valuation(2**601 * 3, 4) == (300, 6)
        assert p_adic_valuation(2**5 * 3**9, 6) == (5, 3**4)

    @pytest.mark.parametrize("p, e, cofactor", [
        (2, 300_000, 3),
        (3, 100_000, 2),
        (97, 20_000, 5),
    ])
    def test_large_exact(self, p, e, cofactor):
        assert p_adic_valuation(cofactor * p**e, p) == (e, cofactor)


class TestIsPrime:
    def test_small_examples(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        assert is_prime(3)
        assert not is_prime(4)
        assert is_prime(97)
        assert trial_division_is_prime(97)

    def test_agrees_with_sieve_exhaustively(self):
        limit = 200_000
        flags = sieve(limit)
        for m in range(limit + 1):
            assert is_prime(m) == bool(flags[m]), m

    def test_agrees_with_sieve_sampled_to_million(self):
        limit = 1_000_000
        flags = sieve(limit)
        for m in range(0, limit, 997):
            assert is_prime(m) == bool(flags[m]), m
        for m in range(limit - 500, limit):
            assert is_prime(m) == bool(flags[m]), m

    def test_probable_prime_boundary(self):
        # Just past the sieve tests' range, so above 43^2 where every m
        # without a factor up to 41 takes the strong-probable-prime rounds;
        # checked against plain trial division.
        for m in range(1_000_000, 1_000_400):
            assert is_prime(m) == trial_division_is_prime(m), m

    def test_strong_pseudoprimes_rejected(self):
        composites = [
            561,  # Carmichael
            41041,  # Carmichael
            3_215_031_751,  # strong pseudoprime to 2, 3, 5, 7
            2_152_302_898_747,  # strong pseudoprime to 2..11
            3_474_749_660_383,  # strong pseudoprime to 2..13
            341_550_071_728_321,  # strong pseudoprime to 2..17
            3_825_123_056_546_413_051,  # strong pseudoprime to 2..23
            318_665_857_834_031_151_167_461,  # strong pseudoprime to 2..37
        ]
        for m in composites:
            assert not is_prime(m), m

    def test_large_primes_accepted(self):
        assert is_prime(2**61 - 1)
        assert is_prime(67_280_421_310_721)  # factor of 2^128 + 1

    def test_refuses_non_integers(self):
        # 7 first, so a cached answer for 7 cannot stand in for 7.0.
        assert is_prime(7)
        for m in (2.0, 3.0, 7.0):
            with pytest.raises(TypeError):
                is_prime(m)

    def test_refuses_beyond_proven_bound(self):
        with pytest.raises(ValueError):
            is_prime(DETERMINISTIC_PRIMALITY_BOUND)
        # one below the bound must still answer
        assert is_prime(DETERMINISTIC_PRIMALITY_BOUND - 2) in (True, False)


class TestEvalLhs:
    def test_examples(self):
        assert eval_lhs(2, 3, 0) == 9
        assert eval_lhs(2, 0, 0) == 2
        assert eval_lhs(3, 2, 3) == 36

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            eval_lhs(1, 2, 3)
        with pytest.raises(ValueError):
            eval_lhs(2, -1, 0)

    @given(p=st.integers(2, 50), x=st.integers(0, 60), y=st.integers(0, 60))
    def test_symmetry(self, p, x, y):
        assert eval_lhs(p, x, y) == eval_lhs(p, y, x)

    @settings(max_examples=30)
    @given(p=st.integers(2, 10), x=st.integers(0, 2000))
    def test_large_values_exact(self, p, x):
        assert eval_lhs(p, x, 0) == p**x + 1

    # p = 2 takes the shift path, odd p the factored p^lo * (p^d + 1) path.
    @pytest.mark.parametrize("p", (2, 3, 5, 97))
    def test_matches_naive_sum(self, p):
        pairs = [(0, 0), (0, 1), (1, 0), (7, 7), (0, 500), (500, 0), (499, 500), (2000, 1999), (30, 1700)]
        for x, y in pairs:
            assert eval_lhs(p, x, y) == p**x + p**y, (x, y)

    @settings(max_examples=50)
    @given(p=st.sampled_from([2, 3, 5, 97]), x=st.integers(0, 3000), y=st.integers(0, 3000))
    def test_matches_naive_sum_sampled(self, p, x, y):
        assert eval_lhs(p, x, y) == p**x + p**y
