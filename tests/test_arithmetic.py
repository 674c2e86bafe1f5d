"""Unit and property tests for the exact integer primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for k in range(1, 7):
            root = 0
            for m in range(20_001):
                while (root + 1) ** k <= m:
                    root += 1
                result = integer_root(m, k)
                assert result.root == root, (m, k)
                assert result.exact == (root**k == m), (m, k)

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
        # Just past the sieve tests' range, still in the (2, 3) witness tier
        # (2047 <= m < 1_373_653); checked against plain trial division.
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
        ]
        for m in composites:
            assert not is_prime(m), m

    def test_large_primes_accepted(self):
        assert is_prime(2**61 - 1)
        assert is_prime(67_280_421_310_721)  # factor of 2^128 + 1

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
