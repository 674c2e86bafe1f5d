"""Tests for the classification engine: families, verification, tracing."""

import hashlib
import math
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pxpy
import pxpy.arithmetic
import pxpy.classifier
from pxpy.arithmetic import eval_lhs, integer_root
from pxpy.classifier import (
    _NARROW_BITS,
    _REASONS,
    CaseTrace,
    EquationInstance,
    SolutionFamily,
    SolutionTriple,
    classify,
    enumerate_solutions,
    instantiate,
    trace_candidate,
    verify,
)
from pxpy import InternalInconsistencyError


class TestEquationInstance:
    def test_accepts_valid(self):
        inst = EquationInstance(2, 1)
        assert inst.power == 2
        assert EquationInstance(13, 3).power == 6

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            EquationInstance(6, 1)
        with pytest.raises(ValueError):
            EquationInstance(9, 1)
        with pytest.raises(ValueError):
            EquationInstance(1, 1)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            EquationInstance(2, 0)

    def test_rejects_a_non_integer_p(self):
        with pytest.raises(TypeError):
            EquationInstance(2.0, 1)

    def test_rejects_a_non_integer_n(self):
        # A float n would reach pow(..., mod) deep inside verify and the sieve.
        with pytest.raises(TypeError):
            EquationInstance(2, 1.0)
        with pytest.raises(TypeError):
            EquationInstance(2, "1")

    def test_stores_n_as_an_int(self):
        inst = EquationInstance(2, True)
        assert type(inst.n) is int and inst == (2, 1)

    def test_checks_p_through_is_prime_by_name(self, monkeypatch):
        # Rebind is_prime wherever pxpy holds it, as perfbench's span
        # recorder does: every construction, cached or not, must be seen.
        original = pxpy.arithmetic.is_prime
        seen = []

        def counted(m):
            seen.append(m)
            return original(m)

        for module in (pxpy, pxpy.arithmetic, pxpy.classifier):
            monkeypatch.setattr(module, "is_prime", counted)
        p = 1_000_000_000_039
        EquationInstance(p, 1)
        assert seen == [p]
        EquationInstance(p, 1)
        assert seen == [p, p]


class TestSolutionTriple:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SolutionTriple(1, 1, -1)

    def test_orders_lexicographically(self):
        triples = [SolutionTriple(3, 0, 3), SolutionTriple(0, 3, 3), SolutionTriple(1, 1, 2)]
        assert sorted(triples) == [
            SolutionTriple(0, 3, 3),
            SolutionTriple(1, 1, 2),
            SolutionTriple(3, 0, 3),
        ]


class TestClassify:
    def test_p2_n1_has_three_families(self):
        families = classify(EquationInstance(2, 1))
        assert [str(f) for f in families] == [
            "x=2s+3, y=2s, z=3*2^s, s>=0",
            "x=2s, y=2s+3, z=3*2^s, s>=0",
            "x=2s+1, y=2s+1, z=2^(s+1), s>=0",
        ]

    def test_p3_n1_has_two_families(self):
        families = classify(EquationInstance(3, 1))
        assert [str(f) for f in families] == [
            "x=2s+1, y=2s, z=2*3^s, s>=0",
            "x=2s, y=2s+1, z=2*3^s, s>=0",
        ]

    def test_large_p_n1_has_none(self):
        for p in (5, 7, 11, 97):
            assert classify(EquationInstance(p, 1)) == ()

    def test_p2_n3_single_congruence_family(self):
        inst = EquationInstance(2, 3)
        (family,) = classify(inst)
        assert str(family) == "x=2s+1, y=2s+1, z=2^((s+1)/3), s>=0, s = 2 (mod 3)"
        # The condition s = 2 (mod 3) is 3 | s + shift with shift = 1.
        assert family == SolutionFamily(inst, 1, 1, 1, 1)

    def test_odd_p_ngt1_has_none(self):
        for p, n in [(3, 2), (5, 2), (3, 3), (7, 4)]:
            assert classify(EquationInstance(p, n)) == ()

    def test_families_pairwise_distinct(self):
        for p, n in [(2, 1), (3, 1), (2, 2), (2, 5)]:
            fams = classify(EquationInstance(p, n))
            assert len(set(fams)) == len(fams)


def expected_family_texts(p, n):
    """The paper's families for (p, n), spelled as classify renders them."""
    if (p, n) == (2, 1):
        return [
            "x=2s+3, y=2s, z=3*2^s, s>=0",
            "x=2s, y=2s+3, z=3*2^s, s>=0",
            "x=2s+1, y=2s+1, z=2^(s+1), s>=0",
        ]
    if (p, n) == (3, 1):
        return ["x=2s+1, y=2s, z=2*3^s, s>=0", "x=2s, y=2s+1, z=2*3^s, s>=0"]
    if p == 2:
        return [f"x=2s+1, y=2s+1, z=2^((s+1)/{n}), s>=0, s = {n - 1} (mod {n})"]
    return []


def expected_solutions(p, n, x_max, y_max):
    """Every solution with x <= x_max and y <= y_max, from the closed forms."""
    found = set()
    for s in range(max(x_max, y_max) + 1):
        if (p, n) == (2, 1):
            found |= {(2 * s + 3, 2 * s, 3 * 2**s), (2 * s, 2 * s + 3, 3 * 2**s)}
        if (p, n) == (3, 1):
            found |= {(2 * s + 1, 2 * s, 2 * 3**s), (2 * s, 2 * s + 1, 2 * 3**s)}
        if p == 2 and s >= 1:
            # x = y = 2sn - 1 and z = 2^s; for n = 1 the third p = 2 family.
            found.add((2 * s * n - 1, 2 * s * n - 1, 2**s))
    return sorted(t for t in found if t[0] <= x_max and t[1] <= y_max)


class TestFamilyTable:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_classify_and_enumerate_match_the_table(self, p, n):
        inst = EquationInstance(p, n)
        assert [str(f) for f in classify(inst)] == expected_family_texts(p, n)
        assert enumerate_solutions(inst, 40, 40) == (
            expected_solutions(p, n, 40, 40)
        )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_instantiate_rejects_every_inadmissible_s(self, n):
        (family,) = classify(EquationInstance(2, n))
        for s in range(13):
            if (s + 1) % n:
                with pytest.raises(ValueError, match=rf"\(mod {n}\)"):
                    instantiate(family, s)


class TestInstantiate:
    def test_examples(self):
        inst = EquationInstance(2, 1)
        fams = classify(inst)
        assert instantiate(fams[0], 0) == SolutionTriple(3, 0, 3)
        assert instantiate(fams[2], 0) == SolutionTriple(1, 1, 2)
        (family,) = classify(EquationInstance(2, 2))
        assert instantiate(family, 1) == SolutionTriple(3, 3, 2)

    def test_congruence_violation_names_the_congruence(self):
        inst = EquationInstance(2, 2)
        (family,) = classify(inst)
        with pytest.raises(ValueError, match=r"\(mod 2\)"):
            instantiate(family, 0)

    def test_negative_s_rejected(self):
        inst = EquationInstance(2, 1)
        family = classify(inst)[0]
        with pytest.raises(ValueError):
            instantiate(family, -1)

    def test_soundness_up_to_s_12(self):
        # Every family evaluated at every admissible s <= 12 certifies.
        for p, n in [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4)]:
            inst = EquationInstance(p, n)
            for family in classify(inst):
                for s in range(13):
                    if (s + family.shift) % n:
                        continue
                    triple = instantiate(family, s)
                    assert verify(inst, triple), (p, n, s)


class TestVerify:
    def test_examples(self):
        assert verify(EquationInstance(2, 1), SolutionTriple(3, 0, 3))
        assert verify(EquationInstance(3, 1), SolutionTriple(2, 3, 6))
        assert not verify(EquationInstance(2, 1), SolutionTriple(0, 0, 1))
        for z in range(200):
            assert not verify(EquationInstance(5, 1), SolutionTriple(1, 1, z))

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        n=st.integers(1, 3),
        x=st.integers(0, 12),
        y=st.integers(0, 12),
        z=st.integers(0, 300),
    )
    def test_symmetry_in_x_y(self, p, n, x, y, z):
        inst = EquationInstance(p, n)
        assert verify(inst, SolutionTriple(x, y, z)) == verify(inst, SolutionTriple(y, x, z))

    @given(
        p=st.sampled_from([2, 3, 5]),
        n=st.integers(2, 4),
        x=st.integers(0, 10),
        y=st.integers(0, 10),
        z=st.integers(0, 40),
    )
    def test_reduction_to_square_case(self, p, n, x, y, z):
        # (x, y, z) solves the 2n-th power equation iff (x, y, z^n) solves
        # the square one.
        lifted = verify(EquationInstance(p, n), SolutionTriple(x, y, z))
        reduced = verify(EquationInstance(p, 1), SolutionTriple(x, y, z**n))
        assert lifted == reduced


def naive_verify(p, n, x, y, z):
    """The equation itself, with no pre-test, shift or factoring."""
    return p**x + p**y == z ** (2 * n)


# (x offset, y offset, scale): x = 2n*e + a, y = 2n*e + b, z = c * p^e. For
# each p and n some shapes are members and the rest near them.
_SHAPES = ((3, 0, 3), (0, 3, 3), (1, 0, 2), (0, 1, 2), (-1, -1, 1))
_NEAR_MISSES = (None, "z+1", "z-1", "x+2", "y+2")
_RESIDUE_MODULUS = pxpy.classifier._RESIDUE_MODULUS  # (2^37 - 1)/223


def _shaped_candidate(p, n, e, shape, how):
    a, b, c = shape
    x, y, z = 2 * n * e + a, 2 * n * e + b, c * p**e
    x, y, z = {
        None: (x, y, z),
        "z+1": (x, y, z + 1),
        "z-1": (x, y, z - 1),
        "x+2": (x + 2, y, z),
        "y+2": (x, y + 2, z),
    }[how]
    return x, y, z


def naive_valuation(m, p):
    """(e, m / p^e) for the largest e with p^e | m, one factor at a time."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e, m


def _wide_candidates(p, n):
    """Wide candidates around every shape: members, each exponent and z
    moved by +-1 and +-2, both orientations, and z = p^(lo//2) * k for
    small k, some divisible by p."""
    e = _NARROW_BITS // (p.bit_length() - 1) + 2  # c * p^e is wider than 2048 bits
    for shape in _SHAPES:
        x, y, z = _shaped_candidate(p, n, e, shape, None)
        moved = [(x, y, z)]
        for delta in (-2, -1, 1, 2):
            moved += [(x + delta, y, z), (x, y + delta, z), (x, y, z + delta)]
        for k in (1, 2, 3, 4, 5, 7, 9, 10, 25, 97, 194, 97 * 97):
            moved.append((x, y, p ** (min(x, y) // 2) * k))
        for a, b, c in moved:
            yield a, b, c
            yield b, a, c


class TestVerifyAgainstNaive:
    """verify against the bare equation, on both sides of its size threshold.

    verify forms both sides directly up to 2048 bits; wider candidates go
    through a bit-length window and a residue test mod (2^37 - 1)/223 first.
    e up to 12 keeps both sides of every shape narrow, and e from 520 makes
    p^max(x, y) wider than 2048 bits for every p and n here. A wide
    candidate that passes both is settled by the p-adic split, one
    integer_root and one product, and trace_candidate tries the exponent
    min(x, y) // 2 before a valuation of z; the tests from
    test_against_the_equation_and_a_naive_valuation on cover that step.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 97]),
        n=st.integers(1, 6),
        e=st.one_of(st.integers(1, 12), st.integers(520, 900)),
        shape=st.sampled_from(_SHAPES),
        how=st.sampled_from(_NEAR_MISSES),
    )
    def test_shaped_candidates(self, p, n, e, shape, how):
        x, y, z = _shaped_candidate(p, n, e, shape, how)
        expected = naive_verify(p, n, x, y, z)
        assert verify(EquationInstance(p, n), SolutionTriple(x, y, z)) == expected

    @pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (3, 1), (5, 2), (97, 1)])
    def test_both_sides_of_the_threshold(self, p, n):
        bits = pxpy.classifier._NARROW_BITS
        for shape in _SHAPES:
            # the first e whose candidate is wide, and the one before it
            e = 1
            while True:
                x, y, z = _shaped_candidate(p, n, e, shape, None)
                if max(x, y) * p.bit_length() > bits or z.bit_length() * 2 * n > bits:
                    break
                e += 1
            for e in (e - 1, e):
                for how in _NEAR_MISSES:
                    x, y, z = _shaped_candidate(p, n, e, shape, how)
                    expected = naive_verify(p, n, x, y, z)
                    assert verify(EquationInstance(p, n), SolutionTriple(x, y, z)) == expected

    def test_shapes_include_wide_members(self):
        members = [
            (p, n)
            for p in (2, 3)
            for n in (1, 2)
            for shape in _SHAPES
            if naive_verify(p, n, *_shaped_candidate(p, n, 520, shape, None))
        ]
        assert sorted(set(members)) == [(2, 1), (2, 2), (3, 1)]

    @pytest.mark.parametrize("p, shape", [(2, (3, 0, 3)), (3, (1, 0, 2))])
    def test_residue_collision_is_rejected_exactly(self, monkeypatch, p, shape):
        # z + _RESIDUE_MODULUS has the same residue, so only the exact step, the
        # p-adic split's root of p^d + 1 and its product, can reject it: a
        # shift for p = 2, k * p^e for odd p.
        inst = EquationInstance(p, 1)
        x, y, z = _shaped_candidate(p, 1, 3000, shape, None)
        exact_steps = []

        def counting_integer_root(*args):
            exact_steps.append(args)
            return integer_root(*args)

        monkeypatch.setattr(pxpy.classifier, "integer_root", counting_integer_root)
        assert verify(inst, SolutionTriple(x, y, z))
        collided = z + _RESIDUE_MODULUS
        assert pow(collided, 2, _RESIDUE_MODULUS) == pow(z, 2, _RESIDUE_MODULUS)
        assert collided.bit_length() == z.bit_length()
        assert not pxpy.classifier._widths_disagree(p, max(x, y), collided, 2)
        assert not verify(inst, SolutionTriple(x, y, collided))
        assert not naive_verify(p, 1, x, y, collided)
        assert len(exact_steps) == 2

    @pytest.mark.parametrize(
        "triple, p, label, code",
        [
            # d = 2072, so p^d is wider than 2048 bits: both sides are formed.
            ((1, 2073, 2**1037), 2, "Case 2.2", "valuation_gate"),
            # x = y: L = 2101 is odd, so the split rejects without a quotient.
            ((2100, 2100, 2**1069), 2, "Case 1", "equal_even_x"),
            # Odd p with x = 0 and p^y wider than 2048 bits: z is the largest
            # integer at most sqrt(1 + p^y) whose square is 1 + p^y modulo
            # _RESIDUE_MODULUS, so both sides are formed.
            ((0, 1029, 91555367), 3, "Case 2.4", "mihailescu_3"),
            ((0, 686, 220292676), 5, "Case 2.5", "large_p"),
            ((0, 295, 39342789), 97, "Case 2.5", "large_p"),
        ],
    )
    def test_residue_collisions_settled_without_the_quotient(
        self, monkeypatch, triple, p, label, code
    ):
        # 2 has order 37 mod _RESIDUE_MODULUS (2073 = 1 and 2074 = 2, 2101
        # and 2138 = 29 mod 37). For odd p the third entry is a square root
        # r of 1 + p^y modulo it. Every candidate passes the bit-length
        # window and the residue test, so only verify's exact branches after
        # them can reject.
        inst, (x, y, z) = EquationInstance(p, 1), triple
        m = _RESIDUE_MODULUS
        if p != 2:
            s = math.isqrt(p**x + p**y)
            z = s - (s - z) % m
        assert (pow(p, x, m) + pow(p, y, m) - pow(z, 2, m)) % m == 0
        assert not pxpy.classifier._widths_disagree(p, max(x, y), z, 2)
        lhs_calls = []

        def counting_eval_lhs(*args):
            lhs_calls.append(args)
            return eval_lhs(*args)

        def no_root(*args):
            raise AssertionError("the candidate reached the p-adic split's root")

        monkeypatch.setattr(pxpy.classifier, "eval_lhs", counting_eval_lhs)
        monkeypatch.setattr(pxpy.classifier, "integer_root", no_root)
        verdict = verify(inst, SolutionTriple(x, y, z))
        assert verdict is False
        assert lhs_calls == ([(p, x, y)] if x != y else [])
        monkeypatch.undo()
        trace = trace_candidate(inst, SolutionTriple(x, y, z))
        assert verdict == naive_verify(p, 1, x, y, z) == trace.accepted
        assert (trace.case_label, trace.reason_code) == (label, code)

    def test_wide_near_misses_form_no_side(self, monkeypatch):
        def no_exact_step(*args):
            raise AssertionError("a near miss reached the exact comparison")

        monkeypatch.setattr(pxpy.classifier, "integer_root", no_exact_step)
        monkeypatch.setattr(pxpy.classifier, "eval_lhs", no_exact_step)
        for p, shape in ((2, (3, 0, 3)), (3, (1, 0, 2))):
            for how in _NEAR_MISSES[1:]:
                x, y, z = _shaped_candidate(p, 1, 2000, shape, how)
                assert not verify(EquationInstance(p, 1), SolutionTriple(x, y, z))

    @pytest.mark.parametrize("p", [2, 3, 5, 97])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_the_equation_and_a_naive_valuation(self, p, n):
        inst = EquationInstance(p, n)
        members = 0
        for x, y, z in _wide_candidates(p, n):
            assert z.bit_length() > _NARROW_BITS
            triple = SolutionTriple(x, y, z)
            expected = naive_verify(p, n, x, y, z)
            members += expected
            assert verify(inst, triple) == expected, (x, y, z)
            trace = trace_candidate(inst, triple)
            assert trace.accepted == expected, (x, y, trace.case_label)
            if n == 1 and x != y:
                assert (trace.e, trace.k) == naive_valuation(z, p), (x, y)
        # wide members are among the candidates wherever the instance has any
        assert (members > 0) == bool(classify(inst))

    def test_trace_valuation_equals_the_naive_one(self):
        # The same (e, k) whether the predicted exponent is below, at or
        # above v_p(z), and whether or not p^guess divides z.
        cases = [
            (3, 1, z, lo)
            for z in (2 * 3**3000, 4 * 3**3000, 9 * 3**3000, 3**3001 + 3**1500)
            for lo in (0, 2, 1998, 3000, 5999, 6000, 6001, 6002)
        ]
        cases += [(97, 1, 5 * 97**400, lo) for lo in (798, 799, 800, 801)]
        for p, n, z, lo in cases:
            t = trace_candidate(EquationInstance(p, n), SolutionTriple(lo, lo + 1, z))
            assert (t.e, t.k) == naive_valuation(z, p), (z % 1000, lo)

    def test_trace_valuation_forms_no_power_wider_than_z(self):
        # The predicted exponent 10^6 is far above v_3(z) = 2000: p^guess
        # would be 1.58M bits, against z's 3170, and is never formed.
        inst = EquationInstance(3, 1)
        triple = SolutionTriple(2 * 10**6, 2 * 10**6 + 1, 3**2000)
        tracemalloc.start()
        try:
            trace = trace_candidate(inst, triple)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (trace.case_label, trace.e, trace.k) == ("Case 2.3", 2000, 1)
        assert peak < 100_000

    @staticmethod
    def _record_divisions(monkeypatch):
        divisor_bits = []

        def recording_divmod(a, b):
            divisor_bits.append(b.bit_length())
            return divmod(a, b)

        monkeypatch.setattr(pxpy.arithmetic, "divmod", recording_divmod, raising=False)
        return divisor_bits

    def test_trace_valuation_divides_by_no_power_wider_than_z(self, monkeypatch):
        # The exponents predict v_3(z) = 150000 for z = 3^100000, and 3^150000
        # would be about 238k bits against z's 158k: the valuation divides z
        # by no power of 3 wider than z.
        divisor_bits = self._record_divisions(monkeypatch)
        s = 3 * 10**5
        z = 3**100_000
        trace = trace_candidate(EquationInstance(3, 1), SolutionTriple(s, s + 1, z))
        assert (trace.case_label, trace.e, trace.k) == ("Case 2.3", 100_000, 1)
        assert divisor_bits and max(divisor_bits) <= z.bit_length()

    @staticmethod
    def _record_remove_widths(monkeypatch):
        widths = []
        remove = pxpy.arithmetic._remove

        def recording_remove(m, q):
            widths.append(m.bit_length())
            return remove(m, q)

        monkeypatch.setattr(pxpy.arithmetic, "_remove", recording_remove)
        return widths

    def test_member_trace_takes_no_wide_valuation(self, monkeypatch):
        # The valuation of 2 * 3^100000 (47.7k digits) is settled by one
        # division by the widest power of 3 that fits: _remove never sees a
        # wide value.
        widths = self._record_remove_widths(monkeypatch)
        s = 100_000
        inst, triple = EquationInstance(3, 1), SolutionTriple(2 * s + 1, 2 * s, 2 * 3**s)
        trace = trace_candidate(inst, triple)
        assert trace.accepted and (trace.e, trace.k) == (s, 2)
        assert verify(inst, triple)
        assert max(widths, default=0) <= _NARROW_BITS

    def test_unpredicted_wide_valuation_takes_no_wide_removal(self, monkeypatch):
        # min(x, y) = 0 predicts no factor of 3 in z = 3^100000, yet the
        # valuation is still settled by one division by the widest power of
        # 3 that fits z, not by repeated squaring over z itself.
        widths = self._record_remove_widths(monkeypatch)
        trace = trace_candidate(EquationInstance(3, 1), SolutionTriple(0, 5, 3**100_000))
        assert (trace.case_label, trace.e, trace.k) == ("Case 2.4", 100_000, 1)
        assert trace.reason_code == "mihailescu_3"
        assert max(widths, default=0) <= _NARROW_BITS

    @pytest.mark.parametrize("power_of_3", [1, 40])
    @pytest.mark.parametrize("where", ["near z", "half of z"])
    def test_crafted_shapes_at_the_digit_cap(self, power_of_3, where):
        # z = 3^j * R with R prime to 3 and z at the CLI's default digit cap
        # (10^5 digits). min(x, y) // 2 = g predicts p^g about as wide as z,
        # or half as wide: the valuation must settle z fast all the same.
        r = 10**99_990 + 1  # 10 = 1 mod 3, so R = 2 mod 3
        z = 3**power_of_3 * r
        g = int(z.bit_length() / math.log2(3)) - 1
        if where == "half of z":
            g //= 2
        inst = EquationInstance(3, 1)
        for x, y in ((2 * g, 2 * g + 1), (2 * g + 1, 2 * g), (2 * g, 2 * g + 2)):
            triple = SolutionTriple(x, y, z)
            started = time.perf_counter()
            trace = trace_candidate(inst, triple)
            verdict = verify(inst, triple)
            assert time.perf_counter() - started < 1.0
            assert (trace.e, trace.k) == (power_of_3, r)
            assert not trace.accepted and not verdict


class TestVerifyHugeExponents:
    """Huge exponents with a small z are refused without forming a side."""

    @pytest.mark.parametrize(
        "p, n, triple",
        [
            (2, 1, (10**12, 0, 3)),
            (2, 10**10, (0, 0, 2)),
            # 2 has order 37 mod _RESIDUE_MODULUS, so this passes the residue
            # test: only the bit-length window keeps it from forming 2^(3.7e13).
            (2, 1, (3 + 37 * 10**12, 0, 3)),
            (3, 1, (10**15, 10**15, 2)),
            (97, 10**9, (5, 0, 10**40)),
        ],
    )
    def test_returns_false_at_once(self, p, n, triple):
        start = time.perf_counter()
        assert not verify(EquationInstance(p, n), SolutionTriple(*triple))
        assert time.perf_counter() - start < 1.0

    def test_residue_period_of_two(self):
        # The third case above does collide modulo _RESIDUE_MODULUS.
        assert pow(2, 3 + 37 * 10**12, _RESIDUE_MODULUS) + 1 == 9

    def test_residue_modulus_is_a_one_digit_prime_of_order_37_for_two(self):
        # One CPython digit makes the reduction of a wide z a single-digit
        # division; the collision tests above rely on the order of 2.
        q = _RESIDUE_MODULUS
        assert pxpy.arithmetic.is_prime(q)
        assert q < 1 << sys.int_info.bits_per_digit
        assert pow(2, 37, q) == 1 and q * 223 == 2**37 - 1

    def test_exact_step_with_a_huge_n_forms_no_power(self):
        # z = 2 * 3^10 and x = 2n*10 + 1, y = 2n*10 pass the bit-length
        # window, and since 2 has order 37 mod _RESIDUE_MODULUS and n = 1
        # (mod 37), so 37 | 2n - 2, also the residue test. The split then
        # finds k = 2 against c = 3 + 1 = 4; k^(2n) would have 2*10^10 bits.
        # The trace splits z, never w = z^n of 1.7*10^11 bits.
        n = 9_999_999_991
        assert n % 37 == 1
        inst = EquationInstance(3, n)
        triple = SolutionTriple(2 * n * 10 + 1, 2 * n * 10, 2 * 3**10)
        m = _RESIDUE_MODULUS
        assert (pow(3, triple.x, m) + pow(3, triple.y, m) - pow(triple.z, 2 * n, m)) % m == 0
        started = time.perf_counter()
        assert not verify(inst, triple)
        trace = trace_candidate(inst, triple)
        assert time.perf_counter() - started < 1.0
        inner = trace.reason_args[1]
        assert (inner.case_label, inner.e, inner.reason_code) == ("Case 3(2.3)", 10 * n, "k2_is_4")


class TestTraceCandidate:
    def test_case_2_2_accept(self):
        trace = trace_candidate(EquationInstance(2, 1), SolutionTriple(0, 3, 3))
        assert (trace.case_label, trace.e, trace.k) == ("Case 2.2", 0, 3)
        assert trace.accepted
        assert trace.rejection_reason is None

    def test_case_2_3_accept(self):
        trace = trace_candidate(EquationInstance(3, 1), SolutionTriple(2, 3, 6))
        assert (trace.case_label, trace.e, trace.k) == ("Case 2.3", 1, 2)
        assert trace.accepted

    def test_case_2_1_rejects_for_any_z(self):
        inst = EquationInstance(2, 1)
        for z in range(1, 70):
            trace = trace_candidate(inst, SolutionTriple(0, 1, z))
            assert trace.case_label == "Case 2.1"
            assert not trace.accepted

    def test_case_1_accept_and_reject(self):
        inst = EquationInstance(2, 1)
        accepted = trace_candidate(inst, SolutionTriple(1, 1, 2))
        assert accepted.case_label == "Case 1" and accepted.accepted
        assert accepted.e is None and accepted.k is None
        wrong_z = trace_candidate(inst, SolutionTriple(1, 1, 3))
        assert wrong_z.case_label == "Case 1" and not wrong_z.accepted
        even_x = trace_candidate(inst, SolutionTriple(2, 2, 3))
        assert even_x.case_label == "Case 1" and not even_x.accepted
        odd_p = trace_candidate(EquationInstance(5, 1), SolutionTriple(3, 3, 2))
        assert odd_p.case_label == "Case 1" and not odd_p.accepted

    def test_case_3_mirrors_sub_cases(self):
        trace = trace_candidate(EquationInstance(2, 1), SolutionTriple(3, 0, 3))
        assert trace.case_label == "Case 3(2.2)"
        assert trace.accepted and (trace.e, trace.k) == (0, 3)
        trace = trace_candidate(EquationInstance(3, 1), SolutionTriple(5, 3, 12))
        assert trace.case_label == "Case 3(2.4)" and not trace.accepted
        trace = trace_candidate(EquationInstance(2, 1), SolutionTriple(1, 0, 9))
        assert trace.case_label == "Case 3(2.1)" and not trace.accepted

    def test_case_2_5_large_prime(self):
        trace = trace_candidate(EquationInstance(7, 1), SolutionTriple(0, 2, 5))
        assert trace.case_label == "Case 2.5" and not trace.accepted

    def test_z_zero_rejected_before_valuation(self):
        for p, n in [(2, 1), (3, 1), (2, 2)]:
            trace = trace_candidate(EquationInstance(p, n), SolutionTriple(1, 2, 0))
            assert trace.case_label == "Pre-case (z = 0)"
            assert not trace.accepted
            assert trace.e is None and trace.k is None

    def test_ngt1_accept(self):
        trace = trace_candidate(EquationInstance(2, 2), SolutionTriple(3, 3, 2))
        assert trace.case_label == "n>1 Case 1.2"
        assert trace.accepted
        assert trace.e is None and trace.k is None

    def test_ngt1_rejections_by_base(self):
        rejected = trace_candidate(EquationInstance(2, 2), SolutionTriple(1, 1, 2))
        assert rejected.case_label == "n>1 Case 1" and not rejected.accepted
        rejected = trace_candidate(EquationInstance(3, 2), SolutionTriple(2, 3, 6))
        assert rejected.case_label == "n>1 Case 2.1" and not rejected.accepted
        rejected = trace_candidate(EquationInstance(5, 3), SolutionTriple(1, 1, 1))
        assert rejected.case_label == "n>1 Case 2.2" and not rejected.accepted

    @pytest.mark.parametrize("p, n, triple, label", [
        (2, 10**10, (0, 0, 2), "n>1 Case 1"),
        (3, 2, (1, 2, 10**1000), "n>1 Case 2.1"),
        (97, 10**9, (5, 0, 10**40), "n>1 Case 2.2"),
    ])
    def test_ngt1_outside_the_bit_length_window_forms_no_w(self, p, n, triple, label):
        # w = z^n would have 2*10^10, 6.6k and 1.3*10^11 bits; the bit
        # lengths of the two sides already rule each candidate out.
        inst, candidate = EquationInstance(p, n), SolutionTriple(*triple)
        started = time.perf_counter()
        trace = trace_candidate(inst, candidate)
        assert time.perf_counter() - started < 1.0
        assert trace.case_label == label and not trace.accepted
        assert trace.e is None and trace.k is None
        assert "bit length" in trace.rejection_reason
        assert not verify(inst, candidate)

    def test_ngt1_acceptance_forms_no_w(self):
        # w = z^n would be 2^(10^8), 12.5 MB; the trace decides from z alone.
        n = 10**8
        inst, triple = EquationInstance(2, n), SolutionTriple(2 * n - 1, 2 * n - 1, 2)
        tracemalloc.start()
        try:
            trace = trace_candidate(inst, triple)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.case_label == "n>1 Case 1.2" and trace.accepted and verify(inst, triple)
        assert peak < 1 << 20

    def test_ngt1_wide_inside_the_window_agrees_with_verify(self):
        # 2^(6j-1) * 2 = (2^j)^6, so z = 2^j + 1 has the right bit length,
        # and so has z = 2^j against 2^(6j) + 2^0.
        inst, j = EquationInstance(2, 3), 3000
        s = 3 * j - 1
        for x, y, z, accepted in (
            (2 * s + 1, 2 * s + 1, 1 << j, True),
            (2 * s + 1, 2 * s + 1, (1 << j) + 1, False),
            (6 * j, 0, 1 << j, False),
            (0, 6 * j, 1 << j, False),
        ):
            triple = SolutionTriple(x, y, z)
            assert trace_candidate(inst, triple).accepted == accepted == verify(inst, triple)

    def test_ngt1_wide_rejection_forms_no_power(self):
        # Inside the bit-length window, a rejection is traced from z's bit
        # length and split alone: Case 1 for p = 2, and the p-adic valuation
        # of a 2.4k-bit z for p = 3 (Case 2.3 and its mirror reach k2_is_4).
        j, e = 3000, 1500
        for p, x, y, z, code in (
            (2, 6 * j - 1, 6 * j - 1, (1 << j) + 1, "equal_wrong_root"),
            (2, 6 * j, 0, 1 << j, "valuation_gate"),
            (3, 6 * e, 6 * e + 1, 2 * 3**e, "k2_is_4"),
            (3, 6 * e + 1, 6 * e, 2 * 3**e, "k2_is_4"),
            (3, 6 * e + 2, 6 * e + 3, 2 * 3**e, "valuation_gate"),
        ):
            triple = SolutionTriple(x, y, z)
            trace = trace_candidate(EquationInstance(p, 3), triple)
            assert not trace.accepted and not verify(EquationInstance(p, 3), triple)
            assert trace.reason_code == "ngt1_square"
            assert trace.reason_args[1].reason_code == code

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_ngt1_inner_trace_is_the_square_trace_of_w(self, p, n):
        # The reduction's oracle: the inner trace, built from z without
        # forming w, has the case, reason and e that the n = 1 trace of
        # (x, y, w) with w = z^n has.
        inst, square = EquationInstance(p, n), EquationInstance(p, 1)
        for x in range(9):
            for y in range(9):
                for z in range(1, 301):
                    trace = trace_candidate(inst, SolutionTriple(x, y, z))
                    of_w = trace_candidate(square, SolutionTriple(x, y, z**n))
                    if trace.accepted:
                        assert (of_w.case_label, of_w.accepted) == ("Case 1", True)
                        continue
                    _, inner = trace.reason_args
                    assert (inner.case_label, inner.reason_code, inner.e) == (
                        of_w.case_label, of_w.reason_code, of_w.e
                    ), (x, y, z)

    @pytest.mark.parametrize("j", [1, 5, 3000])
    def test_case_1_power_of_two_test(self, j):
        inst = EquationInstance(2, 1)
        x = 2 * j - 1  # 2 * 2^x = (2^j)^2
        for z in (1 << j, (1 << j) + 1, (1 << j) - 1, 3 << (j - 1), 1 << (j + 1), 1 << (j - 1)):
            triple = SolutionTriple(x, x, z)
            trace = trace_candidate(inst, triple)
            assert trace.case_label == "Case 1"
            assert trace.accepted == (z == 1 << j) == verify(inst, triple)

    @pytest.mark.parametrize("n, label", [(1, "Case 1"), (2, "n>1 Case 1")])
    def test_case_1_huge_exponent_forms_no_power(self, n, label):
        # Case 1 forces z = 2^((x+1)/2); comparing against it must not
        # build that power for x = 10^12 + 1.
        inst, triple = EquationInstance(2, n), SolutionTriple(10**12 + 1, 10**12 + 1, 3)
        started = time.perf_counter()
        trace = trace_candidate(inst, triple)
        assert time.perf_counter() - started < 1.0
        assert trace.case_label == label and not trace.accepted
        assert not verify(inst, triple)

    def test_rejection_reason_present_iff_rejected(self):
        inst = EquationInstance(2, 1)
        for x in range(7):
            for y in range(7):
                for z in range(20):
                    trace = trace_candidate(inst, SolutionTriple(x, y, z))
                    assert (trace.rejection_reason is None) == trace.accepted

    def test_agreement_with_verify_small_box(self):
        for p in (2, 3, 5):
            for n in (1, 2):
                inst = EquationInstance(p, n)
                for x in range(7):
                    for y in range(7):
                        for z in range(65):
                            triple = SolutionTriple(x, y, z)
                            assert (
                                trace_candidate(inst, triple).accepted
                                == verify(inst, triple)
                            ), (p, n, x, y, z)

    def test_huge_rejected_candidates_at_default_str_limit(self):
        # Rejection reasons must not spell out z, w or k: at the interpreter's
        # default int-to-str limit that would raise for values over 4300
        # digits. The CLI tests lift the limit process-wide, so pin it here.
        cases = [
            (EquationInstance(2, 1), SolutionTriple(1, 1, 10**5000), "Case 1"),
            (EquationInstance(2, 1), SolutionTriple(0, 3, 10**5000 + 1), "Case 2.2"),
            (EquationInstance(3, 1), SolutionTriple(0, 1, 10**5000 + 1), "Case 2.3"),
            (EquationInstance(2, 2), SolutionTriple(1, 1, 10**2200), "n>1 Case 1"),
        ]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for inst, triple, label in cases:
                trace = trace_candidate(inst, triple)
                assert trace.case_label == label
                assert not trace.accepted and not verify(inst, triple)
                assert len(trace.rejection_reason) < 200
        finally:
            sys.set_int_max_str_digits(previous)

    def test_accepted_valuation_witness(self):
        # For accepted traces on the unequal-exponent paths, z = p^e * k with
        # p not dividing k, and the smaller exponent is exactly 2e.
        for p in (2, 3):
            inst = EquationInstance(p, 1)
            for triple in enumerate_solutions(inst, 12):
                trace = trace_candidate(inst, triple)
                assert trace.accepted
                if trace.e is None:
                    continue
                assert triple.z == p**trace.e * trace.k
                assert trace.k % p != 0
                assert min(triple.x, triple.y) == 2 * trace.e



# One candidate per reason code, with the reason's full text.
_GOLDEN_REASONS = [
    ("z_zero", 2, 1, (1, 2, 0), "Pre-case (z = 0)", "2^x + 2^y >= 2 while 0^2 = 0"),
    ("ngt1_widths", 3, 2, (1, 2, 10**1000), "n>1 Case 2.1",
     "3^x + 3^y and z^4 cannot have the same bit length, "
     "so (x, y, w) with w = z^2 cannot solve the square equation"),
    ("ngt1_square", 2, 2, (1, 1, 2), "n>1 Case 1",
     "(x, y, w) with w = z^2 must solve the square equation, "
     "which rejects it at Case 1: x = y = 1 forces w = 2^1; got another w"),
    ("equal_odd_p", 5, 1, (3, 3, 2), "Case 1",
     "x = y gives 2*5^3 = z^2, whose 2-adic valuation is odd for odd p"),
    ("equal_even_x", 2, 1, (2, 2, 3), "Case 1",
     "x = y = 2 gives z^2 = 2^3 with an odd exponent, which is not a perfect square"),
    ("equal_wrong_root", 2, 1, (1, 1, 3), "Case 1", "x = y = 1 forces z = 2^1; got another z"),
    ("k2_is_3", 2, 1, (0, 1, 5), "Case 2.1", "k^2 = 1 + 2 = 3 has no integer solution"),
    ("valuation_gate", 3, 1, (5, 4, 6), "Case 3(2.3)",
     "y must equal 2e = 2 where e = v_3(z) = 1; got y = 4"),
    ("mihailescu_2", 2, 1, (0, 5, 3), "Case 2.2",
     "k^2 - 2^d = 1 with d > 1 forces (k, d) = (3, 3) by Mihailescu's theorem; "
     "got d = 5, k = 3"),
    ("k2_is_4", 3, 1, (0, 1, 4), "Case 2.3", "k^2 = 1 + 3 = 4 forces k = 2; got k != 2"),
    ("mihailescu_3", 3, 1, (3, 5, 12), "Case 2.4",
     "k^2 - 3^d = 1 with d = 2 > 1 has no solution by Mihailescu's theorem"),
    ("large_p", 7, 1, (0, 2, 5), "Case 2.5",
     "1 + 7^d is never a perfect square for prime 7 > 3"),
]


class TestReasonCodes:
    @pytest.mark.parametrize(
        "code, p, n, triple, label, reason",
        _GOLDEN_REASONS,
        ids=[row[0] for row in _GOLDEN_REASONS],
    )
    def test_golden_reason(self, code, p, n, triple, label, reason):
        trace = trace_candidate(EquationInstance(p, n), SolutionTriple(*triple))
        assert (trace.case_label, trace.reason_code) == (label, code)
        assert trace.rejection_reason == reason
        assert trace.verdict == "rejected" and not trace.accepted

    def test_golden_table_names_every_code(self):
        assert sorted(row[0] for row in _GOLDEN_REASONS) == sorted(_REASONS)

    def test_every_code_is_reached_and_renders_fully(self):
        # Every trace on the grid, reason prose included, is pinned by one
        # sha256, so a relabelled case or a reworded reason shows here.
        seen, labels, digest = set(), set(), hashlib.sha256()
        for p in (2, 3, 5, 7):
            for n in (1, 2):
                inst = EquationInstance(p, n)
                for x in range(7):
                    for y in range(7):
                        for z in range(65):
                            trace = trace_candidate(inst, SolutionTriple(x, y, z))
                            seen.add(trace.reason_code)
                            labels.add(trace.case_label)
                            if trace.reason_code is not None:
                                assert "{" not in trace.rejection_reason
                            line = repr((tuple(trace), trace.rejection_reason))
                            digest.update(line.encode() + b"\n")
        # every case the trace can name: the pre-case, Case 1, the five
        # sub-cases of Case 2 and their Case 3 mirrors, the four n > 1 cases
        assert labels == {
            "Pre-case (z = 0)",
            "Case 1",
            "Case 2.1", "Case 2.2", "Case 2.3", "Case 2.4", "Case 2.5",
            "Case 3(2.1)", "Case 3(2.2)", "Case 3(2.3)", "Case 3(2.4)", "Case 3(2.5)",
            "n>1 Case 1", "n>1 Case 1.2", "n>1 Case 2.1", "n>1 Case 2.2",
        }
        assert digest.hexdigest() == (
            "558185c70953336241ea4e6cbe04d2ffaf1685f48f0b6ebfb6bef985ed6e5096"
        )
        wide_miss = trace_candidate(EquationInstance(2, 2), SolutionTriple(0, 0, 1 << 2000))
        assert "{" not in wide_miss.rejection_reason
        seen.add(wide_miss.reason_code)
        assert seen == set(_REASONS) | {None}

    def test_nested_reason_keeps_the_square_trace(self):
        trace = trace_candidate(EquationInstance(3, 2), SolutionTriple(2, 3, 6))
        n, inner = trace.reason_args
        assert n == 2 and inner.case_label == "Case 2.3"
        assert trace.rejection_reason.endswith(f"{inner.case_label}: {inner.rejection_reason}")

    def test_exponents_past_the_digit_limit_render_in_hex(self):
        # At the interpreter's default int-to-str limit an exponent of 5001
        # digits cannot be written in decimal; the reason names it in hex,
        # which is exact. With the limit lifted, as the CLI runs, it stays
        # decimal. The nested square trace renders its own arguments.
        huge = 10**5000
        cases = [
            (EquationInstance(3, 1), SolutionTriple(0, huge, 1), "mihailescu_3"),
            (EquationInstance(3, 2), SolutionTriple(0, huge, 1), "ngt1_square"),
            (EquationInstance(2, huge), SolutionTriple(0, 0, 0), "z_zero"),
        ]
        traces = [trace_candidate(inst, triple) for inst, triple, _ in cases]
        assert [t.reason_code for t in traces] == [code for _, _, code in cases]
        template = "k^2 - 3^d = 1 with d = %s > 1 has no solution by Mihailescu's theorem"
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            limited = [t.rejection_reason for t in traces]
            sys.set_int_max_str_digits(0)
            lifted = [t.rejection_reason for t in traces]
            decimal = (str(huge), str(2 * huge))
        finally:
            sys.set_int_max_str_digits(previous)
        for reasons, (d, twice_d) in ((limited, (hex(huge), hex(2 * huge))), (lifted, decimal)):
            assert reasons[0] == template % d
            assert reasons[1].endswith(f"at Case 2.4: {reasons[0]}")
            assert reasons[2] == f"2^x + 2^y >= 2 while 0^{twice_d} = 0"

    def test_accepted_trace_has_no_code(self):
        trace = trace_candidate(EquationInstance(2, 1), SolutionTriple(0, 3, 3))
        assert trace.reason_code is None and trace.reason_args == ()
        assert trace.rejection_reason is None and trace.verdict == "accepted"


class TestCaseTraceRecord:
    def test_fields_cannot_be_assigned(self):
        trace = trace_candidate(EquationInstance(5, 1), SolutionTriple(0, 2, 5))
        with pytest.raises(AttributeError):
            trace.e = 1
        with pytest.raises(AttributeError):
            trace.reason_code = None

    def test_hashable_and_equal_by_value(self):
        inst = EquationInstance(2, 2)
        first = trace_candidate(inst, SolutionTriple(1, 1, 2))
        again = trace_candidate(inst, SolutionTriple(1, 1, 2))
        assert first == again and hash(first) == hash(again)
        assert len({first, again, trace_candidate(inst, SolutionTriple(3, 3, 2))}) == 2

    def test_equals_the_plain_tuple_of_its_fields(self):
        trace = trace_candidate(EquationInstance(7, 1), SolutionTriple(0, 2, 5))
        assert trace == ("Case 2.5", 0, 5, "large_p", (7,))
        assert trace == CaseTrace("Case 2.5", 0, 5, "large_p", (7,))


class TestEnumerate:
    def test_examples(self):
        assert enumerate_solutions(EquationInstance(2, 1), 3) == [
            (0, 3, 3),
            (1, 1, 2),
            (3, 0, 3),
            (3, 3, 4),
        ]
        assert enumerate_solutions(EquationInstance(5, 1), 100) == []
        assert enumerate_solutions(EquationInstance(3, 1), 1) == [
            (0, 1, 2),
            (1, 0, 2),
        ]

    def test_every_output_verifies(self):
        for p, n in [(2, 1), (3, 1), (2, 2), (2, 3)]:
            inst = EquationInstance(p, n)
            for triple in enumerate_solutions(inst, 25):
                assert verify(inst, triple)

    def test_strictly_increasing_and_duplicate_free(self):
        for p, n in [(2, 1), (3, 1), (2, 2)]:
            triples = enumerate_solutions(EquationInstance(p, n), 30)
            assert triples == sorted(set(triples))

    def test_family_set_closed_under_swap(self):
        for p, n in [(2, 1), (3, 1), (2, 2)]:
            inst = EquationInstance(p, n)
            triples = set(enumerate_solutions(inst, 20))
            assert {SolutionTriple(t.y, t.x, t.z) for t in triples} == triples

    def test_bound_applies_to_both_exponents(self):
        inst = EquationInstance(2, 1)
        for triple in enumerate_solutions(inst, 9):
            assert triple.x <= 9 and triple.y <= 9
        wide = enumerate_solutions(inst, 20, 6)
        assert SolutionTriple(7, 4, 12) in wide
        assert wide == [t for t in enumerate_solutions(inst, 20) if t.y <= 6]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_solutions(EquationInstance(2, 1), -1)
        with pytest.raises(ValueError):
            enumerate_solutions(EquationInstance(2, 1), 5, -1)


class TestInternalCertification:
    def test_instantiate_certifies_internally(self):
        # A structurally broken family must be caught at instantiation time:
        # (2s+3, 2s, 5*2^s) is the first p = 2 family with a wrong scale.
        bogus = SolutionFamily(EquationInstance(2, 1), 3, 0, 5, 0)
        with pytest.raises(InternalInconsistencyError):
            instantiate(bogus, 0)
