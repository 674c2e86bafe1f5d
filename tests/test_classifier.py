"""Tests for the classification engine: families, verification, tracing."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pxpy.classifier
from pxpy.arithmetic import eval_lhs
from pxpy.classifier import (
    EquationInstance,
    SolutionFamily,
    SolutionTriple,
    classify,
    enumerate_solutions,
    instantiate,
    trace_candidate,
    verify,
)
from pxpy.errors import InternalInconsistencyError


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
        assert [t.as_tuple() for t in enumerate_solutions(inst, 40, 40)] == (
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
_RESIDUE_MODULUS = pxpy.classifier._RESIDUE_MODULUS  # 2^61 - 1


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


class TestVerifyAgainstNaive:
    """verify against the bare equation, on both sides of its size threshold.

    verify forms both sides directly up to 2048 bits; wider candidates go
    through a bit-length window and a residue test mod 2^61 - 1 first.
    e up to 12 keeps both sides of every shape narrow, and e from 520 makes
    p^max(x, y) wider than 2048 bits for every p and n here.
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

    def test_residue_collision_is_rejected_exactly(self, monkeypatch):
        # z + (2^61 - 1) has the same residue, so only the exact step
        # can reject it.
        inst = EquationInstance(2, 1)
        x, y, z = _shaped_candidate(2, 1, 3000, (3, 0, 3), None)
        exact_steps = []

        def counting_eval_lhs(*args):
            exact_steps.append(args)
            return eval_lhs(*args)

        monkeypatch.setattr(pxpy.classifier, "eval_lhs", counting_eval_lhs)
        assert verify(inst, SolutionTriple(x, y, z))
        collided = z + _RESIDUE_MODULUS
        assert pow(collided, 2, _RESIDUE_MODULUS) == pow(z, 2, _RESIDUE_MODULUS)
        assert collided.bit_length() == z.bit_length()
        assert not verify(inst, SolutionTriple(x, y, collided))
        assert not naive_verify(2, 1, x, y, collided)
        assert len(exact_steps) == 2

    def test_wide_near_misses_form_no_side(self, monkeypatch):
        def no_exact_step(*args):
            raise AssertionError("a near miss reached the exact comparison")

        monkeypatch.setattr(pxpy.classifier, "eval_lhs", no_exact_step)
        for p, shape in ((2, (3, 0, 3)), (3, (1, 0, 2))):
            for how in _NEAR_MISSES[1:]:
                x, y, z = _shaped_candidate(p, 1, 2000, shape, how)
                assert not verify(EquationInstance(p, 1), SolutionTriple(x, y, z))


class TestVerifyHugeExponents:
    """Huge exponents with a small z are refused without forming a side."""

    @pytest.mark.parametrize(
        "p, n, triple",
        [
            (2, 1, (10**12, 0, 3)),
            (2, 10**10, (0, 0, 2)),
            # 2 has order 61 mod 2^61 - 1, so this passes the residue test:
            # only the bit-length window keeps it from forming 2^(6.1e13).
            (2, 1, (3 + 61 * 10**12, 0, 3)),
            (3, 1, (10**15, 10**15, 2)),
            (97, 10**9, (5, 0, 10**40)),
        ],
    )
    def test_returns_false_at_once(self, p, n, triple):
        start = time.perf_counter()
        assert not verify(EquationInstance(p, n), SolutionTriple(*triple))
        assert time.perf_counter() - start < 1.0

    def test_residue_period_of_two(self):
        # The third case above does collide modulo 2^61 - 1.
        assert pow(2, 3 + 61 * 10**12, _RESIDUE_MODULUS) + 1 == 9


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
        assert accepted.e is None and accepted.k is None and accepted.w is None
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
        assert trace.w == 4
        assert trace.accepted
        assert trace.e is None and trace.k is None

    def test_ngt1_rejections_by_base(self):
        rejected = trace_candidate(EquationInstance(2, 2), SolutionTriple(1, 1, 2))
        assert rejected.case_label == "n>1 Case 1" and not rejected.accepted
        assert rejected.w == 4
        rejected = trace_candidate(EquationInstance(3, 2), SolutionTriple(2, 3, 6))
        assert rejected.case_label == "n>1 Case 2.1" and not rejected.accepted
        assert rejected.w == 36
        rejected = trace_candidate(EquationInstance(5, 3), SolutionTriple(1, 1, 1))
        assert rejected.case_label == "n>1 Case 2.2" and not rejected.accepted

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

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this interpreter has no int-to-str digit limit",
    )
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


class TestEnumerate:
    def test_examples(self):
        assert [t.as_tuple() for t in enumerate_solutions(EquationInstance(2, 1), 3)] == [
            (0, 3, 3),
            (1, 1, 2),
            (3, 0, 3),
            (3, 3, 4),
        ]
        assert enumerate_solutions(EquationInstance(5, 1), 100) == []
        assert [t.as_tuple() for t in enumerate_solutions(EquationInstance(3, 1), 1)] == [
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
            keys = [t.as_tuple() for t in triples]
            assert keys == sorted(set(keys))

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
