"""Tests for the brute-force search and the classifier cross-check."""

import tracemalloc
import types
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pxpy.oracle
from pxpy.arithmetic import RootResult
from pxpy.classifier import EquationInstance, SolutionTriple, enumerate_solutions, verify
from pxpy import InternalInconsistencyError
from pxpy.oracle import SearchBox, brute_force, cross_check

# Hand-derived from the family tables: the p=2, n=1 solutions with x, y <= 6.
P2_N1_BOX6 = [
    (0, 3, 3),
    (1, 1, 2),
    (2, 5, 6),
    (3, 0, 3),
    (3, 3, 4),
    (5, 2, 6),
    (5, 5, 8),
]


class TestSearchBox:
    def test_pairs(self):
        assert SearchBox(6, 6).pairs == 49
        assert SearchBox(0, 0).pairs == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SearchBox(-1, 3)

    def test_rejects_non_integer_bounds(self):
        with pytest.raises(TypeError):
            SearchBox(2.0, 3)
        with pytest.raises(TypeError):
            SearchBox(2, 3.0)

    def test_stores_bounds_as_ints(self):
        box = SearchBox(True, 2)
        assert [type(bound) for bound in box] == [int, int]
        assert box.pairs == 6


class TestBruteForce:
    def test_p2_n1_box6(self):
        report = brute_force(EquationInstance(2, 1), SearchBox(6, 6))
        assert list(report.solutions) == P2_N1_BOX6
        assert report.pairs_checked == 49
        assert report.elapsed_ms >= 0.0

    def test_each_reported_solution_satisfies_equation(self):
        for triple in P2_N1_BOX6:
            x, y, z = triple
            assert 2**x + 2**y == z**2

    def test_p7_n1_empty(self):
        report = brute_force(EquationInstance(7, 1), SearchBox(20, 20))
        assert report.solutions == ()
        assert report.pairs_checked == 441

    def test_p2_n2_box8(self):
        report = brute_force(EquationInstance(2, 2), SearchBox(8, 8))
        assert list(report.solutions) == [(3, 3, 2), (7, 7, 4)]

    def test_solutions_pass_verify(self):
        for p, n in [(2, 1), (3, 1), (2, 2), (2, 3)]:
            inst = EquationInstance(p, n)
            report = brute_force(inst, SearchBox(12, 12))
            for triple in report.solutions:
                assert verify(inst, triple)

    def test_sorted_and_duplicate_free(self):
        report = brute_force(EquationInstance(2, 1), SearchBox(15, 15))
        keys = list(report.solutions)
        assert keys == sorted(set(keys))

    def test_workers_keyword_is_ignored(self):
        inst, box = EquationInstance(2, 1), SearchBox(12, 9)
        assert brute_force(inst, box, workers=2) == brute_force(inst, box)
        assert cross_check(inst, box, workers=None) == cross_check(inst, box)

    def test_degenerate_boxes(self):
        report = brute_force(EquationInstance(2, 1), SearchBox(0, 3))
        # 2^0 + 2^3 = 9 = 3^2 is the only hit in that strip.
        assert list(report.solutions) == [(0, 3, 3)]
        report = brute_force(EquationInstance(2, 1), SearchBox(0, 0))
        assert report.solutions == ()

    def test_false_root_fails_the_recheck(self, monkeypatch):
        # A kernel that wrongly reports an exact root must be caught by the
        # verify re-check rather than returned as a solution. The box holds
        # solutions, so some pairs pass the sieve and reach the root.
        asked = []

        def false_root(value, k):
            asked.append(value)
            return RootResult(1, True)

        monkeypatch.setattr(pxpy.oracle, "integer_root", false_root)
        with pytest.raises(InternalInconsistencyError):
            brute_force(EquationInstance(2, 1), SearchBox(3, 3))
        assert asked

    @pytest.mark.parametrize("box", [SearchBox(20, 20), SearchBox(20, 6), SearchBox(6, 20)])
    def test_each_hit_is_rechecked_once(self, monkeypatch, box):
        # verify is symmetric in x and y, so one call covers both
        # orientations of an unordered hit (a, b, z) with a <= b.
        inst = EquationInstance(2, 1)
        checked = []

        def counting(instance, triple):
            checked.append(triple)
            return verify(instance, triple)

        monkeypatch.setattr(pxpy.oracle, "verify", counting)
        report = brute_force(inst, box)
        hits = naive_scan(2, 1, box.x_max, box.y_max)
        assert sorted(checked) == sorted({(min(x, y), max(x, y), z) for x, y, z in hits})
        assert list(report.solutions) == hits

    @pytest.mark.parametrize("box", [SearchBox(20, 20), SearchBox(20, 6), SearchBox(6, 20)])
    def test_each_reported_triple_is_built_once(self, monkeypatch, box):
        # The triple verify re-checks is the one reported, and a mirrored
        # orientation is built once, so no triple is built twice.
        built, checked = [], []

        def building(*fields):
            built.append(fields)
            return SolutionTriple(*fields)

        def recording(instance, triple):
            checked.append(triple)
            return verify(instance, triple)

        monkeypatch.setattr(pxpy.oracle, "SolutionTriple", building)
        monkeypatch.setattr(pxpy.oracle, "verify", recording)
        report = brute_force(EquationInstance(2, 1), box)
        assert len(set(built)) == len(built)
        assert set(built) >= set(report.solutions)
        rechecked = {id(triple) for triple in checked}
        in_scan_order = [t for t in report.solutions if t.x <= t.y]
        assert in_scan_order and all(id(t) in rechecked for t in in_scan_order)


def exact_nth_root(m, n):
    """The w with w^n == m, found by bisection, or None if there is none."""
    lo, hi = 0, 1 << -(-m.bit_length() // n)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def naive_scan(p, n, x_max, y_max):
    """Reference scan: every pair's sum tested for a 2n-th power with
    math.isqrt and bisection, independent of the oracle's integer_root."""
    hits = []
    for x in range(x_max + 1):
        for y in range(y_max + 1):
            total = p**x + p**y
            square_root = isqrt(total)
            if square_root * square_root == total:
                z = exact_nth_root(square_root, n)
                if z is not None:
                    hits.append((x, y, z))
    return hits


def coprime_moduli(p):
    """The sieve table's moduli that p does not divide, in table order."""
    return [m for m in pxpy.oracle._SIEVE_MODULI if m % p]


def moduli_built_by_scan(monkeypatch, p):
    """The moduli a small scan for p builds, in order, under an all-pass sieve.

    An all-pass sieve (period 1, pattern 1, all-ones tile) empties no row, so
    every row runs the full depth and the scan builds its whole pass.
    """
    built = []

    def all_pass(modulus, root_degree, p, width):
        built.append(modulus)
        return 1, (1,), (1 << width) - 1

    monkeypatch.setattr(pxpy.oracle, "_row_sieve", all_pass)
    monkeypatch.setattr(pxpy.oracle, "_NARROW_ROW_BITS", 0)
    pxpy.oracle._scan_rows(p, 2, 3, 3)
    return built


class TestScanKernel:
    def test_every_table_modulus_is_used(self, monkeypatch):
        # The scan must build each table modulus p does not divide, in table
        # order, and only once.
        for p in (2, 3, 5, 7, 13, 53, 67, 71, 1_000_003):
            built = moduli_built_by_scan(monkeypatch, p)
            assert built == coprime_moduli(p), p
            assert len(built) == (16 if p <= 67 else 17), p

    def test_coprime_skip_depends_on_p(self, monkeypatch):
        assert 53 not in moduli_built_by_scan(monkeypatch, 53)
        assert 53 in moduli_built_by_scan(monkeypatch, 59)
        assert 64 not in moduli_built_by_scan(monkeypatch, 2)
        assert 63 not in moduli_built_by_scan(monkeypatch, 3)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 53, 67, 71, 1_000_003])
    def test_each_row_resumes_the_pass(self, monkeypatch, p):
        # The i-th modulus built empties row i alone, so row a reuses the a
        # moduli built before it and builds one more, the next in order;
        # rows past the last one build nothing.
        built = []

        def empties_its_own_row(modulus, root_degree, p, width):
            row = len(built)
            built.append(modulus)
            return 32, tuple(int(i != row) for i in range(32)), (1 << width) - 1

        monkeypatch.setattr(pxpy.oracle, "_row_sieve", empties_its_own_row)
        monkeypatch.setattr(pxpy.oracle, "_NARROW_ROW_BITS", 0)
        depths = []
        for a_max in range(20):
            built.clear()
            pxpy.oracle._scan_rows(p, 2, a_max, 20)
            depths.append(len(built))
        assert built == coprime_moduli(p), p
        assert depths == [min(a + 1, len(built)) for a in range(20)], p

    @pytest.mark.parametrize("p", [2, 3, 5, 53, 59, 97, 101, 113, 1_000_003])
    def test_sieve_patterns_are_exact(self, p):
        # Against residue sets and powers of p built here, for k = 2..12.
        for modulus in pxpy.oracle._SIEVE_MODULI:
            if modulus % p == 0:
                continue
            for k in range(2, 13):
                residues = {pow(r, k, modulus) for r in range(modulus)}
                patterns = pxpy.oracle._sieve_patterns(modulus, k, p % modulus)
                period = len(patterns)
                assert pow(p, period, modulus) == 1
                powers = [pow(p, i, modulus) for i in range(period)]
                assert len(set(powers)) == period, (p, modulus)
                for i, pattern in enumerate(patterns):
                    for j in range(period):
                        bit = (powers[i] + powers[j]) % modulus in residues
                        assert (pattern >> j) & 1 == bit, (p, modulus, k, i, j)

    @pytest.mark.parametrize(
        "p, n, box, built",
        [
            # p = 97 = 1 mod 4: p^a + p^b = 2 mod 4 is no square, so every
            # row empties at the first modulus, 64.
            (97, 1, SearchBox(40, 40), 1),
            # p = 2, n = 1: every row holds a hit, so rows too wide to stop
            # at their last survivor run the full depth.
            (2, 1, SearchBox(3, 600), len(coprime_moduli(2))),
        ],
    )
    def test_sieve_depth_is_built_on_demand(self, monkeypatch, p, n, box, built):
        moduli = []
        row_sieve = pxpy.oracle._row_sieve

        def recording(modulus, *args):
            moduli.append(modulus)
            return row_sieve(modulus, *args)

        monkeypatch.setattr(pxpy.oracle, "_row_sieve", recording)
        brute_force(EquationInstance(p, n), box)
        assert moduli == coprime_moduli(p)[:built]

    def test_narrow_rows_stop_at_their_last_survivor(self, monkeypatch):
        depths = []
        row_sieve = pxpy.oracle._row_sieve

        def recording(modulus, *args):
            depths[-1] += 1
            return row_sieve(modulus, *args)

        monkeypatch.setattr(pxpy.oracle, "_row_sieve", recording)
        results = []
        for narrow_bits in (pxpy.oracle._NARROW_ROW_BITS, 0):
            monkeypatch.setattr(pxpy.oracle, "_NARROW_ROW_BITS", narrow_bits)
            depths.append(0)
            results.append(pxpy.oracle._scan_rows(2, 2, 40, 40))
        assert depths[0] < depths[1] == len(coprime_moduli(2))
        assert results[0] == results[1]

    def test_wide_strip_holds_no_powers_table(self):
        inst, box = EquationInstance(2, 1), SearchBox(0, 40_000)
        brute_force(inst, SearchBox(0, 8))  # fill the sieve caches first
        tracemalloc.start()
        try:
            report = brute_force(inst, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(report.solutions) == [(0, 3, 3)]
        # A table of p^0..p^40000 alone would take about 100 MB.
        assert peak < 5_000_000, peak

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 53, 59, 97, 101, 113, 1_000_003]),
        st.integers(1, 6),
        st.integers(0, 40),
        st.integers(0, 40),
    )
    @example(2, 1, 40, 3)
    @example(2, 1, 3, 40)
    @example(2, 1, 3, 600)  # every row holds a hit and runs the full sieve depth
    @example(97, 1, 40, 40)  # every row's mask empties at the first modulus
    @example(3, 1, 4, 600)
    @example(3, 6, 40, 40)
    @example(1_000_003, 2, 40, 40)
    def test_matches_naive_scan(self, p, n, x_max, y_max):
        # Both with narrow rows stopping at their last survivor and with
        # every row sieved until it empties or the moduli run out.
        expected = naive_scan(p, n, x_max, y_max)
        for narrow_bits in (pxpy.oracle._NARROW_ROW_BITS, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pxpy.oracle, "_NARROW_ROW_BITS", narrow_bits)
                report = brute_force(EquationInstance(p, n), SearchBox(x_max, y_max))
            assert list(report.solutions) == expected, narrow_bits


PRIMES_BELOW_200 = [q for q in range(2, 200) if all(q % d for d in range(2, q))]


def odd_degree_closed_form(p, m, bound):
    """The (a, b, z), a <= b <= bound, of p^a + p^b = z^m for odd m, by Mihailescu's theorem.

    p = 2 gives a = b = m*t + m - 1 with z = 2^(t+1); p = 2^m - 1 prime gives
    (m*t, m*t + 1, 2*p^t); no other prime gives any.
    """
    if p == 2:
        return [(m * t + m - 1, m * t + m - 1, 2 ** (t + 1)) for t in range((bound + 1) // m)]
    if p == 2**m - 1:
        return [(m * t, m * t + 1, 2 * p**t) for t in range((bound - 1) // m + 1)]
    return []


def test_scan_kernel_matches_the_closed_form_at_odd_root_degrees():
    # The kernel is family-blind and takes any root degree; at odd m its
    # hits must be exactly those the closed form predicts: 87 in all, for
    # p = 2 and the Mersenne primes 7, 31 and 127.
    hits = 0
    for m in (3, 5, 7, 9):
        for p in PRIMES_BELOW_200:
            expected = odd_degree_closed_form(p, m, 60)
            assert pxpy.oracle._scan_rows(p, m, 60, 60) == expected, (p, m)
            hits += len(expected)
    assert hits == 87


# What the search must never consult: the classification and its families.
_FAMILY_NAMES = {"classify", "enumerate_solutions", "instantiate", "SolutionFamily", "trace_candidate"}


def code_names(code):
    """The co_names of a code object and of every code object nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


@pytest.mark.parametrize("function", [
    brute_force,
    pxpy.oracle._scan_rows,
    pxpy.oracle._row_sieve,
    pxpy.oracle._sieve_patterns.__wrapped__,
], ids=lambda f: f.__name__)
def test_the_search_never_names_the_families(function):
    # brute_force's independence from the classification is what makes
    # cross_check, which compares against the families, a certificate.
    assert not code_names(function.__code__) & _FAMILY_NAMES


class TestCrossCheck:
    def test_consistent_examples(self):
        assert cross_check(EquationInstance(2, 1), SearchBox(12, 12)).consistent
        assert cross_check(EquationInstance(3, 1), SearchBox(12, 12)).consistent
        result = cross_check(EquationInstance(13, 1), SearchBox(16, 16))
        assert result.consistent
        assert result.verdict == "CONSISTENT"
        assert result.only_brute_force == () and result.only_families == ()

    def test_consistent_across_instances(self):
        for p in (2, 3, 5, 7):
            for n in (1, 2, 3):
                result = cross_check(EquationInstance(p, n), SearchBox(10, 10))
                assert result.consistent, (p, n)

    def test_non_square_box_compares_whole_box(self):
        # Solutions with x beyond the y bound, e.g. (7, 4, 12), lie outside
        # the common square but inside the box; both sides must cover them.
        inst = EquationInstance(2, 1)
        box = SearchBox(20, 6)
        searched = brute_force(inst, box).solutions
        assert SolutionTriple(7, 4, 12) in searched
        assert list(searched) == enumerate_solutions(inst, 20, 6)
        assert cross_check(inst, box).consistent

    def test_non_square_box_catches_a_miss_outside_the_square(self, monkeypatch):
        def missing_7_4_12(instance, max_exponent, y_max=None):
            found = enumerate_solutions(instance, max_exponent, y_max)
            return [t for t in found if t != SolutionTriple(7, 4, 12)]

        monkeypatch.setattr(pxpy.oracle, "enumerate_solutions", missing_7_4_12)
        result = cross_check(EquationInstance(2, 1), SearchBox(20, 6))
        assert result.verdict == "INCONSISTENT"
        assert result.only_brute_force == (SolutionTriple(7, 4, 12),)
        assert result.only_families == ()

    def test_inconsistency_is_reported_not_raised(self, monkeypatch):
        import pxpy.oracle as oracle_module

        def missing_one(instance, max_exponent, y_max=None):
            return enumerate_solutions(instance, max_exponent, y_max)[1:]

        monkeypatch.setattr(oracle_module, "enumerate_solutions", missing_one)
        result = oracle_module.cross_check(EquationInstance(2, 1), SearchBox(8, 8))
        assert not result.consistent
        assert result.verdict == "INCONSISTENT"
        assert SolutionTriple(0, 3, 3) in result.only_brute_force
        assert result.only_families == ()
