"""Tests for the consecutive-perfect-power helpers."""

import inspect
import itertools
import random

import pytest

import pxpy.catalan
from pxpy.catalan import CatalanInstance, _roots, lemma2_no_solutions, search_catalan
from pxpy.classifier import SolutionTriple
from pxpy import InternalInconsistencyError
from pxpy.oracle import SearchReport

PRIMES_TO_97 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                71, 73, 79, 83, 89, 97]


def test_catalan_instance_rejects_negative_fields():
    with pytest.raises(ValueError):
        CatalanInstance(3, 2, -1, 3)


def test_desk_scale_search_finds_only_eight_and_nine():
    found = search_catalan(50, 50, 20, 20)
    assert found == [CatalanInstance(3, 2, 2, 3)]
    assert all(inst.a**inst.x - inst.b**inst.y == 1 for inst in found)


def test_search_catalan_small_boxes():
    # No solutions at all below the 3^2 - 2^3 pair.
    assert search_catalan(2, 2, 20, 20) == []
    assert search_catalan(10, 10, 2, 2) == []


def naive_catalan(a_max, b_max, x_max, y_max):
    """The reference: every (a, b, x, y) in the bounds with a^x - b^y = 1, by four loops."""
    found = []
    for a in range(2, a_max + 1):
        for x in range(2, x_max + 1):
            for b in range(2, b_max + 1):
                for y in range(2, y_max + 1):
                    if b**y >= a**x - 1:  # b^y only grows with y
                        if b**y == a**x - 1:
                            found.append(CatalanInstance(a, b, x, y))
                        break
    return sorted(found)


GRID_BASES = (-1, 0, 1, 2, 3, 4, 9, 10)
GRID_EXPONENTS = (-1, 0, 1, 2, 3, 4)


def test_search_catalan_matches_the_naive_loops_on_the_grid():
    for bounds in itertools.product(GRID_BASES, GRID_BASES, GRID_EXPONENTS, GRID_EXPONENTS):
        assert search_catalan(*bounds) == naive_catalan(*bounds), bounds


def test_search_catalan_matches_the_naive_loops_on_asymmetric_bounds():
    rng = random.Random(35)
    for _ in range(200):
        bounds = (rng.randint(-1, 70), rng.randint(-1, 70), rng.randint(-1, 14), rng.randint(-1, 14))
        assert search_catalan(*bounds) == naive_catalan(*bounds), bounds


def test_roots_reports_every_way_of_writing_a_value():
    # 64 = 8^2 = 4^3 = 2^6; rows cut to bases 2..7 drop 8^2.
    rows = [[base**exponent for base in range(2, 10)] for exponent in range(2, 8)]
    assert list(_roots(rows, 64)) == [(8, 2), (4, 3), (2, 6)]
    assert list(_roots([row[:6] for row in rows], 64)) == [(4, 3), (2, 6)]
    assert list(_roots(rows, 63)) == []


@pytest.mark.parametrize("bounds", [(5, 5, 5, 5), (1, 5, 5, 5), (0, 0, 0, 0), (-1, 3, 1, 4)])
@pytest.mark.parametrize("position", range(4))
def test_search_catalan_refuses_a_float_bound(bounds, position):
    # The bounds are checked before any side is built, so an empty box
    # refuses a float too.
    bounds = list(bounds)
    bounds[position] = 2.5
    with pytest.raises(TypeError):
        search_catalan(*bounds)


def test_search_catalan_keeps_no_state():
    assert inspect.isfunction(search_catalan)
    assert not hasattr(search_catalan, "cache_info")
    assert not hasattr(search_catalan, "__wrapped__")
    before = dict(vars(pxpy.catalan))
    first = search_catalan(40, 58, 12, 11)
    second = search_catalan(40, 58, 12, 11)
    assert first == second == [CatalanInstance(3, 2, 2, 3)]
    assert first is not second
    after = vars(pxpy.catalan)
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)


@pytest.fixture
def products(monkeypatch):
    """The (left, right) of every product search_catalan forms, in order."""
    formed = []

    def counting_mul(left, right):
        formed.append((left, right))
        return left * right

    monkeypatch.setattr(pxpy.catalan, "mul", counting_mul)
    return formed


def test_search_catalan_forms_only_the_powers_a_side_needs(products):
    # One side is the squares of 2..50, the other the powers of 2 and 3,
    # needed only up to 50^2 + 1: 49 squares, then 2^3..2^12 and 3^3..3^8,
    # each run ending at the first power past the cap: 49 + 10 + 6, not a
    # 49-wide row per exponent, nor 2 * 38 powers up to exponent 40.
    assert search_catalan(50, 3, 2, 40) == [CatalanInstance(3, 2, 2, 3)]
    assert len(products) == 49 + 10 + 6
    products.clear()
    assert search_catalan(3, 50, 40, 2) == []
    assert len(products) == 49 + 10 + 6


@pytest.mark.parametrize("bounds", [(2000, 2, 300, 2), (10**5, 2, 10**9, 2)])
def test_search_catalan_bounds_a_lopsided_box_by_its_short_side(products, bounds):
    # The b side is just 2^2, so no a^x past 5 can be a hit: the long side
    # stops at 2^3, however many bases and exponents it allows.
    assert search_catalan(*bounds) == []
    assert products == [(2, 2), (4, 2)]


@pytest.mark.parametrize(
    "bounds",
    [(1, 50, 40, 40), (50, 1, 40, 40), (50, 50, 1, 40), (50, 50, 40, 1), (10**5, 0, 10**9, 10**9)],
)
def test_search_catalan_forms_no_power_for_an_empty_box(products, bounds):
    # A bound below 2 empties the box, so neither side is built, however
    # large the other bounds are.
    assert search_catalan(*bounds) == []
    assert products == []


def test_wide_search_finds_only_eight_and_nine():
    assert search_catalan(400, 400, 30, 30) == [CatalanInstance(3, 2, 2, 3)]


def test_lemma2_examples():
    report = lemma2_no_solutions(5, 40)
    assert report.solutions == ()
    assert report.pairs_checked == 41
    assert report.box.x_max == 40 and report.box.y_max == 0
    assert report.instance.p == 5 and report.instance.n == 1
    assert lemma2_no_solutions(7, 40).solutions == ()


def test_lemma2_invalid_arguments():
    with pytest.raises(ValueError):
        lemma2_no_solutions(4, 40)  # not prime
    with pytest.raises(ValueError):
        lemma2_no_solutions(3, 40)  # prime but not > 3
    with pytest.raises(ValueError):
        lemma2_no_solutions(5, -1)


def test_lemma2_across_small_primes():
    for p in PRIMES_TO_97:
        assert lemma2_no_solutions(p, 60).solutions == ()


def test_lemma2_hit_raises_distinguished_error(monkeypatch):
    # Force the strip search to report a solution; the lemma must refuse to
    # return it as a result.
    def search_with_hit(instance, box):
        return SearchReport(instance, box, (SolutionTriple(1, 0, 1),), 0.0)

    monkeypatch.setattr(pxpy.catalan, "brute_force", search_with_hit)
    with pytest.raises(InternalInconsistencyError):
        lemma2_no_solutions(5, 3)
