"""Tests for the consecutive-perfect-power helpers."""

import pytest

import pxpy.catalan
from pxpy.catalan import CatalanInstance, lemma2_no_solutions, search_catalan
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
