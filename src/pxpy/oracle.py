"""Family-blind exhaustive search over bounded exponent boxes.

brute_force never consults the symbolic classification: it only adds powers
and takes integer roots. That independence is what makes cross_check a
meaningful completeness certificate for the classifier.

The scan kernel rules most pairs out by a power-residue sieve (Cohen, A
Course in Computational Algebraic Number Theory, Alg. 1.7.3): z^(2n) mod M
is always a (2n)-th power residue mod M, so a pair whose sum p^x + p^y is
not one, for some modulus M, is no solution. The sieve works on residues
of p's powers only; a row forms p^a only if some pair survives it, and a
survivor forms p^b, then the sum p^a + p^b and its integer_root of degree
2n. No table of powers is kept, so memory stays near the size of one sum.
The equation is symmetric, so each unordered pair is checked once.
"""

from __future__ import annotations

import time
from functools import lru_cache
from operator import index
from typing import NamedTuple

from .arithmetic import integer_root
from .classifier import EquationInstance, InternalInconsistencyError, SolutionTriple
from .classifier import enumerate_solutions, verify

__all__ = [
    "CrossCheckResult",
    "SearchBox",
    "SearchReport",
    "brute_force",
    "cross_check",
]

# Sieve moduli: Cohen's 64, 63, 65 and 11, then the primes 17..67. A scan
# takes them in order and skips each one p divides, as a shared factor
# filters nothing. A prime divides at most one, so every scan keeps 16+.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
# A row whose sums have at most this many bits stops sieving at its last
# survivor: a root that narrow costs about as much as a sieve step, and a
# row holding a solution would otherwise run every modulus for it.
# Measured on 2 vCPUs, n = 1, kernel time: stopping there took p = 2 at
# 120x120 from 0.77 to 0.35 ms and at 500x500 (1002-bit rows) from 3.3 to
# 2.6 ms; at 1000x1000 (2002-bit rows) it cost p = 2 17% and p = 3 33%.
_NARROW_ROW_BITS = 1024


class SearchBox(NamedTuple("SearchBox", [("x_max", int), ("y_max", int)])):
    """The finite search domain {0..x_max} x {0..y_max}.

    Stores ints, refusing others (TypeError); equal to any equal tuple, as in
    SearchBox(2, 1) == EquationInstance(2, 1); no pxpy container mixes them.
    """

    __slots__ = ()

    def __new__(cls, x_max: int, y_max: int) -> SearchBox:
        x_max, y_max = index(x_max), index(y_max)
        if x_max < 0 or y_max < 0:
            raise ValueError("box bounds must be non-negative")
        return tuple.__new__(cls, (x_max, y_max))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def pairs(self) -> int:
        return (self.x_max + 1) * (self.y_max + 1)


class SearchReport(NamedTuple):
    """Everything a bounded search found, plus how much work it did.

    Every search checks the whole box, so the derived pairs_checked is
    box.pairs. A report equals only a report, and elapsed_ms is left out of
    equality and the hash, so reports of repeated searches compare equal.
    """

    instance: EquationInstance
    box: SearchBox
    solutions: tuple[SolutionTriple, ...]
    elapsed_ms: float

    def __eq__(self, other) -> bool:
        return isinstance(other, SearchReport) and self[:3] == other[:3]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def pairs_checked(self) -> int:
        return self.box.pairs


@lru_cache(maxsize=4096)
def _sieve_patterns(modulus: int, k: int, p_mod: int) -> tuple[int, ...]:
    """Sieve bit patterns over one period of p's powers mod modulus.

    p_mod is p mod modulus, a unit. With t the period, pattern i has bit j
    set (0 <= i, j < t) iff p^i + p^j is in the k-th power residues mod
    modulus, a set built here: this cache is the one table of a modulus.
    """
    residues = {pow(r, k, modulus) for r in range(modulus)}
    cycle = [1]
    r = p_mod
    while r != 1:
        cycle.append(r)
        r = r * p_mod % modulus
    return tuple(
        sum(1 << j for j, c in enumerate(cycle) if (a + c) % modulus in residues)
        for a in cycle
    )


def _row_sieve(modulus: int, root_degree: int, p: int, width: int):
    """(period, patterns, tile) of one modulus for rows of width bits."""
    patterns = _sieve_patterns(modulus, root_degree, p % modulus)
    period = len(patterns)
    # Repeats a period-bit pattern across all width bits.
    tile = ((1 << (period * -(-width // period))) - 1) // ((1 << period) - 1)
    return period, patterns, tile


def _scan_rows(p: int, root_degree: int, a_max: int, b_max: int):
    """Check every unordered pair {a, b} with a <= a_max and a <= b <= b_max.

    Returns plain (a, b, z) tuples, one per survivor {a, b} whose sum has
    the exact integer_root(sum, root_degree) z. For each row a the sieve
    marks the b that survive every modulus as bits of one int, and stops at
    the first modulus that leaves none. The moduli, the _SIEVE_MODULI that
    p does not divide, come in order from one pass over the table, which a
    row that outlasts those built so far resumes: each is built once, when
    a row first reaches it. A narrow row, whose sums have at most
    _NARROW_ROW_BITS bits, also stops at its last survivor. Only a row with
    survivors forms p^a, and only a survivor forms p^b (its own mask bit for
    p = 2), so no power of p is held beyond the row that needs it.
    """
    width = b_max + 1
    moduli = iter(_SIEVE_MODULI)
    narrow = width * p.bit_length() <= _NARROW_ROW_BITS
    sieves = []
    full = (1 << width) - 1
    hits = []
    for a in range(a_max + 1):
        survivors = full >> a << a
        for period, patterns, tile in sieves:
            survivors &= patterns[a % period] * tile
            if not survivors or narrow and survivors.bit_count() == 1:
                break
        else:
            # The row outlasted every modulus built so far: build on.
            for modulus in moduli:
                if not modulus % p:
                    continue
                period, patterns, tile = sieve = _row_sieve(modulus, root_degree, p, width)
                sieves.append(sieve)
                survivors &= patterns[a % period] * tile
                if not survivors or narrow and survivors.bit_count() == 1:
                    break
        if not survivors:
            continue
        pa = 1 << a if p == 2 else p**a
        while survivors:
            low = survivors & -survivors
            survivors ^= low
            b = low.bit_length() - 1
            root, exact = integer_root(pa + (low if p == 2 else p**b), root_degree)
            if exact:
                hits.append((a, b, root))
    return hits


def brute_force(
    instance: EquationInstance, box: SearchBox, workers: int | None = None
) -> SearchReport:
    """Search the box for solutions of p^x + p^y = z^(2n), exactly.

    Each unordered pair {a, b} with a <= b is checked once, a over the
    shorter side of the box and b over the longer. Each hit is re-checked
    once by verify, which is symmetric in x and y as the equation is, and
    is then reported, sorted, in every orientation that lies in the box.
    workers is ignored, and kept only for callers that still pass it.
    """
    del workers
    started = time.perf_counter()
    p, n = instance
    x_max, y_max = box
    a_max, b_max = sorted(box)
    found = []
    for a, b, z in _scan_rows(p, 2 * n, a_max, b_max):
        triple = SolutionTriple(a, b, z)
        if not verify(instance, triple):
            raise InternalInconsistencyError(
                f"search reported {(a, b, z)}, which fails re-checking"
            )
        if a <= x_max and b <= y_max:
            found.append(triple)
        if a != b and b <= x_max and a <= y_max:
            found.append(SolutionTriple(b, a, z))
    solutions = tuple(sorted(found))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SearchReport(instance, box, solutions, elapsed_ms)


class CrossCheckResult(NamedTuple):
    """Agreement between the brute-force search and the family enumeration.

    Both sides are compared on the whole box, every pair the search covered;
    the symmetric difference is split into the triples only one side
    produced. Equal to any equal tuple, even another record's; no pxpy
    container mixes record types.
    """

    instance: EquationInstance
    box: SearchBox
    only_brute_force: tuple[SolutionTriple, ...]
    only_families: tuple[SolutionTriple, ...]

    @property
    def consistent(self) -> bool:
        return not self.only_brute_force and not self.only_families

    @property
    def verdict(self) -> str:
        return "CONSISTENT" if self.consistent else "INCONSISTENT"


def cross_check(
    instance: EquationInstance, box: SearchBox, workers: int | None = None
) -> CrossCheckResult:
    """Compare brute_force against the classifier's enumeration on a box.

    INCONSISTENT is a result, not an error; it means one side found a triple
    the other did not, which would falsify the classification at desk scale.
    workers is ignored, and kept only for callers that still pass it.
    """
    del workers
    searched = set(brute_force(instance, box).solutions)
    expected = set(enumerate_solutions(instance, *box))
    return CrossCheckResult(
        instance,
        box,
        tuple(sorted(searched - expected)),
        tuple(sorted(expected - searched)),
    )
