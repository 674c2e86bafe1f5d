"""Family-blind exhaustive search over bounded exponent boxes.

brute_force never consults the symbolic classification: it only adds powers
and takes integer roots. That independence is what makes cross_check a
meaningful completeness certificate for the classifier.

Searches may fan out across worker processes, but the returned report is
identical for any worker count except for its timing metadata.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

from .arithmetic import integer_root
from .classifier import EquationInstance, SolutionTriple, enumerate_solutions, verify
from .errors import InternalInconsistencyError

__all__ = [
    "CrossCheckResult",
    "SearchBox",
    "SearchReport",
    "brute_force",
    "cross_check",
]

# Boxes below this many (x, y) pairs run inline: process startup would cost
# more than the scan itself.
_PARALLEL_MIN_PAIRS = 2048


@dataclass(frozen=True, slots=True)
class SearchBox:
    """The finite search domain {0..x_max} x {0..y_max}."""

    x_max: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_max < 0 or self.y_max < 0:
            raise ValueError("box bounds must be non-negative")

    @property
    def pairs(self) -> int:
        return (self.x_max + 1) * (self.y_max + 1)


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Everything a bounded search found, plus how much work it did.

    elapsed_ms is excluded from equality so reports from runs with different
    worker counts compare equal.
    """

    instance: EquationInstance
    box: SearchBox
    solutions: tuple[SolutionTriple, ...]
    pairs_checked: int
    elapsed_ms: float = field(compare=False)


def _scan_rows(p: int, root_degree: int, xs: tuple[int, ...], y_max: int):
    """Check every (x, y) with x in xs and 0 <= y <= y_max.

    Returns plain (x, y, root) tuples so results pickle cheaply. The power
    table is built once per call and reused across all pairs.
    """
    powers = [1]
    for _ in range(max(xs[-1], y_max)):
        powers.append(powers[-1] * p)
    hits = []
    for x in xs:
        px = powers[x]
        for y in range(y_max + 1):
            result = integer_root(px + powers[y], root_degree)
            if result.exact:
                hits.append((x, y, result.root))
    return hits


def brute_force(
    instance: EquationInstance, box: SearchBox, workers: int | None = 1
) -> SearchReport:
    """Search the box for solutions of p^x + p^y = z^(2n), exactly.

    workers=None uses the available parallelism; the work is split on x rows
    and the merged result is sorted, so output is schedule-independent.
    """
    started = time.perf_counter()
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, box.x_max + 1))
    xs = tuple(range(box.x_max + 1))
    if workers == 1 or box.pairs < _PARALLEL_MIN_PAIRS:
        raw = _scan_rows(instance.p, instance.power, xs, box.y_max)
    else:
        chunks = [xs[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _scan_rows,
                repeat(instance.p),
                repeat(instance.power),
                chunks,
                repeat(box.y_max),
            )
            raw = [hit for part in parts for hit in part]
    solutions = tuple(sorted(SolutionTriple(*hit) for hit in raw))
    for triple in solutions:
        if not verify(instance, triple):
            raise InternalInconsistencyError(
                f"search reported {triple.as_tuple()}, which fails re-checking"
            )
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SearchReport(instance, box, solutions, box.pairs, elapsed_ms)


@dataclass(frozen=True, slots=True)
class CrossCheckResult:
    """Agreement between the brute-force search and the family enumeration.

    Both sides are compared on the whole box, every pair the search covered;
    the symmetric difference is split into the triples only one side
    produced.
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
    instance: EquationInstance, box: SearchBox, workers: int | None = 1
) -> CrossCheckResult:
    """Compare brute_force against the classifier's enumeration on a box.

    INCONSISTENT is a result, not an error; it means one side found a triple
    the other did not, which would falsify the classification at desk scale.
    """
    searched = set(brute_force(instance, box, workers=workers).solutions)
    expected = set(enumerate_solutions(instance, box.x_max, box.y_max))
    return CrossCheckResult(
        instance,
        box,
        tuple(sorted(searched - expected)),
        tuple(sorted(expected - searched)),
    )
