"""Acceptance checklist: one test per criterion, one printed line per verdict.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line and
runtime for every criterion. All equation checks are exact big-integer
comparisons with zero tolerance.
"""

import json
import time

from pxpy.catalan import CatalanInstance, lemma2_no_solutions, search_catalan
from pxpy.classifier import (
    EquationInstance,
    SolutionTriple,
    classify,
    instantiate,
    trace_candidate,
    verify,
)
from pxpy.cli import main
from pxpy.oracle import SearchBox, brute_force, cross_check

PRIMES_5_TO_97 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                  67, 71, 73, 79, 83, 89, 97]


def report(number, description, failures, started):
    elapsed = time.perf_counter() - started
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {status} in {elapsed:.2f}s: {description}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_1_p2_families_sound():
    started = time.perf_counter()
    failures = []
    instance = EquationInstance(2, 1)
    families = classify(instance)
    checks = 0
    for family in families:
        for s in range(13):
            triple = instantiate(family, s)
            if 2**triple.x + 2**triple.y != triple.z**2:
                failures.append((str(family), s))
            checks += 1
    if checks != 39:
        failures.append(f"expected 39 checks, ran {checks}")
    report(1, "p=2, n=1 families satisfy 2^x + 2^y = z^2 for s=0..12 (39 checks)",
           failures, started)


def test_criterion_2_p3_families_sound():
    started = time.perf_counter()
    failures = []
    instance = EquationInstance(3, 1)
    families = classify(instance)
    if len(families) != 2:
        failures.append(f"expected 2 families, got {len(families)}")
    for family in families:
        for s in range(13):
            triple = instantiate(family, s)
            if 3**triple.x + 3**triple.y != triple.z**2:
                failures.append((str(family), s))
    report(2, "p=3, n=1 families satisfy 3^x + 3^y = z^2 for s=0..12",
           failures, started)


def test_criterion_3_completeness_desk_scale():
    started = time.perf_counter()
    failures = []
    for p in (2, 3):
        result = cross_check(EquationInstance(p, 1), SearchBox(14, 14))
        if not result.consistent:
            failures.append((p, result.only_brute_force, result.only_families))
    report(3, "search and families agree on the 14x14 box for p=2 and p=3",
           failures, started)


def test_criterion_4_no_solutions_large_primes():
    started = time.perf_counter()
    failures = []
    box = SearchBox(24, 24)
    for p in PRIMES_5_TO_97:
        found = brute_force(EquationInstance(p, 1), box).solutions
        if found:
            failures.append((p, [t.as_tuple() for t in found]))
    report(4, "no solutions for any prime 5 <= p <= 97 with n=1 on the 24x24 box",
           failures, started)


def test_criterion_5_higher_even_powers():
    started = time.perf_counter()
    failures = []
    box = SearchBox(16, 16)
    for n in (2, 3, 4):
        expected = []
        for s in range(0, box.x_max // 2 + 1):
            if (s + 1) % n == 0 and 2 * s + 1 <= box.x_max:
                expected.append((2 * s + 1, 2 * s + 1, 2 ** ((s + 1) // n)))
        found = [t.as_tuple()
                 for t in brute_force(EquationInstance(2, n), box).solutions]
        if found != expected:
            failures.append(("p=2", n, found, expected))
        for p in (3, 5, 7):
            stray = brute_force(EquationInstance(p, n), box).solutions
            if stray:
                failures.append((p, n, [t.as_tuple() for t in stray]))
    report(5, "for n in {2,3,4}: p=2 solves exactly at (2s+1, 2s+1, 2^((s+1)/n)) "
              "with n | s+1; p in {3,5,7} has none (16x16 box)",
           failures, started)


def test_criterion_6_unique_consecutive_powers():
    started = time.perf_counter()
    failures = []
    found = search_catalan(50, 50, 20, 20)
    if found != [CatalanInstance(3, 2, 2, 3)]:
        failures.append([(c.a, c.b, c.x, c.y) for c in found])
    report(6, "a^x - b^y = 1 over 2 <= a,b <= 50, 2 <= x,y <= 20 has the single "
              "solution (3, 2, 2, 3)", failures, started)


def test_criterion_7_prime_power_plus_one_never_square():
    started = time.perf_counter()
    failures = []
    for p in PRIMES_5_TO_97:
        solutions = lemma2_no_solutions(p, 60).solutions
        if solutions:
            failures.append((p, solutions))
    report(7, "p^x + 1 is never a perfect square for primes 3 < p <= 97, x <= 60",
           failures, started)


def test_criterion_8_trace_agrees_with_verify():
    started = time.perf_counter()
    failures = []
    checks = 0
    for p in (2, 3, 5):
        for n in (1, 2):
            instance = EquationInstance(p, n)
            for x in range(11):
                for y in range(11):
                    for z in range(1025):
                        triple = SolutionTriple(x, y, z)
                        accepted = trace_candidate(instance, triple).accepted
                        if accepted != verify(instance, triple):
                            failures.append((p, n, x, y, z))
                        checks += 1
    if checks != 3 * 2 * 11 * 11 * 1025:
        failures.append(f"unexpected check count {checks}")
    report(8, f"trace verdict equals verify on the full box x,y<=10, z<=1024, "
              f"p in {{2,3,5}}, n in {{1,2}} ({checks} checks)",
           failures, started)


def test_criterion_9_cli_round_trip(capsys):
    started = time.perf_counter()
    failures = []
    code = main(["enumerate", "--p", "2", "--n", "1", "--max-exponent", "20"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"enumerate exited {code}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        failures.append("enumerate emitted nothing")
    for line in lines:
        payload = json.loads(line)["payload"]
        rc = main(["verify", "--p", "2", "--n", "1",
                   "-x", payload["x"], "-y", payload["y"], "-z", payload["z"]])
        capsys.readouterr()
        if rc != 0:
            failures.append(f"verify exited {rc} for {line}")
    rc = main(["crosscheck"])
    capsys.readouterr()
    if rc != 0:
        failures.append(f"crosscheck exited {rc}")
    with capsys.disabled():
        report(9, "every enumerated triple re-verifies via the CLI and the "
                  "default crosscheck is consistent", failures, started)
