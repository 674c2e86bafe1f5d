"""Command-line surface: classify, enumerate, verify, trace, search, crosscheck, summary.

Machine-readable JSON records go to stdout, one object per line; diagnostics
go to stderr. Every integer crosses the boundary as a decimal string so
arbitrary precision survives serialization.

Each command parses and checks all of its input before it computes
anything. Exit codes: 0 success / certified / consistent; 1 well-formed
negative result; 2 invalid input or digit cap exceeded, always refused before
any computation; 3 internal error (any other failure is a library bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import (
    EquationInstance,
    SolutionTriple,
    classify,
    enumerate_solutions,
    trace_candidate,
    verify,
)
from .errors import DigitCapExceededError, InternalInconsistencyError
from .oracle import SearchBox, brute_force, cross_check

SCHEMA_VERSION = "1"
DEFAULT_DIGIT_CAP = 100_000

DEFAULT_CROSSCHECK_PRIMES = "2,3,5,7,11,13"
DEFAULT_CROSSCHECK_NS = "1,2,3"
DEFAULT_CROSSCHECK_BOUND = "14"

# Rational upper approximation of log2(10), scaled by 10^5: used to decide
# when base^exponent certainly exceeds a decimal-digit budget.
_LOG2_10_NUM = 332_193
_LOG2_10_DEN = 100_000

# classify renders the n>1, p=2 family for one concrete n; the summary states
# it for every n, and perfbench's cli workload pins this text byte for byte.
_SYMBOLIC_N_FAMILY = "x=2s+1, y=2s+1, z=2^((s+1)/n), s>=0, s = n-1 (mod n)"

# (n label, p label, representative p, representative n) per regime.
_REGIMES = (
    ("1", "2", 2, 1),
    ("1", "3", 3, 1),
    ("1", "p>3", 5, 1),
    ("n>1", "2", 2, 2),
    ("n>1", "p>=3", 3, 2),
)


class _InputError(Exception):
    """Invalid command-line input: exits 2, as a digit-cap refusal does."""


class DigitCap:
    """Guard against materializing integers beyond a decimal-digit budget.

    The power check is conservative: it trips only when the result provably
    exceeds the cap, so nothing within the cap is ever refused (results up to
    a small factor past the cap may still be computed). digits=0 disables
    the cap.
    """

    def __init__(self, digits: int):
        if digits < 0:
            raise _InputError("--digit-cap must be >= 0")
        self.digits = digits

    def check_literal(self, text: str, name: str) -> None:
        if self.digits and len(text) > self.digits:
            raise DigitCapExceededError(
                f"{name} has {len(text)} digits; the cap is {self.digits} "
                "(adjust with --digit-cap)"
            )

    def check_power(self, base: int, exponent: int, name: str) -> None:
        if not self.digits or base < 2:
            return
        # base^exponent >= 2^(exponent*(bits-1)); if that lower bound already
        # reaches 10^digits the result certainly exceeds the cap.
        low_bits = exponent * (base.bit_length() - 1)
        if low_bits * _LOG2_10_DEN >= self.digits * _LOG2_10_NUM:
            raise DigitCapExceededError(
                f"{name} would exceed the {self.digits}-digit cap "
                "(adjust with --digit-cap)"
            )


def _allow_large_int_strings(cap_digits: int, current: int) -> None:
    """Lift the interpreter's int<->str conversion limit up to the cap's needs."""
    if cap_digits == 0:
        sys.set_int_max_str_digits(0)
    elif current != 0 and 4 * cap_digits > current:
        sys.set_int_max_str_digits(4 * cap_digits)


def _parse_natural(text: str, name: str, cap: DigitCap) -> int:
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise _InputError(f"{name} must be a non-negative decimal integer, got {text!r}")
    cap.check_literal(text, name)
    return int(text)


def _parse_natural_list(text: str, name: str, cap: DigitCap) -> list[int]:
    values = [_parse_natural(item, name, cap) for item in text.split(",") if item.strip()]
    if not values:
        raise _InputError(f"{name} must list at least one value")
    return values


def _equation(p: int, n: int) -> EquationInstance:
    try:
        return EquationInstance(p, n)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _instance(args: argparse.Namespace, cap: DigitCap) -> EquationInstance:
    return _equation(_parse_natural(args.p, "p", cap), _parse_natural(args.n, "n", cap))


def _box(args: argparse.Namespace, cap: DigitCap) -> SearchBox:
    return SearchBox(
        _parse_natural(args.x_max, "x-max", cap),
        _parse_natural(args.y_max, "y-max", cap),
    )


def _workers(value: int | None) -> int | None:
    """--workers as given; None leaves the default to the oracle."""
    if value is not None and value < 1:
        raise _InputError("--workers must be >= 1")
    return value


def _emit(command: str, payload, instance: EquationInstance | None = None) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instance": None
        if instance is None
        else {"p": str(instance.p), "n": str(instance.n)},
        "payload": payload,
    }
    print(json.dumps(record))


def _triple_payload(triple: SolutionTriple) -> dict:
    return {"x": str(triple.x), "y": str(triple.y), "z": str(triple.z)}


def cmd_classify(args: argparse.Namespace, cap: DigitCap) -> int:
    instance = _instance(args, cap)
    result = classify(instance)
    payload = {
        "no_solutions": result.no_solutions,
        "families": [str(family) for family in result.families],
    }
    _emit("classify", payload, instance)
    return 0


def cmd_enumerate(args: argparse.Namespace, cap: DigitCap) -> int:
    instance = _instance(args, cap)
    bound = _parse_natural(args.max_exponent, "max-exponent", cap)
    cap.check_power(instance.p, bound + 2, "the enumerated solutions")
    triples = enumerate_solutions(instance, bound)
    if args.format == "tsv":
        print("x\ty\tz")
        for triple in triples:
            print(f"{triple.x}\t{triple.y}\t{triple.z}")
    else:
        for triple in triples:
            _emit("enumerate", _triple_payload(triple), instance)
    return 0


def _parse_triple(args: argparse.Namespace, instance: EquationInstance, cap: DigitCap) -> SolutionTriple:
    x = _parse_natural(args.x, "x", cap)
    y = _parse_natural(args.y, "y", cap)
    z = _parse_natural(args.z, "z", cap)
    cap.check_power(instance.p, max(x, y), "p^x + p^y")
    cap.check_power(z, instance.power, "z^(2n)")
    return SolutionTriple(x, y, z)


def cmd_verify(args: argparse.Namespace, cap: DigitCap) -> int:
    instance = _instance(args, cap)
    triple = _parse_triple(args, instance, cap)
    certified = verify(instance, triple)
    payload = {**_triple_payload(triple), "certified": certified}
    _emit("verify", payload, instance)
    return 0 if certified else 1


def cmd_trace(args: argparse.Namespace, cap: DigitCap) -> int:
    instance = _instance(args, cap)
    triple = _parse_triple(args, instance, cap)
    trace = trace_candidate(instance, triple)
    payload = {
        **_triple_payload(triple),
        "case": trace.case_label,
        "e": None if trace.e is None else str(trace.e),
        "k": None if trace.k is None else str(trace.k),
        "w": None if trace.w is None else str(trace.w),
        "verdict": trace.verdict,
        "reason": trace.rejection_reason,
    }
    _emit("trace", payload, instance)
    return 0 if trace.accepted else 1


def _box_payload(box: SearchBox) -> dict:
    return {"x_max": str(box.x_max), "y_max": str(box.y_max)}


def cmd_search(args: argparse.Namespace, cap: DigitCap) -> int:
    instance = _instance(args, cap)
    box = _box(args, cap)
    workers = _workers(args.workers)
    cap.check_power(instance.p, max(box.x_max, box.y_max) + 1, "p^x + p^y")
    report = brute_force(instance, box, workers=workers)
    payload = {
        "box": _box_payload(box),
        "workers": str(report.workers_used),
        "solutions": [_triple_payload(t) for t in report.solutions],
        "pairs_checked": str(report.pairs_checked),
        "elapsed_ms": report.elapsed_ms,
    }
    _emit("search", payload, instance)
    return 0


def cmd_crosscheck(args: argparse.Namespace, cap: DigitCap) -> int:
    primes = _parse_natural_list(args.p, "p", cap)
    ns = _parse_natural_list(args.n, "n", cap)
    box = _box(args, cap)
    workers = _workers(args.workers)
    instances = [_equation(p, n) for p in primes for n in ns]
    cap.check_power(max(primes), max(box.x_max, box.y_max) + 1, "p^x + p^y")
    results = []
    all_consistent = True
    for instance in instances:
        outcome = cross_check(instance, box, workers=workers)
        all_consistent = all_consistent and outcome.consistent
        results.append(
            {
                "p": str(instance.p),
                "n": str(instance.n),
                "verdict": outcome.verdict,
                "only_brute_force": [_triple_payload(t) for t in outcome.only_brute_force],
                "only_families": [_triple_payload(t) for t in outcome.only_families],
            }
        )
    payload = {
        "box": _box_payload(box),
        "all_consistent": all_consistent,
        "results": results,
    }
    _emit("crosscheck", payload)
    return 0 if all_consistent else 1


def cmd_summary(args: argparse.Namespace, cap: DigitCap) -> int:
    del cap
    regimes = []
    for n_label, p_label, p, n in _REGIMES:
        families = [
            str(f) if n == 1 else _SYMBOLIC_N_FAMILY
            for f in classify(EquationInstance(p, n)).families
        ]
        regimes.append(
            {"n": n_label, "p": p_label, "solvable": bool(families), "families": families}
        )
    payload = {"equation": "p^x + p^y = z^(2n)", "regimes": regimes}
    _emit("summary", payload)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--digit-cap",
        type=int,
        default=DEFAULT_DIGIT_CAP,
        help="refuse computations beyond this many decimal digits; 0 disables"
        f" (default {DEFAULT_DIGIT_CAP})",
    )


def _add_instance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", required=True, metavar="P", help="prime base")
    parser.add_argument(
        "--n", required=True, metavar="N", help="exponent parameter; z is raised to 2n"
    )


def _add_triple(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-x", required=True, metavar="X", help="exponent x")
    parser.add_argument("-y", required=True, metavar="Y", help="exponent y")
    parser.add_argument("-z", required=True, metavar="Z", help="base z")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pxpy",
        description="Exact solver and verifier for p^x + p^y = z^(2n) "
        "over the non-negative integers, p prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="emit the symbolic solution families")
    _add_instance(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("enumerate", help="list all solutions with x, y <= bound")
    _add_instance(sp)
    sp.add_argument("--max-exponent", required=True, metavar="B")
    sp.add_argument("--format", choices=("json-lines", "tsv"), default="json-lines")
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("verify", help="check one (x, y, z) candidate")
    _add_instance(sp)
    _add_triple(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("trace", help="explain a candidate's verdict case by case")
    _add_instance(sp)
    _add_triple(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("search", help="brute-force a bounded exponent box")
    _add_instance(sp)
    sp.add_argument("--x-max", required=True, metavar="XMAX")
    sp.add_argument("--y-max", required=True, metavar="YMAX")
    sp.add_argument("--workers", type=int, default=None, metavar="W")
    _add_common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser(
        "crosscheck", help="certify search and families agree on a box"
    )
    sp.add_argument("--p", default=DEFAULT_CROSSCHECK_PRIMES, metavar="P[,P...]")
    sp.add_argument("--n", default=DEFAULT_CROSSCHECK_NS, metavar="N[,N...]")
    sp.add_argument("--x-max", default=DEFAULT_CROSSCHECK_BOUND, metavar="XMAX")
    sp.add_argument("--y-max", default=DEFAULT_CROSSCHECK_BOUND, metavar="YMAX")
    sp.add_argument("--workers", type=int, default=None, metavar="W")
    _add_common(sp)
    sp.set_defaults(func=cmd_crosscheck)

    sp = sub.add_parser("summary", help="print the solvable/unsolvable regime table")
    _add_common(sp)
    sp.set_defaults(func=cmd_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Python 3.10.0-3.10.6 have no int<->str limit to lift or restore.
    str_limit = (
        sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    )
    try:
        cap = DigitCap(args.digit_cap)
        if str_limit is not None:
            _allow_large_int_strings(cap.digits, str_limit)
        return args.func(args, cap)
    except (_InputError, DigitCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalInconsistencyError, ValueError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    finally:
        if str_limit is not None:
            sys.set_int_max_str_digits(str_limit)


if __name__ == "__main__":
    sys.exit(main())
