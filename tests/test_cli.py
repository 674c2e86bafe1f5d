"""Tests for the command-line surface: records, formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pxpy.cli as cli
import pxpy.oracle
from pxpy.classifier import EquationInstance, classify
from pxpy.cli import main
from pxpy import InternalInconsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def decimal(value):
    """str(value) with the interpreter's int-to-str limit lifted, then restored."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(previous)


class TestClassify:
    def test_three_families_for_p2(self, capsys):
        code, out, err = run(capsys, "classify", "--p", "2", "--n", "1")
        assert code == 0 and err == ""
        (record,) = records(out)
        assert record["schema_version"] == "1"
        assert record["command"] == "classify"
        assert record["instance"] == {"p": "2", "n": "1"}
        assert record["payload"]["no_solutions"] is False
        assert len(record["payload"]["families"]) == 3

    def test_no_solutions_for_p11(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "11", "--n", "1")
        assert code == 0
        (record,) = records(out)
        assert record["payload"] == {"no_solutions": True, "families": []}

    def test_composite_p_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", "--p", "6", "--n", "1")
        assert code == 2
        assert out == ""
        assert "prime" in err

    def test_n_zero_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "2", "--n", "0")
        assert code == 2
        assert "n must be >= 1" in err

    def test_garbage_number_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "2x", "--n", "1")
        assert code == 2
        assert "decimal" in err


class TestEnumerate:
    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--n", "1",
                           "--max-exponent", "5")
        assert code == 0
        recs = records(out)
        triples = [(r["payload"]["x"], r["payload"]["y"], r["payload"]["z"]) for r in recs]
        assert triples == [
            ("0", "1", "2"),
            ("1", "0", "2"),
            ("2", "3", "6"),
            ("3", "2", "6"),
            ("4", "5", "18"),
            ("5", "4", "18"),
        ]
        assert all(r["schema_version"] == "1" for r in recs)

    def test_empty_stream_for_p5(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "5", "--n", "1",
                           "--max-exponent", "50")
        assert code == 0
        assert out == ""

    def test_ngt1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--n", "2",
                           "--max-exponent", "7")
        assert code == 0
        triples = [(r["payload"]["x"], r["payload"]["y"], r["payload"]["z"])
                   for r in records(out)]
        assert triples == [("3", "3", "2"), ("7", "7", "4")]

    def test_tsv_has_fixed_header(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--n", "1",
                           "--max-exponent", "3", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x\ty\tz"
        assert lines[1:] == ["0\t3\t3", "1\t1\t2", "3\t0\t3", "3\t3\t4"]


class TestVerify:
    def test_certified_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "2", "--n", "1",
                           "-x", "3", "-y", "0", "-z", "3")
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["certified"] is True

    def test_negative_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "2", "--n", "1",
                           "-x", "0", "-y", "0", "-z", "1")
        assert code == 1
        (record,) = records(out)
        assert record["payload"]["certified"] is False

    def test_invalid_p_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--p", "9", "--n", "1",
                           "-x", "1", "-y", "1", "-z", "3")
        assert code == 2 and "prime" in err

    def test_huge_values_survive_round_trip(self, capsys):
        # z = 2^41 for (x, y) = (81, 81): decimal strings keep it exact.
        z = str(2**41)
        code, out, _ = run(capsys, "verify", "--p", "2", "--n", "1",
                           "-x", "81", "-y", "81", "-z", z)
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["z"] == z


class TestTrace:
    def test_accepted_case_2_2(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "1",
                           "-x", "0", "-y", "3", "-z", "3")
        assert code == 0
        (record,) = records(out)
        payload = record["payload"]
        assert payload["case"] == "Case 2.2"
        assert payload["e"] == "0" and payload["k"] == "3"
        assert payload["w"] is None
        assert payload["verdict"] == "accepted" and payload["reason"] is None
        assert payload["reason_code"] is None

    def test_rejected_case_2_4_exits_1(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "3", "--n", "1",
                           "-x", "3", "-y", "5", "-z", "12")
        assert code == 1
        (record,) = records(out)
        assert record["payload"]["case"] == "Case 2.4"
        assert record["payload"]["verdict"] == "rejected"
        assert record["payload"]["reason_code"] == "mihailescu_3"
        assert record["payload"]["reason"] == (
            "k^2 - 3^d = 1 with d = 2 > 1 has no solution by Mihailescu's theorem"
        )

    def test_case_1_accept(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "1",
                           "-x", "1", "-y", "1", "-z", "2")
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["case"] == "Case 1"
        assert record["payload"]["verdict"] == "accepted"

    @pytest.mark.parametrize("p, n, x, y, z", [
        (2, 1, 320003, 320000, 3 * 2**160000),
        (3, 1, 200000, 200001, 2 * 3**100000),
        (2, 3, 329999, 329999, 2**55000),
    ], ids=["p2", "p3", "p2-n3"])
    def test_family_member_at_the_digit_cap_is_fast(self, capsys, p, n, x, y, z):
        # Every input under the default digit cap returns in bounded time:
        # z has about 48k digits (17k for n = 3, where z^6 has 99k and the
        # printed w = z^3 has 50k), and v_p(z) is e = 160000, 100000 or 55000.
        argv = ["trace", "--p", str(p), "--n", str(n),
                "-x", str(x), "-y", str(y), "-z", decimal(z)]
        started = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        elapsed = time.perf_counter() - started
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["verdict"] == "accepted"
        assert record["payload"]["w"] == (decimal(z**n) if n > 1 else None)
        assert elapsed < 1.5

    def test_ngt1_outside_the_bit_length_window_reports_no_w(self, capsys):
        # w = z^n would be 2^(10^10); the trace rejects without forming it.
        started = time.perf_counter()
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "10000000000",
                           "-x", "0", "-y", "0", "-z", "2", "--digit-cap", "0")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        (record,) = records(out)
        assert record["payload"]["case"] == "n>1 Case 1"
        assert record["payload"]["w"] is None
        assert record["payload"]["verdict"] == "rejected"
        assert '"w": null' in out

    def test_ngt1_trace_reports_w(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "2",
                           "-x", "3", "-y", "3", "-z", "2")
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["case"] == "n>1 Case 1.2"
        assert record["payload"]["w"] == "4"

    def test_ngt1_rejection_reports_no_w(self, capsys):
        # A rejection never forms w = z^n; "w" was already nullable in
        # schema "1", and the reason still names w.
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "2",
                           "-x", "1", "-y", "1", "-z", "2")
        assert code == 1
        (record,) = records(out)
        assert record["schema_version"] == "1"
        assert record["payload"]["w"] is None and '"w": null' in out
        assert record["payload"]["reason_code"] == "ngt1_square"
        assert record["payload"]["reason"] == (
            "(x, y, w) with w = z^2 must solve the square equation, "
            "which rejects it at Case 1: x = y = 1 forces w = 2^1; got another w"
        )


class TestSearch:
    def test_box_report(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "2", "--n", "1",
                           "--x-max", "6", "--y-max", "6")
        assert code == 0
        (record,) = records(out)
        payload = record["payload"]
        assert set(payload) == {"box", "solutions", "pairs_checked", "elapsed_ms"}
        assert payload["pairs_checked"] == "49"
        assert [(s["x"], s["y"], s["z"]) for s in payload["solutions"]] == [
            ("0", "3", "3"), ("1", "1", "2"), ("2", "5", "6"), ("3", "0", "3"),
            ("3", "3", "4"), ("5", "2", "6"), ("5", "5", "8"),
        ]
        assert isinstance(payload["elapsed_ms"], float)

    def test_root_degree_past_the_sum_is_fast(self, capsys, monkeypatch):
        # The digit cap does not bound n. 2^39 + 2^39 = 2^40 survives the
        # sieve and goes to a root of degree 2 * 10^10.
        degrees = []
        integer_root = pxpy.oracle.integer_root

        def counting_root(m, k):
            degrees.append(k)
            return integer_root(m, k)

        monkeypatch.setattr(pxpy.oracle, "integer_root", counting_root)
        started = time.perf_counter()
        code, out, _ = run(capsys, "search", "--p", "2", "--n", "10000000000",
                           "--x-max", "40", "--y-max", "40")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["solutions"] == []
        assert 2 * 10**10 in degrees


class TestCrosscheck:
    def test_defaults_exit_0(self, capsys):
        code, out, _ = run(capsys, "crosscheck")
        assert code == 0
        (record,) = records(out)
        payload = record["payload"]
        assert payload["all_consistent"] is True
        assert len(payload["results"]) == 18  # 6 primes x 3 exponents
        assert {r["verdict"] for r in payload["results"]} == {"CONSISTENT"}

    def test_explicit_lists(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--p", "2,3", "--n", "1",
                           "--x-max", "8", "--y-max", "8")
        assert code == 0
        (record,) = records(out)
        assert len(record["payload"]["results"]) == 2

    def test_composite_in_list_exits_2(self, capsys):
        code, _, err = run(capsys, "crosscheck", "--p", "2,4", "--n", "1")
        assert code == 2 and "prime" in err

    def test_whole_list_checked_before_any_scan(self, capsys, monkeypatch):
        calls = []
        original = cli.cross_check

        def counting(instance, box):
            calls.append(instance)
            return original(instance, box)

        monkeypatch.setattr(cli, "cross_check", counting)
        code, out, err = run(capsys, "crosscheck", "--p", "2,3,4", "--n", "1,2",
                             "--x-max", "3000", "--y-max", "3000")
        assert code == 2 and out == "" and "prime" in err
        assert calls == []


class TestSummary:
    def test_regime_table(self, capsys):
        code, out, _ = run(capsys, "summary")
        assert code == 0
        (record,) = records(out)
        assert record["instance"] is None
        assert record["payload"] == {
            "equation": "p^x + p^y = z^(2n)",
            "regimes": [
                {"n": "1", "p": "2", "solvable": True, "families": [
                    "x=2s+3, y=2s, z=3*2^s, s>=0",
                    "x=2s, y=2s+3, z=3*2^s, s>=0",
                    "x=2s+1, y=2s+1, z=2^(s+1), s>=0",
                ]},
                {"n": "1", "p": "3", "solvable": True, "families": [
                    "x=2s+1, y=2s, z=2*3^s, s>=0",
                    "x=2s, y=2s+1, z=2*3^s, s>=0",
                ]},
                {"n": "1", "p": "p>3", "solvable": False, "families": []},
                {"n": "n>1", "p": "2", "solvable": True, "families": [
                    "x=2s+1, y=2s+1, z=2^((s+1)/n), s>=0, s = n-1 (mod n)",
                ]},
                {"n": "n>1", "p": "p>=3", "solvable": False, "families": []},
            ],
        }

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symbolic_family_matches_classify(self, n):
        # summary states the n>1, p=2 family with a symbolic n; put each n
        # back in and it must read as classify renders that instance.
        text = (
            cli._SYMBOLIC_N_FAMILY.replace("/n)", f"/{n})")
            .replace("n-1", str(n - 1))
            .replace("(mod n)", f"(mod {n})")
        )
        (family,) = classify(EquationInstance(2, n))
        assert text == str(family)


class TestProtocol:
    @pytest.mark.parametrize("argv", [
        ("classify", "--p", "2", "--n", "1"),
        ("enumerate", "--p", "2", "--n", "1", "--max-exponent", "3"),
        ("verify", "--p", "2", "--n", "1", "-x", "3", "-y", "0", "-z", "3"),
        ("trace", "--p", "2", "--n", "1", "-x", "3", "-y", "0", "-z", "3"),
        ("search", "--p", "2", "--n", "1", "--x-max", "3", "--y-max", "3"),
        ("crosscheck", "--p", "2", "--n", "1", "--x-max", "3", "--y-max", "3"),
        ("summary",),
    ])
    def test_record_envelope(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        recs = records(out)
        assert recs
        for record in recs:
            assert set(record) == {"schema_version", "command", "instance", "payload"}
            assert record["schema_version"] == "1"
            assert record["command"] == argv[0]

    def test_schema_version_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "2", "--n", "1", "--schema-version", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_round_trip_enumerate_to_verify(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--n", "1",
                           "--max-exponent", "10")
        assert code == 0
        lines = records(out)
        assert lines
        for record in lines:
            payload = record["payload"]
            rc, _, _ = run(capsys, "verify", "--p", "2", "--n", "1",
                           "-x", payload["x"], "-y", payload["y"], "-z", payload["z"])
            assert rc == 0

    def test_digit_cap_blocks_oversized_power(self, capsys):
        code, out, err = run(capsys, "verify", "--p", "2", "--n", "1",
                             "-x", "10000000", "-y", "0", "-z", "3",
                             "--digit-cap", "1000")
        assert code == 2
        assert out == ""
        assert "digit" in err

    def test_digit_cap_blocks_oversized_literal(self, capsys):
        big = "9" * 2001
        code, _, err = run(capsys, "verify", "--p", "2", "--n", "1",
                           "-x", big, "-y", "0", "-z", "3", "--digit-cap", "2000")
        assert code == 2 and "digit" in err

    def test_digit_cap_zero_disables(self, capsys):
        # 2^69999 + 2^69999 = 2^70000 = (2^35000)^2; z has about 10.5k digits,
        # past the interpreter's default int-to-str limit.
        code, _, _ = run(capsys, "verify", "--p", "2", "--n", "1",
                         "-x", "69999", "-y", "69999", "-z", decimal(2**35000),
                         "--digit-cap", "0")
        assert code == 0

    @pytest.mark.parametrize(
        "argv, expected",
        [pytest.param(("summary", "--digit-cap", cap), 0, id=cap)
         for cap in ("0", "5000", "100000", "536870912", str(10**30))]
        + [
            pytest.param(("verify", "--p", "2", "--n", "1", "-x", "3", "-y", "0", "-z", "4"),
                         1, id="exit1"),
            pytest.param(("verify", "--p", "2", "--n", "1", "-x", "10000", "-y", "0", "-z", "3",
                          "--digit-cap", "1000"), 2, id="exit2"),
            pytest.param(("verify", "--p", "2", "--n", "1", "-x", "3", "-y", "0", "-z", "3"),
                         3, id="exit3"),
        ],
    )
    def test_int_str_limit_restored(self, capsys, monkeypatch, argv, expected):
        # main lifts the limit once --digit-cap is parsed; every exit taken
        # after that lift, exit 3 from a library ValueError included, hands
        # the caller's limit back.
        def broken(instance, triple):
            raise ValueError("forced for testing")

        if expected == 3:
            monkeypatch.setattr(cli, "verify", broken)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, _, _ = run(capsys, *argv)
            assert code == expected
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (("--p", "2", "--n", "1", "-x", "3321", "-y", "0", "-z", "3"), False),
            (("--p", "2", "--n", "1", "-x", "3322", "-y", "0", "-z", "3"), True),
            (("--p", "2", "--n", "1660", "-x", "0", "-y", "0", "-z", "3"), False),
            (("--p", "2", "--n", "1661", "-x", "0", "-y", "0", "-z", "3"), True),
        ],
        ids=["2^3321", "2^3322", "3^3320", "3^3322"],
    )
    def test_digit_cap_power_boundary(self, capsys, argv, refused):
        # At cap 1000 the power check trips iff exponent*(bits(base)-1) >=
        # 1000*log2(10) = 3321.9...: 2^3322 is refused, and 3^3320, with
        # 1585 digits, is let through, as the check is conservative.
        code, out, err = run(capsys, "verify", *argv, "--digit-cap", "1000")
        if refused:
            assert code == 2 and out == ""
            assert "would exceed the 1000-digit cap" in err
        else:
            assert code == 1 and err == ""
            assert records(out)[0]["payload"]["certified"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--p", "2", "--n", "1", "--y-max", "4", "--x-max", "1_0"),
            ("search", "--p", "2", "--n", "1", "--y-max", "4", "--x-max", "+2"),
            ("crosscheck", "--y-max", "\u0661"),
            ("summary", "--digit-cap", "\u0661\u0660"),
            ("summary", "--digit-cap", "1_000"),
            ("classify", "--n", "1", "--p", "\u0663"),
            ("enumerate", "--p", "2", "--n", "1", "--max-exponent", "1_0"),
            ("trace", "--p", "2", "--n", "1", "-x", "1", "-y", "1", "-z", "+2"),
            ("verify", "--p", "2", "--n", "1", "-z", "2", "-x", "1", "-y", " 1.0"),
            ("crosscheck", "--p", ","),
            ("crosscheck", "--n", " , "),
        ],
    )
    def test_option_numbers_are_ascii_decimal(self, capsys, argv):
        # Every number option goes through one parser, so int()'s extra
        # spellings are bad input, as is a list option naming no number, and
        # the error names the option as it is spelled on the command line.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and argv[-2] in err

    def test_digit_cap_past_the_int_str_limit_exits_2(self, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "summary", "--digit-cap", "9" * 5000)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "--digit-cap" in err
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    def test_internal_inconsistency_exits_3(self, capsys, monkeypatch):
        def broken(instance, box):
            raise InternalInconsistencyError("forced for testing")

        monkeypatch.setattr(cli, "brute_force", broken)
        code, _, err = run(capsys, "search", "--p", "2", "--n", "1",
                           "--x-max", "3", "--y-max", "3")
        assert code == 3
        assert "inconsistency" in err

    def test_library_value_error_exits_3(self, capsys, monkeypatch):
        def broken(instance, triple):
            raise ValueError("forced for testing")

        monkeypatch.setattr(cli, "verify", broken)
        code, out, err = run(capsys, "verify", "--p", "2", "--n", "1",
                             "-x", "3", "-y", "0", "-z", "3")
        assert code == 3 and out == ""
        assert "forced for testing" in err

    @pytest.mark.parametrize("error", [TypeError, AttributeError, ZeroDivisionError])
    @pytest.mark.parametrize("target, argv", [
        ("verify", ("verify", "--p", "2", "--n", "1", "-x", "3", "-y", "0", "-z", "3")),
        ("brute_force", ("search", "--p", "2", "--n", "1", "--x-max", "3", "--y-max", "3")),
        ("classify", ("classify", "--p", "2", "--n", "1")),
    ], ids=["verify", "brute_force", "classify"])
    def test_any_library_exception_exits_3(self, capsys, monkeypatch, error, target, argv):
        # Not exit 1, which a traceback would give and which means a
        # well-formed negative result.
        def broken(*args):
            raise error("forced for testing")

        monkeypatch.setattr(cli, target, broken)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("internal error:") and error.__name__ in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), an argparse exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_outcome(capsys, monkeypatch, argv):
    """outcome() with main reading argv through a parser built for this call."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return outcome(capsys, argv)


_TRIPLE = ("--p", "3", "--n", "1", "-x", "3", "-y", "2", "-z", "6")
_PAST_THE_CAP = ("--p", "2", "--n", "1", "-x", "400000", "-y", "0", "-z", "1")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("sequence", [
        [("crosscheck", "--p", "2,5", "--n", "2", "--x-max", "9", "--y-max", "4"),
         ("crosscheck",)],
        [("verify", *_PAST_THE_CAP, "--digit-cap", "0"), ("verify", *_PAST_THE_CAP)],
        [("frobnicate",), ("classify", "--p", "2", "--n", "1")],
        [("trace", *_TRIPLE), ("verify", *_TRIPLE)],
    ], ids=["crosscheck-defaults", "digit-cap", "argparse-error", "trace-verify"])
    def test_commands_leave_no_state_behind(self, capsys, monkeypatch, sequence):
        # Each command on the reused parser answers as on a fresh one: no
        # option value, default or error carries over to the next command.
        reused = [outcome(capsys, argv) for argv in sequence]
        assert reused == [fresh_outcome(capsys, monkeypatch, argv) for argv in sequence]
        assert len(set(reused)) == len(reused)

    @pytest.mark.parametrize("command", [
        None, "classify", "enumerate", "verify", "trace", "search", "crosscheck", "summary",
    ])
    def test_help_follows_the_terminal_width_of_each_call(self, capsys, monkeypatch, command):
        argv = ("--help",) if command is None else (command, "--help")
        helps = []
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            first, second = outcome(capsys, argv), outcome(capsys, argv)
            assert first == second == fresh_outcome(capsys, monkeypatch, argv)
            assert first[0] == 0 and first[2] == ""
            helps.append(first[1])
        assert helps[0] != helps[1]


_COMMANDS = ("classify", "enumerate", "verify", "trace", "search", "crosscheck", "summary")

# argv that argparse itself answers, with help (exit 0) or an error (exit 2).
_ARGPARSE_EXITS = [
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    ("frobnicate",),
    ("Classify",),
    ("classify", "--p", "2"),
    ("classify", "-h"),
    ("enumerate", "-h", "--p", "2"),
    ("enumerate", "--p", "2", "--n", "1", "--max-exponent", "6", "--format", "xml"),
    ("classify", "--", "--p", "2"),
    ("--digit-cap", "5", "classify", "--p", "2", "--n", "1"),
    ("classify", "--p", "2", "--n", "1", "extra"),
    ("trace", *_TRIPLE, "-q"),
    ("summary", "x"),
    ("summary", "--digit-cap"),
]

# argv that argparse accepts, spelled as a command line may spell them.
_WELL_FORMED = [
    ("classify", "--p=2", "--n=1"),
    ("classify", "--p", "2", "--n", "1", "--p", "3"),
    ("enumerate", "--p", "2", "--n", "1", "--max-e", "6"),
    ("verify", "--p", "3", "--n", "1", "-x3", "-y2", "-z6"),
    ("trace", *_TRIPLE),
    ("search", "--p", "2", "--n", "1", "--x", "4", "--y-max", "4"),
    ("crosscheck",),
    ("crosscheck", "--x-max", "4", "--y-max", "4", "--p", "2,3"),
    ("summary", "--digit-cap=0"),
]


class TestArgvRouting:
    """main parses a named command with its own parser, and answers as the whole parser would."""

    @pytest.mark.parametrize("argv", _ARGPARSE_EXITS, ids=" ".join)
    def test_argparse_exits_as_the_whole_parser_does(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        captured = capsys.readouterr()
        assert outcome(capsys, argv) == (exc.value.code, captured.out, captured.err)

    @pytest.mark.parametrize("argv", _WELL_FORMED, ids=" ".join)
    def test_handler_gets_what_the_whole_parser_gives(self, monkeypatch, argv):
        handled = []
        for name in _COMMANDS:
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args, cap: handled.append(vars(args)))
        parser = cli.build_parser.__wrapped__()  # holds the recording handlers
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        main(list(argv))
        whole = vars(parser.parse_args(list(argv)))
        assert whole.pop("command") == argv[0]
        (args,) = handled
        args.pop("command", None)  # nothing reads it, so main may leave it out
        assert args == whole

    def test_a_named_command_skips_the_top_level_parse(self, capsys, monkeypatch):
        parser = cli.build_parser.__wrapped__()
        calls = []

        def spy(method):
            def called(*args, **kwargs):
                calls.append(method.__name__)
                return method(*args, **kwargs)
            return called

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(parser, name, spy(getattr(parser, name)))
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        for argv in _WELL_FORMED:
            assert outcome(capsys, argv)[0] == 0, argv
        assert calls == []
        # Arguments left over go to the whole parser, which reports them.
        assert outcome(capsys, ("summary", "x"))[0] == 2
        assert "parse_args" in calls


def test_closed_pipe_exits_141():
    # The reader leaves after one line, as `pxpy enumerate ... | head -1`
    # does: no traceback, and the exit status a shell gives for SIGPIPE.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
        [sys.executable, "-m", "pxpy.cli", "enumerate", "--p", "2", "--n", "1",
         "--max-exponent", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
