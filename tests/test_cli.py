"""Tests for the command-line surface: records, formats, exit codes."""

import json
import sys

import pytest

import pxpy.cli as cli
from pxpy.cli import main
from pxpy.errors import InternalInconsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


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

    def test_rejected_case_2_4_exits_1(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "3", "--n", "1",
                           "-x", "3", "-y", "5", "-z", "12")
        assert code == 1
        (record,) = records(out)
        assert record["payload"]["case"] == "Case 2.4"
        assert record["payload"]["verdict"] == "rejected"
        assert record["payload"]["reason"]

    def test_case_1_accept(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "1",
                           "-x", "1", "-y", "1", "-z", "2")
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["case"] == "Case 1"
        assert record["payload"]["verdict"] == "accepted"

    def test_ngt1_trace_reports_w(self, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--n", "2",
                           "-x", "3", "-y", "3", "-z", "2")
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["case"] == "n>1 Case 1.2"
        assert record["payload"]["w"] == "4"


class TestSearch:
    def test_box_report(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "2", "--n", "1",
                           "--x-max", "6", "--y-max", "6", "--workers", "1")
        assert code == 0
        (record,) = records(out)
        payload = record["payload"]
        assert payload["pairs_checked"] == "49"
        assert [(s["x"], s["y"], s["z"]) for s in payload["solutions"]] == [
            ("0", "3", "3"), ("1", "1", "2"), ("2", "5", "6"), ("3", "0", "3"),
            ("3", "3", "4"), ("5", "2", "6"), ("5", "5", "8"),
        ]
        assert isinstance(payload["elapsed_ms"], float)

    def test_reports_workers_that_ran(self, capsys):
        # A box this small runs inline whatever --workers asks for.
        code, out, _ = run(capsys, "search", "--p", "2", "--n", "1",
                           "--x-max", "5", "--y-max", "5", "--workers", "8")
        assert code == 0
        (record,) = records(out)
        assert record["payload"]["workers"] == "1"

    def test_bad_workers_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--p", "2", "--n", "1",
                           "--x-max", "4", "--y-max", "4", "--workers", "0")
        assert code == 2 and "--workers" in err


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

        def counting(instance, box, workers=1):
            calls.append(instance)
            return original(instance, box, workers)

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
        # past the interpreter's default int-to-str limit, so lift it here.
        previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if previous is not None:
            sys.set_int_max_str_digits(0)
        try:
            z = str(2**35000)
        finally:
            if previous is not None:
                sys.set_int_max_str_digits(previous)
        code, _, _ = run(capsys, "verify", "--p", "2", "--n", "1",
                         "-x", "69999", "-y", "69999", "-z", z,
                         "--digit-cap", "0")
        assert code == 0

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this interpreter has no int-to-str digit limit",
    )
    @pytest.mark.parametrize("cap", ["0", "5000", "100000"])
    def test_int_str_limit_restored(self, capsys, cap):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, _, _ = run(capsys, "summary", "--digit-cap", cap)
            assert code == 0
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    def test_internal_inconsistency_exits_3(self, capsys, monkeypatch):
        def broken(instance, box, workers=1):
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

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
