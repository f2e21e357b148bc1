import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from thetaforms.cli import Config, build_parser, main

# sifts whose bodies would need about 2^49 and 10^10 times the terms asked for
HUGE_SIFTS = ("S[2,1](" * 49 + "phi(q)" + ")" * 49,
              "S[100000,1](S[100000,1](phi(q)))")
# a count that fits an index, but no list of that length can be allocated;
# Python refuses it before allocating anything (10^19 overflows instead)
TOO_LARGE = str(2 * 10 ** 18)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, line, *argv):
    """Run argv and check its refusal: exit 2, no output and `line` alone
    on stderr, so no traceback."""
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


class TestRepcount:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "repcount", "--form", "1,8,8,0,0,0",
                               "--m", "9")
        assert code == 0
        assert out.strip() == "10"

    def test_bad_form_is_usage_error(self, capsys):
        for form, reason in (
                ("1,2,3", "expected 6 comma-separated entries, got 3"),
                ("1,1,1,0,0,x", "invalid literal for int() with base 10: 'x'")):
            refused(capsys, f"bad form literal: {reason}",
                    "repcount", "--form", form, "--m", "5")


class TestExpand:
    def test_named_function(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--func", "phi(q)", "--n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split() == ["0", "1"]
        assert lines[2].split() == ["1", "2"]

    def test_expression(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--func",
                               "psi(q)*(phi(q)^2 - phi(q^7)^2)", "--n", "4")
        assert code == 0

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--func", "bogus(q)")
        assert code == 2

    def test_empty_expression_is_usage_error(self, capsys):
        for func in ("", "   ", "$"):
            code, out, err = run_cli(capsys, "expand", "--func", func)
            assert code == 2
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert err.startswith(f"cannot expand {func!r}: line 1, col 1: ")

    def test_deep_nesting_is_usage_error(self, capsys):
        func = "(" * 3000 + "phi(q)" + ")" * 3000
        code, out, err = run_cli(capsys, "expand", "--func", func)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "line 1, col 101: expression nested deeper than 100" in err

    def test_oversized_sift_is_usage_error(self, capsys):
        for func in HUGE_SIFTS:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "expand", "--func", func)
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert err.startswith(f"cannot expand {func!r}: S[")
            assert err.endswith("coefficients, more than 10000000\n")

    def test_division_by_non_unit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--func", "phi(q)/2")
        assert code == 2
        assert out == ""
        assert err == ("cannot expand 'phi(q)/2': constant term 2 is not a "
                       "unit over the integers\n")

    def test_integer_factors_fold(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--func=-3*q^2*psi(q)*2",
                               "--n", "5")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert rows == [["0", "0"], ["1", "0"], ["2", "-6"], ["3", "-6"],
                        ["4", "0"]]

    def test_trailing_tokens_are_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--func", "phi(q) phi(q)")
        assert code == 2
        assert out == ""
        assert err == ("cannot expand 'phi(q) phi(q)': line 1, col 8: "
                       "trailing tokens (at 'phi')\n")

    def test_count_below_one_is_usage_error(self, capsys):
        for n in ("0", "-3"):
            code, out, err = run_cli(capsys, "expand", "--func", "phi(q)",
                                     "--n", n)
            assert code == 2
            assert out == ""
            assert err == f"n must be positive, got {n}\n"

    def test_count_past_any_list_is_usage_error(self, capsys):
        # 10^19 coefficients overflow a list length before any is made
        code, out, err = run_cli(capsys, "expand", "--func", "phi(q)",
                                 "--n", str(10 ** 19))
        assert code == 2
        assert out == ""
        assert err.startswith("cannot expand 'phi(q)': ")
        assert err.count("\n") == 1
        # MemoryError has no text, so the line names its type
        refused(capsys, "cannot expand 'phi(q)': MemoryError",
                "expand", "--func", "phi(q)", "--n", TOO_LARGE)


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "2.18",
                               "--mmax", "500")
        assert code == 0
        assert "pass" in out

    def test_unknown_id(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--id", "9.99")
        assert (code, out, err) == (2, "", "unknown identity '9.99'\n")

    def test_negative_mmax_is_usage_error(self, capsys):
        for command in (("verify", "--id", "2.18"), ("suite",)):
            for value in ("-5", "0"):
                refused(capsys, f"mmax must be positive, got {value}",
                        *command, "--mmax", value)

    def test_zero_terms_is_usage_error(self, capsys):
        for command in (("verify", "--id", "1.11"), ("suite",)):
            for value in ("0", "-3"):
                refused(capsys, f"terms must be positive, got {value}",
                        *command, "--terms", value)

    def test_failing_entry_exit_one(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text(
            "wrong: series: phi(q) = psi(q)\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--registry", str(registry),
                               "verify", "--id", "wrong", "--terms", "10")
        assert code == 1
        assert "FAIL" in out

    def test_registry_parse_error_exit_two(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("broken entry without mode\n", encoding="utf-8")
        for argv in (("verify", "--id", "x"), ("prove-eta", "--id", "x"),
                     ("suite",)):
            refused(capsys, "registry parse error: line 1, col 1: entry must "
                    "start with 'name: mode:'", "--registry", str(registry),
                    *argv)

    def test_zero_exponent_denominator_exit_two(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("x: modeq3: m = alpha^(1/0)\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "--registry", str(registry), "suite")
        assert code == 2
        assert out == ""
        assert err == ("registry parse error: line 1, col 25: "
                       "exponent denominator must be nonzero\n")

    def test_long_integer_literal_exit_two(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text(f"a: series: {'1' * 5000} = 1\n",
                            encoding="utf-8")
        code, out, err = run_cli(capsys, "--registry", str(registry), "suite")
        assert code == 2
        assert out == ""
        assert err == ("registry parse error: line 1, col 12: integer "
                       f"literal longer than {sys.get_int_max_str_digits()} "
                       "digits\n")


class TestEntryEvaluationErrors:
    """An entry whose evaluation raises is a usage error of one line."""

    BAD = ("x: series: eta{1:-24} = 1\n", "x: series: phi(q)/2 = 1\n")

    def check(self, capsys, tmp_path, text, *argv):
        registry = tmp_path / "reg.txt"
        registry.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "--registry", str(registry), *argv)
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("cannot evaluate x: ")
        assert "Traceback" not in err
        return err

    def test_verify(self, capsys, tmp_path):
        for text in self.BAD:
            self.check(capsys, tmp_path, text, "verify", "--id", "x",
                       "--terms", "20")

    def test_suite(self, capsys, tmp_path):
        for text in self.BAD:
            self.check(capsys, tmp_path,
                       "a: series: phi(q) = phi(q^4) + 2*q*psi(q^8)\n" + text,
                       "suite", "--terms", "20")

    def test_oversized_sift(self, capsys, tmp_path):
        for func in HUGE_SIFTS:
            for argv in (("verify", "--id", "x"), ("suite",)):
                start = time.perf_counter()
                self.check(capsys, tmp_path, f"x: sift: {func} = 0\n", *argv)
                assert time.perf_counter() - start < 1.0

    def test_eta_entry_failing_newman(self, capsys, tmp_path):
        text = "x: eta: eta{1:24} = 1 where level 1\n"
        for command in ("verify", "prove-eta"):
            err = self.check(capsys, tmp_path, text, command, "--id", "x")
            assert err.endswith(
                "fails the modular-function check: weight_sum_zero\n"), err

    def test_request_too_large_to_allocate(self, capsys):
        # MemoryError has no text, so the line names its type
        for name, flag in (("2.4", "--terms"), ("2.18", "--mmax")):
            refused(capsys, f"cannot evaluate {name}: MemoryError",
                    "verify", "--id", name, flag, TOO_LARGE)
        refused(capsys, "cannot evaluate 1.10: MemoryError",
                "suite", "--terms", TOO_LARGE)

    def test_modeq3_root_off_the_parametrization(self, capsys, tmp_path):
        self.check(capsys, tmp_path, "x: modeq3: m = alpha^(1/8)\n",
                   "verify", "--id", "x")

    def test_modeq3_expansion_past_the_bound(self, capsys, tmp_path):
        side = "*".join(["(m+1)"] * 30)
        start = time.perf_counter()
        err = self.check(capsys, tmp_path, f"x: modeq3: {side} = 1\n",
                         "verify", "--id", "x")
        assert time.perf_counter() - start < 1.0
        assert err == "cannot evaluate x: expansion exceeds 1024 monomials\n"

    def test_modeq3_exponent_past_the_bound(self, capsys, tmp_path):
        start = time.perf_counter()
        err = self.check(capsys, tmp_path, "x: modeq3: 2^999999999999 = 1\n",
                         "verify", "--id", "x")
        assert time.perf_counter() - start < 1.0
        assert err == ("cannot evaluate x: power of a coefficient may exceed "
                       "2^256\n")

    @pytest.mark.parametrize("side", [
        "2^999999999999", "phi(q)^999999999999", "(1+q)^999999999999",
        "((2^256)^256)^256"])
    def test_series_power_past_the_bound(self, capsys, tmp_path, side):
        start = time.perf_counter()
        err = self.check(capsys, tmp_path, f"x: series: {side} = 1\n",
                         "verify", "--id", "x")
        assert time.perf_counter() - start < 1.0
        assert err == ("cannot evaluate x: coefficients of a power may "
                       "exceed 2^256\n")

    def test_series_power_up_to_the_bound(self, capsys, tmp_path):
        registry = tmp_path / "reg.txt"
        # 2^256 is the largest power of 2 admitted, and -1 takes any power
        registry.write_text("x: series: 2^256 = (2^128)^2*(-1)^999999999999"
                            " + 2*2^256\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--registry", str(registry),
                               "verify", "--id", "x", "--terms", "20")
        assert code == 0, out

    @pytest.mark.parametrize("text", [
        "x: modeq3: 1/0 = 1\n", "x: modeq3: 0^-1 = 1\n",
        "x: eta: eta{2:1}/0 = 1 where level 2\n"],
        ids=["modeq3-quotient", "modeq3-power", "eta-quotient"])
    def test_zero_divisor_is_named(self, capsys, tmp_path, text):
        err = self.check(capsys, tmp_path, text, "verify", "--id", "x")
        assert err == "cannot evaluate x: division by zero\n"

    def test_weight_not_dividing_sixteen(self, capsys, tmp_path):
        # |Aut(1,1,1,0,0,0)| = 48: the weight 16/48 is no integer
        text = "x: ternary: W(1,1,1,0,0,0)(M) = 0\n"
        for argv in (("verify", "--id", "x"), ("suite",)):
            self.check(capsys, tmp_path, text, *argv, "--mmax", "20")

    def test_ternary_entry_with_no_qualifying_m(self, capsys, tmp_path):
        text = ("x: ternary: (1,1,1,0,0,0)(M) = (1,1,2,0,0,0)(M) "
                "where M = 1 mod 4, 2|M\n")
        for argv in (("verify", "--id", "x"), ("suite",)):
            self.check(capsys, tmp_path, text, *argv, "--mmax", "30")

    def test_unfixed_character(self, capsys, tmp_path):
        # 3 does not divide the discriminant 4 of the genus
        self.check(capsys, tmp_path,
                   "x: ternary: (1,1,1,0,0,0)(M) = "
                   "eps(1,1,1,0,0,0;3)*W(1,1,1,0,0,0)(M)\n",
                   "verify", "--id", "x", "--mmax", "20")


class TestPoleAtInfinity:
    """The evaluator and the prover refuse a pole in one message."""

    POLE = "quotient eta{1:24,2:-24} has a pole at infinity (offset -1)\n"

    def test_expand(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--func", "eta{1:24,2:-24}")
        assert (code, err) == (2, "cannot expand 'eta{1:24,2:-24}': "
                               + self.POLE)

    def test_verify(self, capsys, tmp_path):
        registry = tmp_path / "reg.txt"
        registry.write_text("p1: eta: eta{1:24,2:-24} = 0 where level 2\n",
                            encoding="utf-8")
        code, _, err = run_cli(capsys, "--registry", str(registry),
                               "verify", "--id", "p1")
        assert (code, err) == (2, "cannot evaluate p1: " + self.POLE)


def cli_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestClosedPipe:
    """A reader that stops early ends the output quietly; the exit code
    stays the command's verdict."""

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def run_closed(self, capsys, monkeypatch, *argv):
        monkeypatch.setattr(sys, "stdout", self.ClosedPipe())
        code = main(list(argv))
        monkeypatch.undo()
        return code, capsys.readouterr().err

    def test_pass_keeps_exit_zero(self, capsys, monkeypatch):
        code, err = self.run_closed(capsys, monkeypatch,
                                    "forms", "--disc", "144")
        assert (code, err) == (0, "")

    def test_failure_keeps_exit_one(self, capsys, monkeypatch, tmp_path):
        registry = tmp_path / "reg.txt"
        registry.write_text("wrong: series: phi(q) = psi(q)\n",
                            encoding="utf-8")
        code, err = self.run_closed(capsys, monkeypatch, "--registry",
                                    str(registry), "suite", "--terms", "10")
        assert (code, err) == (1, "")

    @pytest.mark.parametrize("argv", [
        ("prove-eta", "--id", "4.1"),
        ("sgenus", "--s", "15"),
        ("positivity", "--s", "3", "--limit", "300"),
    ])
    def test_printed_output_keeps_exit_zero(self, capsys, monkeypatch, argv):
        code, err = self.run_closed(capsys, monkeypatch, *argv)
        assert (code, err) == (0, "")

    def test_real_pipe_closed_early(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "thetaforms.cli", "expand",
             "--func", "phi(q)", "--n", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head[1].split() == [b"0", b"1"]
        assert err == b""

    def test_pipe_closed_before_the_run(self):
        # the whole output meets a closed pipe, so the write in main raises
        # BrokenPipeError, whatever the pipe's buffer size
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "thetaforms.cli", "sgenus",
                 "--s", "15"], stdout=write, stderr=subprocess.PIPE,
                env=cli_env(), timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestProveEta:
    def test_certificate_output(self, capsys):
        code, out, _ = run_cli(capsys, "prove-eta", "--id", "4.1")
        assert code == 0
        assert "level 84" in out
        assert "valence bound B = 17" in out
        assert "coefficients checked = 18" in out
        assert "verdict: proved" in out

    def test_wrong_mode(self, capsys):
        refused(capsys, "1.11 is not an eta entry", "prove-eta", "--id", "1.11")

    def test_unknown_id(self, capsys):
        code, out, err = run_cli(capsys, "prove-eta", "--id", "9.99")
        assert (code, out, err) == (2, "", "unknown identity '9.99'\n")


class TestFormsCommand:
    def test_lists_classes(self, capsys):
        code, out, _ = run_cli(capsys, "forms", "--disc", "144")
        assert code == 0
        assert "1,6,6,0,0,0" in out
        assert "2,3,6,0,0,0" in out

    def test_nonpositive_discriminant_is_usage_error(self, capsys):
        for disc in ("0", "-4"):
            refused(capsys, f"discriminant must be positive, got {disc}",
                    "forms", "--disc", disc)

    def test_genera_grouping(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv",
                               "forms", "--disc", "144", "--genera")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        assert header == ["genus", "form", "aut"]
        by_form = {row[1]: row for row in body}
        assert by_form["1,6,6,0,0,0"][2] == "16"
        assert by_form["2,3,6,0,0,0"][2] == "8"
        assert by_form["1,6,6,0,0,0"][0] != by_form["2,3,6,0,0,0"][0]


class TestSgenus:
    def test_fifteen(self, capsys):
        code, out, _ = run_cli(capsys, "sgenus", "--s", "15")
        assert code == 0
        assert "total mass 15 (predicted 15): ok" in out

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "sgenus", "--s", "15")
        assert code == 0
        lines = out.strip().splitlines()
        rows = list(csv.reader(io.StringIO("\n".join(lines[:-1]))))
        masses = [int(row[3]) for row in rows[1:]]
        formulas = [int(row[4]) for row in rows[1:]]
        assert sorted(masses) == [2, 3, 4, 6]
        assert masses == formulas
        # numeric fields round-trip exactly
        for row in rows[1:]:
            assert str(int(row[0])) == row[0]
            assert str(int(row[3])) == row[3]

    def test_bad_shift(self, capsys):
        for s in ("9", "2"):
            refused(capsys, "S must be odd, squarefree, and >= 3",
                    "sgenus", "--s", s)


class TestPositivity:
    def test_shift_three(self, capsys):
        code, out, _ = run_cli(capsys, "positivity", "--s", "3",
                               "--limit", "300")
        assert code == 0
        assert "nonnegative" in out

    def test_unsupported_shift(self, capsys):
        for s in ("9", "4"):
            refused(capsys, "supported shifts: 3, 5, 7, 15",
                    "positivity", "--s", s)

    def test_zero_limit_is_usage_error(self, capsys):
        for command in (("positivity", "--s", "7"), ("verify", "--id", "1.13"),
                        ("suite",)):
            for value in ("0", "-3"):
                refused(capsys, f"limit must be positive, got {value}",
                        *command, "--limit", value)

    def test_limit_past_any_list_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "positivity", "--s", "7",
                                 "--limit", str(10 ** 19))
        assert code == 2
        assert out == ""
        assert err.startswith(
            "cannot scan 'psi(q)*(phi(q)^2 - phi(q^7)^2)': ")
        assert err.count("\n") == 1
        refused(capsys, "cannot scan 'psi(q)*(phi(q)^2 - phi(q^7)^2)': "
                "MemoryError", "positivity", "--s", "7", "--limit", TOO_LARGE)


class TestSuiteAndConfig:
    def test_config_holds_only_the_run_defaults(self):
        assert vars(Config()) == {}
        assert (Config().terms, Config().mmax, Config().limit) == (
            500, 10000, 1000)
        # each command's count flags default to the same values
        for argv in (["suite"], ["verify", "--id", "2.4"]):
            args = build_parser().parse_args(argv)
            assert (args.terms, args.mmax, args.limit) == (500, 10000, 1000)
        assert build_parser().parse_args(
            ["positivity", "--s", "3"]).limit == 1000

    def test_small_suite_on_custom_registry(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text(
            "a: series: phi(q) = phi(q^4) + 2*q*psi(q^8)\n"
            "b: positivity: psi(q)\n",
            encoding="utf-8")
        code, out, _ = run_cli(capsys, "--registry", str(registry),
                               "suite", "--terms", "60", "--limit", "60")
        assert code == 0
        assert "2 passed / 0 failed / 2 total" in out

    def test_failing_suite_exit_code(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("wrong: series: phi(q) = psi(q)\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--registry", str(registry),
                               "suite", "--terms", "10")
        assert code == 1
        assert "0 passed / 1 failed / 1 total" in out

    def test_deeply_negated_entry_is_usage_error(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("a: series: phi(q) = phi(q)\n"
                            "b: series: " + "-" * 3000 + "phi(q) = 0\n",
                            encoding="utf-8")
        for command in ("suite", "verify"):
            argv = [command] + (["--id", "b"] if command == "verify" else [])
            code, out, err = run_cli(capsys, "--registry", str(registry), *argv)
            assert code == 2
            assert out == ""
            assert err == ("registry parse error: line 2, col 112: expression "
                           "nested deeper than 100 (at '-')\n")

    def test_zero_modulus_is_usage_error(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("a: series: phi(q) = phi(q)\n"
                            "b: ternary: (1,1,1,0,0,0)(M) = 0 where M = 1 mod 0\n",
                            encoding="utf-8")
        for argv in (("suite",), ("verify", "--id", "a")):
            code, out, err = run_cli(capsys, "--registry", str(registry), *argv)
            assert code == 2
            assert out == ""
            assert err == ("registry parse error: line 2, col 50: modulus "
                           "must be nonzero\n")

    def test_bad_count_argument_is_usage_error(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("a: series: phi(q) = phi(q)\n"
                            "b: ternary: SEW(3;5)(M) = 0\n", encoding="utf-8")
        for argv in (("suite",), ("verify", "--id", "b")):
            code, out, err = run_cli(capsys, "--registry", str(registry), *argv)
            assert code == 2
            assert out == ""
            assert err == ("registry parse error: line 2, col 19: SEW "
                           "character w must be a positive divisor of S\n")

    def test_missing_registry_is_usage_error(self, tmp_path, capsys):
        registry = tmp_path / "missing.txt"
        for argv in (("suite",), ("verify", "--id", "2.4"),
                     ("prove-eta", "--id", "4.1")):
            refused(capsys, f"registry file not found: {registry}",
                    "--registry", str(registry), *argv)

    def test_empty_registry_is_usage_error(self, tmp_path, capsys):
        # a suite that verifies no entry is no pass, in either format
        registry = tmp_path / "empty.txt"
        registry.write_text("# no entries\n", encoding="utf-8")
        for argv in (("suite",), ("--format", "csv", "suite")):
            refused(capsys, f"registry {registry} has no entries",
                    "--registry", str(registry), *argv)

    def test_directory_registry_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "--registry", str(tmp_path), "suite")
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot read registry {tmp_path}: ")
        assert len(err.strip().splitlines()) == 1

    def test_non_utf8_registry_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch):
        registry = tmp_path / "reg.txt"
        registry.write_bytes(b"a: series: phi(q) = phi(q) # \xff\xfe\n")
        monkeypatch.setenv("THETAFORMS_REGISTRY", str(registry))
        code, out, err = run_cli(capsys, "suite")
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot read registry {registry}: ")
        assert "utf-8" in err
        assert len(err.strip().splitlines()) == 1

    def test_env_selects_registry(self, tmp_path, capsys, monkeypatch):
        registry = tmp_path / "reg.txt"
        registry.write_text("a: series: psi(q)^2 = phi(q)*psi(q^2)\n",
                            encoding="utf-8")
        monkeypatch.setenv("THETAFORMS_REGISTRY", str(registry))
        code, out, _ = run_cli(capsys, "--format", "csv", "suite",
                               "--terms", "40")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[:3] for row in rows[:2]] == [
            ["name", "mode", "params"], ["a", "series", "terms=40"]]
        # --registry takes precedence over the environment
        refused(capsys, f"registry file not found: {tmp_path / 'none'}",
                "--registry", str(tmp_path / "none"), "suite")

    def test_jobs_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["suite", "--jobs", "2"])
        err = capsys.readouterr().err
        assert stop.value.code == 2
        assert "unrecognized arguments: --jobs 2" in err
        assert "Traceback" not in err

    def test_jobs_config_key_is_usage_error(self, tmp_path, capsys):
        # --config is gone, as --jobs is: a settings file is a usage error
        conf = tmp_path / "conf.txt"
        conf.write_text("jobs = 2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as stop:
            main(["--config", str(conf), "suite"])
        err = capsys.readouterr().err
        assert stop.value.code == 2
        # argparse reads the file's path as the command
        assert err.startswith("usage: thetaforms ")
        assert (f"\nthetaforms: error: argument command: invalid choice: "
                f"'{conf}' (choose from ") in err
        assert err.count("error") == 1
        assert "Traceback" not in err

    def test_suite_csv_round_trips(self, tmp_path, capsys):
        registry = tmp_path / "reg.txt"
        registry.write_text("a: series: psi(q)^2 = phi(q)*psi(q^2)\n",
                            encoding="utf-8")
        code, out, _ = run_cli(capsys, "--registry", str(registry),
                               "--format", "csv", "suite", "--terms", "30")
        assert code == 0
        body = out.strip().splitlines()
        rows = list(csv.reader(io.StringIO("\n".join(body[:-1]))))
        record = dict(zip(rows[0], rows[1]))
        assert record["name"] == "a"
        assert record["params"] == "terms=30"
        assert int(record["ms"]) >= 0


# Runs each JSON-encoded argv of sys.argv[1:] through one cli.main in this
# process, and prints (exit code, stdout, stderr) of each as JSON; a usage
# error leaves main through argparse's SystemExit.
_CALLS = """
import contextlib, io, json, sys
from thetaforms import cli
results = []
for argv in map(json.loads, sys.argv[1:]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


class TestRepeatedCalls:
    """main builds its parser once per process; calls after the first,
    a usage error after a success among them, print and exit as each
    would in a fresh process, and no flag of one call reaches the next."""

    CALLS = [
        ["positivity", "--s", "7", "--limit", "200"],
        ["positivity", "--s", "7", "--limit", "200"],
        ["positivity", "--s", "3"],                      # the default limit
        ["positivity"],                                  # --s missing
        ["positivity", "--s", "4"],                      # refused
        ["--format", "csv", "expand", "--func", "phi(q)", "--n", "3"],
        ["expand", "--func", "phi(q)", "--n", "3"],      # table again
        ["suite", "--jobs", "2"],                        # unknown flag
        ["repcount", "--form", "1,1,1,0,0,0", "--m", "5"],
    ]

    @staticmethod
    def calls(*argvs):
        proc = subprocess.run(
            [sys.executable, "-c", _CALLS, *map(json.dumps, argvs)],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return [tuple(r) for r in json.loads(proc.stdout)]

    def test_one_process_matches_fresh_processes(self):
        together = self.calls(*self.CALLS)
        alone = [self.calls(argv)[0] for argv in self.CALLS]
        assert together == alone
        codes = [code for code, _, _ in together]
        assert codes == [0, 0, 0, 2, 2, 0, 0, 2, 0]
        assert together[0][1] == "nonnegative through exponent 199\n"
        assert together[2][1] == "nonnegative through exponent 999\n"
        assert "the following arguments are required: --s" in together[3][2]
        assert together[5][1].startswith("exponent,coefficient\n")
        assert together[6][1].startswith("exponent  coefficient\n")


def readme_commands() -> list:
    """Each line of README's "Command line" block, its comment stripped,
    split as the shell would split it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n")[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("words", readme_commands(), ids=lambda w: w[1])
def test_readme_command_line_runs(words, capsys, monkeypatch):
    # the README's commands run as printed, on the shipped registry
    monkeypatch.delenv("THETAFORMS_REGISTRY", raising=False)
    assert words[0] == "thetaforms"
    code, out, err = run_cli(capsys, *words[1:])
    assert (code, err) == (0, "")
    assert out
