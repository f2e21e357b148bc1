import hashlib
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import parse_expression_by_tuples, parse_registry_by_tuples
from thetaforms import identities, series
from thetaforms.forms import TernaryForm, repcount
from thetaforms.genus import build_sgenus, epsilon, genus_of, weighted_count
from thetaforms.identities import (EntryError, EpsScalar, RegistryError,
                                   default_registry_file, eval_series,
                                   load_default_registry, load_registry,
                                   parse_expression, parse_registry,
                                   run_suite, verify_entry, verify_eta,
                                   verify_modeq3, verify_positivity,
                                   verify_series, verify_ternary, VerifyResult)
from thetaforms.modeq import (ALPHA, BETA, UnsupportedRadicand, cleared,
                              rational_root)
from thetaforms.series import Series, invert, sift
from thetaforms.theta import EtaQuotient, expand_eta_quotient


@pytest.fixture(scope="module")
def registry():
    return load_default_registry()


SMALL_REGISTRY = """\
1.8: series: psi(q)*E(q) = E(q^2)^2
1.11: series: psi(q)^2 = phi(q)*psi(q^2)
2.4: series: phi(q) = phi(q^4) + 2*q*psi(q^8)
2.5: series: phi(q)^4 - phi(-q)^4 = 16*q*psi(q^2)^4
wrong: series: phi(q) = phi(q^4)
"""


class TestRunSuite:
    @pytest.fixture
    def small(self, tmp_path):
        path = tmp_path / "registry.txt"
        path.write_text(SMALL_REGISTRY, encoding="utf-8")
        return path

    def test_results_in_name_order(self, small):
        registry = load_registry(small)
        results = run_suite(registry, terms=60)
        assert [r.name for r in results] == sorted(registry)
        assert [r.passed for r in results] == [True] * 4 + [False]
        assert {r.params for r in results} == {"terms=60"}

    def test_runs_the_registry_it_is_given(self, small):
        # the dict in memory decides, not the file it was read from
        registry = load_registry(small)
        registry["wrong"] = parse_registry(
            "wrong: series: phi(q) = phi(q^4) + 2*q*psi(q^8)")[0]
        results = run_suite(registry, terms=60)
        assert all(r.passed for r in results)
        assert [r.name for r in results] == sorted(registry)

    def test_shipped_verdicts_are_pinned(self, registry):
        # name, mode, params, verdict and witness of every entry at the
        # defaults; an evaluator change that moves any of them changes the
        # digest
        rows = [(r.name, r.mode, r.params, r.passed, r.witness)
                for r in run_suite(registry)]
        digest = hashlib.sha256("\n".join(map(repr, rows)).encode())
        assert len(rows) == 123
        assert digest.hexdigest() == (
            "3d80668cdfbd6f89b85a95a1cb4837af6abfe3c62525dd080d44b66948a21511")


class TestParser:
    def test_simple_series_entry(self):
        text = ("x1: series: psi(q^2)*phi(q)^2 = psi(q^2)*phi(q^3)^2 "
                "+ 4*q*psi(q)*psi(q^3)*psi(q^6)")
        specs = parse_registry(text)
        assert len(specs) == 1
        assert specs[0].name == "x1"
        assert specs[0].mode == "series"

    def test_empty_registry(self):
        assert parse_registry("") == []
        assert parse_registry("# only a comment\n\n") == []

    def test_shipped_registry_parse_is_pinned(self):
        # the repr of every spec, node by node; a change to the AST records
        # or the parser that alters any entry changes the digest
        text = default_registry_file().read_text(encoding="utf-8")
        specs = parse_registry(text)
        digest = hashlib.sha256("\n".join(map(repr, specs)).encode())
        assert len(specs) == 123
        assert digest.hexdigest() == (
            "4ed1a8268e5d6c095490b231ce5976c6fa8d5f0b856ed4d0c9024c52c62ae18b")

    def test_continuation_lines(self):
        text = "x1: series: phi(q) =\n    phi(q^4) + 2*q*psi(q^8)\n"
        specs = parse_registry(text)
        assert verify_series(specs[0], 100).passed

    def test_ternary_conditions(self):
        text = ("x2: ternary: (1,8,8,0,0,0)(M) = 2*(1,6,6,0,0,0)(M) "
                "where M = 1 mod 8, 3||M")
        spec = parse_registry(text)[0]
        cond = spec.conditions
        assert cond.residues == (1,) and cond.modulus == 8
        assert cond.divides == ((3, True),)
        assert cond.qualifies(33)
        assert not cond.qualifies(9 * 33)
        assert not cond.qualifies(35)

    def test_congruence_sign_accepted(self):
        text = "x3: ternary: (1,8,8,0,0,0)(M) = (1,8,8,0,0,0)(M) where M ≡ 1 mod 8"
        spec = parse_registry(text)[0]
        assert spec.conditions.modulus == 8

    def test_jacobi_condition(self):
        text = ("x4: ternary: (1,8,8,0,0,0)(M) = 4*(3,5,14,0,0,2)(M) "
                "where M = 1 mod 8, (M|7) = -1")
        cond = parse_registry(text)[0].conditions
        assert cond.jacobi == ((7, -1),)
        assert cond.qualifies(17)
        assert not cond.qualifies(9)  # (9|7) = +1

    def test_duplicate_name_rejected(self):
        text = "a: series: phi(q) = phi(q)\na: series: psi(q) = psi(q)"
        with pytest.raises(RegistryError):
            parse_registry(text)

    def test_unknown_primitive_carries_position(self):
        with pytest.raises(RegistryError) as err:
            parse_registry("a: series: zeta(q) = 1")
        assert err.value.line == 1
        assert err.value.col > 0

    @pytest.mark.parametrize("text, message", [
        ("x: ternary: W(1,1,1,0,0,0)(M/2^2) = 0",
         "col 35: W takes the plain argument M (at '=')"),
        ("x: eta: eta{1:2,1:3} = 1 where level 4",
         "col 20: duplicate eta divisor 1 (at '}')"),
        ("    phi(q) = phi(q)\nx: series: phi(q) = phi(q)",
         "col 1: continuation line without an entry"),
        ("x: positivity: psi(q) = psi(q)",
         "col 1: positivity entries take a single expression"),
    ])
    def test_refusal_is_named(self, text, message):
        with pytest.raises(RegistryError,
                           match=f"^line 1, {re.escape(message)}$"):
            parse_registry(text)

    @pytest.mark.parametrize("text, col", [
        ("a: series: zeta(q) = 1", 12),             # token
        ("a: bogus: x", 4),                         # header
        ("a: series: phi(q) = 1 where M = 1 mod", 38),  # end of entry
    ])
    def test_columns_are_one_based(self, text, col):
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("text, line, col, message", [
        pytest.param("a: series: phi(q) =\n    psi(q) $ 1", 2, 12,
                     "bad character '$'", id="bad-character-line-2"),
        pytest.param("a: ternary: (1,1,1,0,0,0)(M) = where M = 1 mod 4",
                     1, 31, "missing operand", id="empty-rhs-before-where"),
        pytest.param("a: ternary: (1,1,1,0,0,0)(M) = 0\n    where M = 1 mod",
                     2, 20, "unexpected end of entry",
                     id="end-inside-conditions-line-2"),
        pytest.param("a: series: phi(q) = phi(q) psi(q)", 1, 28,
                     "trailing tokens after statement (at 'psi')",
                     id="trailing-statement"),
        pytest.param("a: ternary: (1,1,1,0,0,0)(M) = 0 where M = 1 mod 4 3|M",
                     1, 52, "trailing tokens after conditions (at '3')",
                     id="trailing-conditions"),
    ])
    def test_positions_across_lines_and_where(self, text, line, col,
                                              message):
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert str(err.value) == f"line {line}, col {col}: {message}"

    @pytest.mark.parametrize("text, col, message", [
        pytest.param("a: Series: phi(q) = 1", 4, "unknown mode 'Series'",
                     id="mode-case"),
        pytest.param("a$: series: phi(q) = 1", 2, "bad character '$'",
                     id="name-character"),
        pytest.param("a series phi(q) = 1", 1,
                     "entry must start with 'name: mode:'", id="no-colons"),
    ])
    def test_header_error_at_its_column(self, text, col, message):
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert str(err.value) == f"line 1, col {col}: {message}"

    @pytest.mark.parametrize("entry, clauses", [
        pytest.param("a: ternary: (1,1,1,0,0,0)(M) = (1,1,1,0,0,0)(M)",
                     "M = 1 mod 8, M = 3 mod 4", id="congruence"),
        pytest.param("a: positivity: psi(q)",
                     "expect negative, expect nonnegative", id="expect"),
        pytest.param("a: eta: eta{1:24} = 1", "level 1, level 2", id="level"),
        pytest.param("a: modeq3: m = m", "theta 2.4, theta 2.5", id="theta"),
    ])
    def test_repeated_clause_rejected_at_its_keyword(self, entry, clauses):
        text = f"{entry}\n    where {clauses}\n"
        keyword = clauses.split()[0]
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        col = len("    where ") + clauses.index(keyword, 1) + 1
        assert str(err.value) == (f"line 2, col {col}: "
                                  f"duplicate {keyword!r} clause")

    def test_divisor_and_jacobi_clauses_repeat(self):
        text = ("a: ternary: (1,1,1,0,0,0)(M) = (1,1,1,0,0,0)(M) "
                "where 3|M, 5||M, (M|3) = 1, (M|7) = -1")
        cond = parse_registry(text)[0].conditions
        assert cond.divides == ((3, False), (5, True))
        assert cond.jacobi == ((3, 1), (7, -1))

    @pytest.mark.parametrize("where", ["where", "where M = 1 mod 4,"])
    def test_where_needs_a_condition(self, where):
        text = f"a: ternary: (1,1,1,0,0,0)(M) = 0 {where}"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert str(err.value) == (f"line 1, col {len(text) + 1}: "
                                  f"expected a condition")

    def test_zero_exponent_denominator_rejected_at_its_token(self):
        text = "x: modeq3: m = alpha^(1/0)"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert str(err.value) == (f"line 1, col {text.rindex('0') + 1}: "
                                  f"exponent denominator must be nonzero")

    def test_every_prefix_parses_or_raises_registry_error(self):
        # each shipped entry cut after each of its tokens; an error must
        # point inside the text or one column past the end of its line
        text = default_registry_file().read_text(encoding="utf-8")
        entries = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].rstrip()
            if line.strip():
                if line[0] in " \t":
                    entries[-1] += "\n" + line
                else:
                    entries.append(line)
        cases = 0
        for entry in entries:
            for token in re.finditer(r"[A-Za-z0-9._]+|\|\||\S", entry):
                prefix = entry[:token.end()]
                cases += 1
                try:
                    parse_registry(prefix)
                except RegistryError as err:
                    lines = prefix.split("\n")
                    assert 1 <= err.line <= len(lines), (prefix, str(err))
                    assert 1 <= err.col <= len(lines[err.line - 1]) + 1, \
                        (prefix, str(err))
        assert cases > 9000

    def test_malformed_sextuple(self):
        with pytest.raises(RegistryError):
            parse_registry("a: ternary: (1,2,3,4,5)(M) = 0 where M = 1 mod 8")

    def test_residue_list(self):
        text = "a: ternary: (1,1,1,0,0,0)(M) = (1,1,1,0,0,0)(M) where M = 1,2 mod 4"
        cond = parse_registry(text)[0].conditions
        assert cond.residues == (1, 2) and cond.modulus == 4

    @pytest.mark.parametrize("where, at", [("M = 1,5 mod 4", "5"),
                                           ("M = 3,1,11 mod 8", "11"),
                                           ("M = -3,1 mod 4", "1")])
    def test_repeated_residue_rejected_at_its_token(self, where, at):
        text = f"a: ternary: (1,1,1,0,0,0)(M) = 0 where {where}"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        col = text.rindex(f",{at} mod") + 2
        modulus = where.split()[-1]
        assert str(err.value) == (f"line 1, col {col}: residue {at} repeats "
                                  f"an earlier one mod {modulus}")

    def test_zero_modulus_rejected_at_its_token(self):
        text = "a: ternary: (1,1,1,0,0,0)(M) = 0 where M = 1 mod 0"
        with pytest.raises(RegistryError, match="modulus must be nonzero") as err:
            parse_registry(text)
        assert (err.value.line, err.value.col) == (1, len(text))

    @pytest.mark.parametrize("clause, bad, message", [
        pytest.param("0|M", "0", "divisor must be positive", id="divisor-0"),
        pytest.param("0||M", "0", "divisor must be positive",
                     id="exact-divisor-0"),
        pytest.param("(M|0) = 1", "0", "odd and positive", id="jacobi-0"),
        pytest.param("(M|-3) = 1", "-", "odd and positive",
                     id="jacobi-negative"),
        pytest.param("(M|4) = 1", "4", "odd and positive", id="jacobi-even"),
        pytest.param("(M|3) = 5", "5", "-1, 0 or 1", id="jacobi-value-5"),
        pytest.param("(M|3) = -2", "-2", "-1, 0 or 1", id="jacobi-value--2"),
    ])
    def test_bad_where_clause_rejected_at_its_token(self, clause, bad,
                                                    message):
        where = f"M = 1 mod 4, {clause}"
        text = f"a: ternary: (1,1,1,0,0,0)(M) = 0 where {where}"
        with pytest.raises(RegistryError, match=message) as err:
            parse_registry(text)
        col = text.index(where) + where.rindex(bad) + 1
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("lhs, bad, message", [
        pytest.param("(1,1,1,0,0,0)(M/0^2)", "0", r"M/w\^2 must be positive",
                     id="divisor-0"),
        pytest.param("(1,1,1,0,0,0)(M/-2^2)", "-", r"M/w\^2 must be positive",
                     id="divisor-negative"),
        pytest.param("SEW(3;5)(M)", "5", "positive divisor of S",
                     id="sew-not-dividing"),
        pytest.param("SEW(15;0)(M)", "0", "positive divisor of S",
                     id="sew-0"),
        pytest.param("SEW(15;-3)(M)", "-", "positive divisor of S",
                     id="sew-negative"),
        pytest.param("eps(1,1,1,0,0,0;2)*W(1,1,1,0,0,0)(M)", "2",
                     "odd and positive", id="eps-even"),
        pytest.param("eps(1,1,1,0,0,0;-3)*W(1,1,1,0,0,0)(M)", "-",
                     "odd and positive", id="eps-negative"),
    ])
    def test_bad_count_argument_rejected_at_its_token(self, lhs, bad,
                                                      message):
        text = f"a: ternary: {lhs} = 0"
        with pytest.raises(RegistryError, match=message) as err:
            parse_registry(text)
        col = text.index(";" if ";" in lhs else "/") + 2
        assert text[col - 1] == bad
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("lhs", [
        "(1,1,1,0,0,0)(M/3^2)", "SEW(15;5)(M)", "SEW(3;3)(M)",
        "eps(1,1,1,0,0,0;7)*W(1,1,1,0,0,0)(M)"])
    def test_good_count_arguments_parse(self, lhs):
        assert parse_registry(f"a: ternary: {lhs} = 0")

    def test_negative_modulus_reads_as_its_absolute_value(self):
        text = "a: ternary: (1,1,1,0,0,0)(M) = 0 where M = -1 mod -7"
        cond = parse_registry(text)[0].conditions
        assert (cond.residues, cond.modulus) == ((6,), 7)

    @pytest.mark.parametrize("entry, clauses, bad, owner", [
        ("z: ternary: (1,1,1,0,0,0)(M) = 0", "expect negative", "expect",
         "positivity"),
        ("z: series: phi(q) = phi(q)", "M = 1 mod 3", "M", "ternary"),
        ("z: sift: S[2,1](phi(q)) = 2*psi(q^4)", "3|M", "3", "ternary"),
        ("z: positivity: psi(q)", "expect nonnegative, 5||M", "5", "ternary"),
        ("z: modeq3: m = m", "(M|3) = 1", "(", "ternary"),
        ("z: series: phi(q) = phi(q)", "level 4", "level", "eta"),
        ("z: eta: eta{1:24} = 1", "level 1, theta 2.4", "theta", "modeq3"),
    ])
    def test_clause_outside_its_mode(self, entry, clauses, bad, owner):
        text = f"{entry}\n    where {clauses}\n"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        col = len("    where ") + clauses.index(bad) + 1
        assert (err.value.line, err.value.col) == (2, col)
        assert f"applies only to {owner} entries" in str(err.value)

    def test_default_registry_complete(self, registry):
        for name in ("1.11", "1.14", "1.15", "2.18", "2.37", "3.2", "4.1",
                     "5.4", "5.13.w15", "6.9.s15.w15", "ctl.phi7", "2.m2"):
            assert name in registry


class TestLongIntegerLiterals:
    """A literal longer than int()'s digit limit is a parse error at the
    literal, not the interpreter's ValueError."""

    BIG = "1" * 5000

    @pytest.mark.parametrize("text", [
        pytest.param(f"a: series: {BIG} = 1", id="series"),
        pytest.param(f"a: ternary: (1,1,1,0,0,{BIG})(M) = 0", id="form"),
    ])
    def test_over_the_limit_is_a_registry_error(self, text):
        assert 0 < sys.get_int_max_str_digits() < len(self.BIG)
        with pytest.raises(RegistryError, match="integer literal longer") as err:
            parse_registry(text)
        assert (err.value.line, err.value.col) == (1, text.index(self.BIG) + 1)

    def test_at_the_limit_parses(self):
        digits = "7" * sys.get_int_max_str_digits()
        spec = parse_registry(f"a: series: {digits} = 1")[0]
        assert spec.lhs.value == int(digits)


class TestVerifySeries:
    def test_degree3_identity(self, registry):
        assert verify_series(registry["2.10"], 500).passed

    def test_seven_fold_identity(self, registry):
        assert verify_series(registry["1.15"], 500).passed

    def test_corrupted_coefficient_fails_at_one(self):
        text = ("bad: series: psi(q)*phi(q)^2 = psi(q)*phi(q^3)^2 "
                "+ 5*q*psi(q^3)*psi(q^6)*phi(q)")
        spec = parse_registry(text)[0]
        result = verify_series(spec, 50)
        assert not result.passed
        assert result.witness.startswith("exponent 1:")

    def test_sift_entry(self, registry):
        assert verify_series(registry["2.25"], 200).passed

    @pytest.mark.parametrize("short_side", ["lhs", "rhs"])
    def test_short_side_fails_and_is_named(self, short_side, monkeypatch):
        spec = parse_registry("s: series: phi(q)^2 = phi(q)^2")[0]
        short = {"lhs": spec.lhs, "rhs": spec.rhs}[short_side]

        def truncated(node, n):
            value = eval_series(node, n)
            return value.truncate(n - 7) if node is short else value
        monkeypatch.setattr(identities, "eval_series", truncated)
        result = verify_series(spec, 50)
        assert not result.passed
        assert result.params == "terms=50"
        assert result.witness == f"{short_side} has 43 coefficients"


class TestVerifyTernary:
    def test_three_squares_split(self, registry):
        result = verify_ternary(registry["2.18"], 600)
        assert result.passed

    def test_spot_value_25(self):
        text = ("x: ternary: (1,8,8,0,0,0)(M) = (1,6,6,0,0,0)(M) "
                "+ 2*(2,3,6,0,0,0)(M) where M = 1 mod 8")
        spec = parse_registry(text)[0]
        assert eval_series(spec.lhs, 31).coeffs[25] == 10
        assert eval_series(spec.rhs, 31).coeffs[25] == 10

    def test_exact_division_case(self, registry):
        # scaled relation at M = 33: 16 = 2 * 8
        spec = registry["2.34"]
        assert spec.conditions.qualifies(33)
        assert eval_series(spec.lhs, 41).coeffs[33] == 16
        assert eval_series(spec.rhs, 41).coeffs[33] == 16

    def test_twin_clause_at_17(self, registry):
        spec = registry["c1.4a"]
        assert spec.conditions.qualifies(17)
        assert eval_series(spec.lhs, 21).coeffs[17] == 16
        assert eval_series(spec.rhs, 21).coeffs[17] == 16

    def test_params_count_every_qualifying_m(self, registry):
        spec = registry["2.18"]
        want = sum(spec.conditions.qualifies(m) for m in range(1, 601))
        for _ in range(2):
            assert verify_ternary(spec, 600).params == \
                f"Mmax=600 ({want} values)"

    @pytest.mark.parametrize("where", ["(M|3) = 1, (M|3) = -1",
                                       "M = 1 mod 4, 2|M",
                                       "M = 31 mod 32"])
    def test_no_qualifying_m_is_no_pass(self, where):
        # the sides are different forms: a pass would have compared nothing
        text = f"x: ternary: (1,1,1,0,0,0)(M) = (1,1,2,0,0,0)(M) where {where}"
        spec = parse_registry(text)[0]
        with pytest.raises(ValueError, match="no M <= 30"):
            verify_ternary(spec, 30)
        with pytest.raises(EntryError, match="^x: no M <= 30"):
            verify_entry(spec, mmax=30)

    def test_failure_reports_first_m(self):
        text = ("x: ternary: (1,8,8,0,0,0)(M) = 3*(1,6,6,0,0,0)(M) "
                "where M = 1 mod 8")
        result = verify_ternary(parse_registry(text)[0], 200)
        assert not result.passed
        assert result.witness.startswith("M=")

    def test_non_divisible_argument_counts_zero(self):
        # 3|M but 9 does not divide M: the rescaled count is empty
        text = ("x: ternary: 3*(1,8,8,0,0,0)(M/3^2) = -(1,6,6,0,0,0)(M) "
                "+ 2*(2,3,6,0,0,0)(M) where M = 1 mod 8, 3|M")
        spec = parse_registry(text)[0]
        assert eval_series(spec.lhs, 41).coeffs[33] == 0


class TestTernaryGrammar:
    """Ternary sides are integer combinations of single counts; anything
    else would mean one thing per M and another as series arithmetic."""

    @pytest.mark.parametrize("statement, bad", [
        ("(1,1,1,0,0,0)(M)/2 = (1,6,6,0,0,0)(M)", "/"),
        ("(1,1,1,0,0,0)(M) = (1,6,6,0,0,0)(M)^2", "^"),
        ("(1,1,1,0,0,0)(M) = 2*(1,6,6,0,0,0)(M)*(2,3,6,0,0,0)(M)", "(2,3"),
        ("(1,1,1,0,0,0)(M) = 3*(1,6,6,0,0,0)(M) + 1", "1\n"),
        ("(1,1,1,0,0,0)(M) = 3*((1,6,6,0,0,0)(M) - 2*eps(1,6,6,0,0,0;3))",
         "2*eps"),
    ])
    def test_rejected_at_the_offending_token(self, statement, bad):
        # the statement sits on a continuation line
        text = "x: ternary:\n    " + statement + "\n"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert err.value.line == 2
        assert err.value.col == ("    " + statement + "\n").index(bad) + 1

    def test_scaled_sums_and_zero_accepted(self):
        text = ("x: ternary: 3*((1,6,6,0,0,0)(M) - eps(1,6,6,0,0,0;3)"
                "*W(2,3,6,0,0,0)(M)) - 0 = 0")
        assert parse_registry(text)[0].rhs.value == 0

    def test_shipped_entries_are_combinations_of_counts(self, registry):
        ternary = [s for s in registry.values() if s.mode == "ternary"]
        assert len(ternary) == 47


class TestTernaryLeaves:
    """Each ternary leaf as a series, against the per-value counts."""

    N = 241
    SAMPLES = (1, 9, 17, 33, 45, 72, 81, 99, 153, 225, 240)

    def leaf(self, text):
        spec = parse_registry(f"x: ternary: {text} = 0")[0]
        return eval_series(spec.lhs, self.N).coeffs

    @pytest.mark.parametrize("form, w", [((1, 8, 8, 0, 0, 0), 3),
                                         ((1, 1, 1, 0, 0, 0), 5),
                                         ((3, 5, 14, 0, 0, 2), 1)])
    def test_rescaled_count(self, form, w):
        coeffs = self.leaf("(" + ",".join(map(str, form)) + f")(M/{w}^2)")
        for m in self.SAMPLES:
            expected = 0 if m % (w * w) else repcount(TernaryForm(*form),
                                                      m // (w * w))
            assert coeffs[m] == expected, m

    def test_weighted_and_eps(self):
        form = TernaryForm(1, 14, 14, 0, 0, 0)
        record = genus_of(form)
        coeffs = self.leaf("eps(1,14,14,0,0,0;7)*W(1,14,14,0,0,0)(M)")
        eps = epsilon(record, 7)
        assert eps in (1, -1)
        for m in self.SAMPLES:
            assert coeffs[m] == eps * weighted_count(record, m), m

    def test_eps_is_a_constant(self):
        coeffs = eval_series(EpsScalar((1, 6, 6, 0, 0, 0), 3), self.N).coeffs
        eps = epsilon(genus_of(TernaryForm(1, 6, 6, 0, 0, 0)), 3)
        assert coeffs == (eps,) + (0,) * (self.N - 1)

    @pytest.mark.parametrize("s, w", [(15, 1), (15, 3), (15, 15), (7, 7)])
    def test_union_with_characters(self, s, w):
        sg = build_sgenus(s)
        coeffs = self.leaf(f"SEW({s};{w})(M)")
        for m in self.SAMPLES:
            expected = sum(sg.eps[(i, w)] * weighted_count(tg, m)
                           for i, tg in enumerate(sg.tg))
            assert coeffs[m] == expected, m
        if w == 1:
            assert self.leaf(f"SW({s})(M)") == coeffs


@lru_cache(maxsize=None)
def _mask_by_qualifies(conditions, n):
    return bytes(m > 0 and conditions.qualifies(m) for m in range(n))


def series_ternary(spec, mmax):
    """The full-series check: both sides to Mmax + 1 coefficients by
    `eval_series`, compared at every qualifying M in increasing order."""
    n = max(mmax, 0) + 1
    mask = _mask_by_qualifies(spec.conditions, n)
    values = mask.count(1)
    if not values:
        raise ValueError(f"no M <= {mmax} meets the where conditions")
    lhs = eval_series(spec.lhs, n).coeffs
    rhs = eval_series(spec.rhs, n).coeffs
    for m in compress(range(n), mask):
        if lhs[m] != rhs[m]:
            return VerifyResult(spec.name, spec.mode, False, f"Mmax={mmax}",
                                f"M={m}: {lhs[m]} != {rhs[m]}")
    return VerifyResult(spec.name, spec.mode, True,
                        f"Mmax={mmax} ({values} values)")


def _raised(node):
    """Copies of a ternary side with one integer literal raised by one."""
    if isinstance(node, identities.Num):
        yield identities.Num(node.value + 1)
    elif isinstance(node, identities.Neg):
        yield from map(identities.Neg, _raised(node.body))
    elif isinstance(node, identities.Add):
        for i, term in enumerate(node.terms):
            for new in _raised(term):
                yield identities.Add(node.terms[:i] + (new,) + node.terms[i + 1:])
    elif isinstance(node, identities.Mul):
        for i, (factor, inverted) in enumerate(node.factors):
            for new in _raised(factor):
                yield identities.Mul(node.factors[:i] + ((new, inverted),)
                                     + node.factors[i + 1:])


class TestTernaryGather:
    """`verify_ternary` gathers each count at the qualifying M only; the
    full series of both sides, compared M by M, must give the same result."""

    @pytest.fixture(scope="class")
    def ternary(self, registry):
        return [s for s in registry.values() if s.mode == "ternary"]

    def test_shipped_entries(self, ternary):
        for spec in ternary:
            got = verify_ternary(spec, identities.DEFAULT_MMAX)
            assert got.passed, spec.name
            assert got == series_ternary(spec, identities.DEFAULT_MMAX)

    def test_raised_coefficients(self, ternary):
        copies = [spec._replace(**{side: new})
                  for spec in ternary for side in ("lhs", "rhs")
                  for new in _raised(getattr(spec, side))]
        # each literal is a coefficient of a summand with a count, so
        # raising it adds a nonzero count and every copy fails
        assert len(copies) == 77
        for spec in copies:
            got = verify_ternary(spec, identities.DEFAULT_MMAX)
            assert not got.passed, spec
            assert got == series_ternary(spec, identities.DEFAULT_MMAX), spec

    @pytest.mark.parametrize("mmax", [0, 1, 8, 9, 100])
    def test_small_mmax(self, ternary, mmax):
        # Mmax 0 leaves no M; 1, 8 and 9 leave none or one for many entries
        outcomes = set()
        for spec in ternary:
            got = _outcome(verify_ternary, spec, mmax)
            assert got == _outcome(series_ternary, spec, mmax), spec.name
            outcomes.add(got if isinstance(got, str) else got.params)
        if mmax == 0:
            assert outcomes == {"ValueError: no M <= 0 meets the where conditions"}
        if mmax in (1, 8, 9):
            assert f"Mmax={mmax} (1 values)" in outcomes

    def test_hand_built_sides(self):
        # the parser makes neither side; a constant summand is nonzero at
        # M = 0 only, and a product of two counts is no count at one M
        spec = parse_registry("x: ternary: (1,1,1,0,0,0)(M) = "
                              "(1,1,1,0,0,0)(M) where M = 1,2 mod 4")[0]
        count = spec.lhs
        constant = spec._replace(lhs=identities.Add((count, identities.Num(5))))
        assert verify_ternary(constant, 50) == series_ternary(constant, 50)
        assert verify_ternary(constant, 50).passed
        product = spec._replace(lhs=identities.Mul(((count, False), (count, False))))
        with pytest.raises(EntryError, match="^x: a ternary product takes one count"):
            verify_entry(product, mmax=50)

    def test_zero_side(self):
        # a side with no count is zero at every qualifying M, and so is a
        # count whose factors cancel
        text = "x: ternary: (1,1,1,0,0,0)(M) - (1,1,1,0,0,0)(M) = 0"
        assert verify_ternary(parse_registry(text)[0], 50).passed
        result = verify_ternary(
            parse_registry("x: ternary: (1,1,1,0,0,0)(M) = 0")[0], 50)
        assert not result.passed
        assert result.witness == "M=1: 6 != 0"

    def test_form_literal_with_a_negative_entry(self):
        # y -> -y takes one form to the other
        text = "x: ternary: (3,3,3,-2,0,0)(M) = (3,3,3,2,0,0)(M)"
        spec = parse_registry(text)[0]
        assert spec.lhs.form == (3, 3, 3, -2, 0, 0)
        assert verify_ternary(spec, 200).passed

    @pytest.mark.parametrize("a, b, where, period", [
        ((1, 1, 2), (1, 1, 5), "M = 1,2 mod 4", 4),
        ((1, 1, 2), (1, 1, 5), "M = 2,1 mod 4", 4),
        ((1, 3, 3), (1, 3, 6), "M = 1,2 mod 4", 4),
        ((1, 1, 1), (1, 1, 2), "M = 1,2 mod 4", 4),
        ((1, 1, 3), (1, 1, 5), "(M|7) = 1", 7),
        ((1, 3, 3), (1, 6, 6), "(M|7) = 1", 7),
        ((1, 1, 2), (1, 1, 3), "(M|7) = 1", 7),
        # 21 fails first; in class order 9, 33, 57 come before it, and 57 fails
        ((1, 1, 2), (1, 1, 7), "M = 1,5 mod 8, 3|M", 8),
    ])
    def test_witness_is_the_smallest_failing_m(self, a, b, where, period):
        fa, fb = TernaryForm(*a, 0, 0, 0), TernaryForm(*b, 0, 0, 0)
        text = (f"x: ternary: ({','.join(map(str, fa))})(M) = "
                f"({','.join(map(str, fb))})(M) where {where}")
        spec = parse_registry(text)[0]
        failing = [m for m in range(1, 61) if spec.conditions.qualifies(m)
                   and repcount(fa, m) != repcount(fb, m)]
        # the mismatches span residue classes, so an order by class would
        # report a larger M
        assert len({m % period for m in failing}) > 1
        m = failing[0]
        result = verify_ternary(spec, 60)
        assert not result.passed
        assert result.witness == f"M={m}: {repcount(fa, m)} != {repcount(fb, m)}"
        assert result == series_ternary(spec, 60)


class TestEntryErrors:
    @pytest.mark.parametrize("text", ["x: series: eta{1:-24} = 1",
                                      "x: series: phi(q)/2 = 1"])
    def test_evaluation_failure_names_the_entry(self, text):
        with pytest.raises(EntryError) as err:
            verify_entry(parse_registry(text)[0], terms=20)
        assert str(err.value).startswith("x: ")

    @pytest.mark.parametrize("name, count", [
        ("2.4", "terms"), ("4.15", "terms"), ("1.13", "limit"),
        ("ctl.phi7", "limit")])
    @pytest.mark.parametrize("value", [0, -3])
    def test_count_below_one_is_no_pass(self, registry, name, count, value):
        # no coefficient is compared, which is neither a pass nor a failure
        message = f"{name}: {count} must be positive, got {value}"
        with pytest.raises(EntryError, match=f"^{re.escape(message)}$"):
            verify_entry(registry[name], **{count: value})

    @pytest.mark.parametrize("name, count", [
        ("2.4", "terms"), ("2.18", "mmax"), ("1.13", "limit")])
    def test_request_too_large_to_allocate(self, registry, name, count):
        # 2*10^18 fits an index, but no list or bytes of that length can be
        # allocated; MemoryError has no text, so the message names its type
        with pytest.raises(EntryError, match=f"^{re.escape(name)}: "
                                             "MemoryError$"):
            verify_entry(registry[name], **{count: 2 * 10 ** 18})


class TestWrongMode:
    """Each verifier refuses an entry of another mode by name."""

    SERIES = "x: series: phi(q) = phi(q^4) + 2*q*psi(q^8)"

    @pytest.mark.parametrize("verify, text, kind", [
        (lambda spec: verify_series(spec, 20), "x: positivity: psi(q)",
         "series/sift"),
        (lambda spec: verify_ternary(spec, 20), SERIES, "ternary"),
        (lambda spec: verify_positivity(spec, 20), SERIES, "positivity"),
        (verify_modeq3, SERIES, "modeq3"),
        (verify_eta, SERIES, "eta"),
    ], ids=["series", "ternary", "positivity", "modeq3", "eta"])
    def test_refused(self, verify, text, kind):
        article = "an" if kind[0] in "aeiou" else "a"
        with pytest.raises(ValueError,
                           match=f"^x is not {article} {kind} entry$"):
            verify(parse_registry(text)[0])


class TestVerifyPositivity:
    def test_shift_seven(self, registry):
        assert verify_positivity(registry["1.13"], 600).passed

    def test_control_difference_of_squares(self, registry):
        result = verify_positivity(registry["ctl.phi7"], 600)
        assert result.passed  # expected-negative control
        assert "exponent 7" in result.witness

    def test_control_weighted_squares(self, registry):
        result = verify_positivity(registry["ctl.psi6"], 600)
        assert result.passed
        assert "exponent 1" in result.witness

    def test_plain_failure_without_expectation(self):
        spec = parse_registry("x: positivity: phi(q)^2 - phi(q^7)^2")[0]
        result = verify_positivity(spec, 100)
        assert not result.passed
        assert "exponent 7" in result.witness

    def test_expected_negative_without_one_fails(self):
        # a nonnegative product marked as a control fails; the product
        # takes the row kernel, whose sign report the scan reads
        spec = parse_registry("x: positivity: psi(q)*(phi(q)^2 - phi(q^7)^2)"
                              " where expect negative")[0]
        rows = series.kernel_calls["row"]
        result = verify_positivity(spec, 2000)
        assert series.kernel_calls["row"] == rows + 1
        assert not result.passed
        assert result.witness == "no negative coefficient found"


class TestModeq3:
    def test_all_registry_equations(self, registry):
        for name in ("2.7", "2.28", "2.31", "2.m1", "2.m2"):
            assert verify_modeq3(registry[name]).passed, name

    def test_both_sides_reduce_to_2p(self, registry):
        from thetaforms.identities import _modeq_value
        spec = registry["2.7"]
        lhs = _modeq_value(spec.lhs)  # (1+2p) - 1
        assert lhs == [(1, (0, 0, 1)), (-1, (0, 0, 0))]
        assert cleared(lhs) == [0, 2]  # 2p
        assert _modeq_value(spec.rhs) == [(2, (1, 0, 0))]

    def test_31_reduces_to_shared_value(self, registry):
        from thetaforms.identities import _modeq_value
        spec = registry["2.31"]
        # 2(2+p)/(1+2p), cleared by the factor 1+2p on each side
        assert _modeq_value(spec.rhs) == [(2, (0, 1, -1))]
        assert cleared(_modeq_value(spec.lhs)) == [4, 2]
        assert cleared(_modeq_value(spec.rhs)) == [4, 2]

    def test_unsupported_parametrization(self):
        spec = parse_registry("x: modeq3: m = alpha^(1/8)")[0]
        with pytest.raises(UnsupportedRadicand):
            verify_modeq3(spec)

    def test_refuted_equation(self):
        spec = parse_registry("x: modeq3: m - 1 = 3*beta^(3/8)/alpha^(1/8)")[0]
        result = verify_modeq3(spec)
        assert not result.passed
        # (1+2p) - 1 - 3p = -p
        assert result.witness == "cleared lhs - rhs has coefficient -1 at p^1"

    @pytest.mark.parametrize("companion", ["2.99", "2.6"])
    def test_theta_clause_names_a_series_entry(self, tmp_path, companion):
        path = tmp_path / "reg.txt"
        path.write_text("2.6: modeq3: m = 1\n"
                        "2.7: modeq3: m - 1 = 2*beta^(3/8)/alpha^(1/8)\n"
                        f"    where theta {companion}\n"
                        "2.9: series: phi(q) = phi(q)\n", encoding="utf-8")
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert (err.value.line, err.value.col) == (3, 17)
        assert companion in str(err.value)

    def test_theta_clause_may_point_forward(self, tmp_path):
        path = tmp_path / "reg.txt"
        path.write_text("2.7: modeq3: m - 1 = 2*beta^(3/8)/alpha^(1/8) "
                        "where theta 2.9\n2.9: sift: phi(q) = phi(q)\n",
                        encoding="utf-8")
        assert load_registry(path)["2.7"].conditions.theta_ref == "2.9"

    def test_entry_parses_apart_from_its_registry(self):
        spec = parse_registry("2.7: modeq3: m - 1 = 2*beta^(3/8)/alpha^(1/8) "
                              "where theta 2.9")[0]
        assert spec.conditions.theta_ref == "2.9"

    def test_companion_theta_forms(self, registry):
        for name in ("2.7", "2.28", "2.31", "2.m1", "2.m2"):
            companion = registry[name].conditions.theta_ref
            assert companion
            assert verify_series(registry[companion], 300).passed


class TestRationalRoot:
    def test_eighth_root_of_p8(self):
        assert rational_root((8, 0, 0), 8) == (1, 0, 0)

    def test_quotient_eighth_power(self):
        assert rational_root((0, 8, -8), 8) == (0, 1, -1)

    def test_odd_exponent_rejected(self):
        with pytest.raises(UnsupportedRadicand):
            rational_root((3, 0, 0), 2)

    def test_lemma_composition(self):
        # beta^3 / alpha = p^8 and alpha^3 / beta = ((2+p)/(1+2p))^8
        lhs = tuple(3 * b - a for a, b in zip(ALPHA, BETA))
        assert rational_root(lhs, 8) == (1, 0, 0)
        rhs = tuple(3 * a - b for a, b in zip(ALPHA, BETA))
        assert rational_root(rhs, 8) == (0, 1, -1)

    def test_cleared_takes_least_denominators(self):
        # 1/(2p) - (1+2p)/(2p) = -1, times 2p
        terms = [(Fraction(1, 2), (-1, 0, 0)), (Fraction(-1, 2), (-1, 0, 1))]
        assert cleared(terms) == [0, -2]
        assert cleared([]) == []


def _alpha(p):
    return p * (2 + p) ** 3 / (1 + 2 * p) ** 3


def _beta(p):
    return p ** 3 * (2 + p) / (1 + 2 * p)


def _term_value(term, p):
    c, (a, b, e) = term
    return c * p ** a * (2 + p) ** b * (1 + 2 * p) ** e


class TestUnsupportedRadicand:
    @pytest.mark.parametrize("statement, message", [
        ("m = alpha^(1/8)", "exponents (1, 3, -3) are not all divisible by 8"),
        ("alpha^(1/16) = 1", "exponent 1/16 leaves the eighth lattice"),
        ("2^(1/8) = 1", "fractional power of a scalar"),
        ("1/(m+1) = 1", "division by a sum is unsupported"),
        ("(m+1)^2 = m^2+2*m+1", "powers of sums are unsupported"),
        ("(m+1)^(1/2) = 1", "powers of sums are unsupported"),
    ])
    def test_refusal_is_named(self, statement, message):
        spec = parse_registry(f"x: modeq3: {statement}")[0]
        with pytest.raises(EntryError) as err:
            verify_entry(spec)
        assert str(err.value) == f"x: {message}"
        assert isinstance(err.value.__cause__, UnsupportedRadicand)

    @pytest.mark.parametrize("entry, factor", [
        ("x: modeq3: {} = 1", "(m+1)"),
        ("x: eta: {} = 1 where level 2", "(eta{2:1}+1)"),
    ], ids=["modeq3", "eta"])
    def test_expansion_is_bounded(self, entry, factor):
        # 30 factors of two terms each would multiply out to 2^30 monomials
        spec = parse_registry(entry.format("*".join([factor] * 30)))[0]
        start = time.perf_counter()
        with pytest.raises(EntryError) as err:
            verify_entry(spec)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (f"x: expansion exceeds "
                                  f"{identities.MAX_MONOMIALS} monomials")
        assert isinstance(err.value.__cause__, UnsupportedRadicand)

    def test_expansion_up_to_the_bound_is_verified(self):
        # 2^10 monomials a side is the most the bound admits; one factor
        # more is refused
        side = "*".join(["(m+1)"] * 10)
        assert verify_entry(parse_registry(f"x: modeq3: {side} = {side}")[0]).passed
        with pytest.raises(EntryError, match="expansion exceeds"):
            verify_entry(parse_registry(f"x: modeq3: {side}*(m+1) = 1")[0])

    def test_bound_counts_products_of_sums(self):
        # a sum written out is as long as its text; only a product of two
        # sums is measured against the bound
        k = identities.MAX_MONOMIALS + 1
        s = "+".join(["m"] * k)
        spec = parse_registry(f"x: modeq3: 2*({s}) = {2 * k}*m")[0]
        assert verify_entry(spec).passed
        with pytest.raises(EntryError, match="expansion exceeds"):
            verify_entry(parse_registry(f"x: modeq3: ({s})*(m+1) = 1")[0])

    @pytest.mark.parametrize("entry, message", [
        ("x: modeq3: 2^999999999999 = 1", "power of a coefficient may exceed 2^256"),
        ("x: modeq3: ((2^128)^2)^2 = 1", "power of a coefficient may exceed 2^256"),
        ("x: modeq3: m^1000000000 = 1", "exponent exceeds 256"),
        ("x: modeq3: m^200*m^200 = 1", "exponent exceeds 256"),
        ("x: modeq3: alpha^33 = 1", "exponent exceeds 256"),
        ("x: eta: eta{2:1}^999999999999 = 1 where level 2", "exponent exceeds 256"),
        ("x: eta: eta{2:999999999999} = 1 where level 2", "exponent exceeds 256"),
    ], ids=["scalar", "nested", "m", "product", "eighths", "eta-power", "eta-atom"])
    def test_exponent_is_bounded(self, entry, message):
        assert identities.MAX_EXPONENT == 256
        spec = parse_registry(entry)[0]
        start = time.perf_counter()
        with pytest.raises(EntryError) as err:
            verify_entry(spec)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == f"x: {message}"
        assert isinstance(err.value.__cause__, UnsupportedRadicand)

    def test_exponent_up_to_the_bound_is_verified(self):
        # alpha^32 is 256 eighths, 2^256 the largest coefficient a power of
        # 2 makes, and 1 and -1 take any power
        for statement in ("alpha^32*m^256 = alpha^16*alpha^16*m^256",
                          "(2^128)^2 = 2^256", "(-1)^1000000000000 = 1"):
            assert verify_entry(parse_registry(f"x: modeq3: {statement}")[0]).passed


class TestEtaWalk:
    # entry 4.1 with its first quotient eta{14:10,4:4,1:4,28:-4,7:-4,2:-10}
    # written as a product, a quotient and a power of atoms
    REST_41 = (" + 4*eta{14:7,4:6,1:5,28:-2,7:-3,2:-13}"
               " + 8*eta{42:5,28:2,6:2,4:4,1:5,84:-2,21:-2,14:-1,3:-1,2:-12}"
               " + 8*eta{84:1,28:1,21:1,14:1,4:4,3:2,1:4,42:-1,7:-1,6:-1,"
               "2:-11} = 1 where level 84")

    @pytest.mark.parametrize("first", [
        "eta{14:10,4:2,1:4,28:-4}*eta{4:2,7:-4,2:-10}",
        "eta{14:10,4:4,1:4}/eta{28:4,7:4,2:10}",
        "eta{14:5,4:2,1:2,28:-2,7:-2,2:-5}^2",
    ])
    def test_monomial_of_atoms_is_one_quotient(self, registry, first):
        from thetaforms.identities import _eta_combination
        spec = parse_registry(f"x: eta: {first}{self.REST_41}")[0]
        assert _eta_combination(spec) == _eta_combination(registry["4.1"])
        result = verify_entry(spec)
        assert result.passed
        assert result.params == "level=84 B=17"

    @pytest.mark.parametrize("statement, message", [
        ("phi(q) = 1 where level 4",
         "eta entries must be linear combinations of quotients"),
        ("1/(eta{2:1}+1) = 1 where level 2",
         "division by a sum is unsupported"),
    ])
    def test_refusal_is_named(self, statement, message):
        spec = parse_registry(f"x: eta: {statement}")[0]
        with pytest.raises(EntryError) as err:
            verify_entry(spec)
        assert str(err.value) == f"x: {message}"


class TestModeq3Oracle:
    """The modeq3 path against the parametrization, in Fraction arithmetic.

    A term is the positive eighth root it claims to be when its value over
    c m^k, raised to the 8th power, is alpha^x beta^y at p > 0.  A side is
    then a rational function whose numerator, cleared as in `cleared`, has
    degree at most `_degree_bound`; two sides that agree at more points
    than that are equal.
    """

    POINTS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7),
              Fraction(11, 5)]
    ENTRIES = ("2.7", "2.28", "2.31", "2.m1", "2.m2")

    @staticmethod
    def _degree_bound(terms):
        low = [min(0, *(exps[i] for _, exps in terms)) for i in range(3)]
        return max(sum(x - s for x, s in zip(exps, low)) for _, exps in terms)

    @staticmethod
    def _sides(spec):
        from thetaforms.identities import _modeq_value
        return _modeq_value(spec.lhs), _modeq_value(spec.rhs)

    @pytest.mark.parametrize("name", ENTRIES)
    def test_terms_are_eighth_roots(self, registry, name):
        from thetaforms.identities import _modeq_leaf, _modeq_value, _terms
        spec = registry[name]
        for side in (spec.lhs, spec.rhs):
            for (c, exps), term in zip(_terms(side, _modeq_leaf),
                                       _modeq_value(side)):
                k, x8, y8 = (exps.get(a, 0) for a in ("m", "alpha", "beta"))
                assert term[0] == c
                for p in self.POINTS:
                    root = _term_value(term, p) / (c * (1 + 2 * p) ** k)
                    assert root > 0
                    assert root ** 8 == _alpha(p) ** x8 * _beta(p) ** y8

    @pytest.mark.parametrize("name", ENTRIES)
    def test_sides_agree_past_the_degree(self, registry, name):
        lhs, rhs = self._sides(registry[name])
        degree = self._degree_bound(lhs + rhs)
        for j in range(1, degree + 2):
            p = Fraction(j, 3)
            assert sum(_term_value(t, p) for t in lhs) == \
                sum(_term_value(t, p) for t in rhs)

    def test_refuted_equation_disagrees(self):
        spec = parse_registry("x: modeq3: m - 1 = 3*beta^(3/8)/alpha^(1/8)")[0]
        lhs, rhs = self._sides(spec)
        p = Fraction(1)
        assert sum(_term_value(t, p) for t in lhs) != \
            sum(_term_value(t, p) for t in rhs)


class TestCrossValidation:
    def test_sift_and_ternary_routes_agree(self, registry):
        assert verify_series(registry["2.17"], 300).passed
        assert verify_ternary(registry["2.18"], 500).passed

    def test_verify_entry_dispatch(self, registry):
        assert verify_entry(registry["1.11"], terms=100).passed
        assert verify_entry(registry["2.20"], mmax=300).passed
        assert verify_entry(registry["2.p1"], limit=200).passed
        assert verify_entry(registry["2.7"]).passed
        assert verify_entry(registry["4.1"]).passed


def reference_eval(node, n):
    """The plain evaluator: every product folded from Series.one(n), every
    sift body expanded to t*(n-1)+s+1 terms and then sifted."""
    if isinstance(node, identities.Sift):
        need = node.step * (n - 1) + node.residue + 1 if n > 0 else 0
        return sift(reference_eval(node.body, need), node.step, node.residue)
    if isinstance(node, identities.Neg):
        return -reference_eval(node.body, n)
    if isinstance(node, identities.Add):
        total = Series.zero(n)
        for term in node.terms:
            total = total + reference_eval(term, n)
        return total
    if isinstance(node, identities.Mul):
        total = Series.one(n)
        for factor, inverted in node.factors:
            value = reference_eval(factor, n)
            total = total * (invert(value) if inverted else value)
        return total
    if isinstance(node, identities.Pow):
        k = node.exponent.numerator
        base = reference_eval(node.base, n)
        if k < 0:
            base, k = invert(base), -k
        total = Series.one(n)
        for _ in range(k):
            total = total * base
        return total
    return eval_series(node, n)


def _outcome(evaluate, node, n):
    """The value, or the message of the ValueError raised."""
    try:
        return evaluate(node, n)
    except ValueError as err:
        return f"ValueError: {err}"


def _expr(text, mode="sift"):
    return parse_registry(f"x: {mode}: {text}")[0].lhs


class TestSiftedEvaluation:
    """A sift of a product is evaluated from the sifts of its factors; it
    must give what expanding the whole body and sifting gives."""

    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    def test_shipped_sift_entries(self, registry, n):
        specs = [spec for spec in registry.values() if spec.mode == "sift"]
        assert len(specs) == 27
        for spec in specs:
            for side in (spec.lhs, spec.rhs):
                assert eval_series(side, n) == reference_eval(side, n), spec.name

    @pytest.mark.parametrize("text", [
        "S[2,1](S[3,1](phi(q)))",
        "S[2,1](S[3,1](phi(q)*psi(q)))",
        "S[3,1](phi(q)/E(q))",
        "S[5,2](phi(q)^3)",
        "S[4,1](q*psi(q)*2*phi(q^2))",
        "S[7,3](-phi(q) + 2*psi(q)*E(q))",
        "S[6,5](3*(phi(q) - psi(q)*chi(q)))",
        "S[9,4](0*phi(q)*psi(q))",
        "S[8,7](2*3)",
        "S[1,0](phi(q)*psi(q^3))",
        "S[60,59](phi(q)*phi(q^6)^2*psi(q^5))",
        "S[3,2](S[2,1](phi(q) - 2*S[5,3](psi(q)*E(q))))",
        "S[2,0](-S[3,2](S[4,1](phi(q)*psi(q))))",
    ])
    @pytest.mark.parametrize("n", [0, 1, 2, 40])
    def test_expressions(self, text, n):
        node = _expr(text)
        assert _outcome(eval_series, node, n) == \
            _outcome(reference_eval, node, n)

    @pytest.mark.parametrize("body", [
        "phi(q)*phi(q^7)^2*psi(q)",
        "phi(q) - 2*q*psi(q^3) + E(q^2)",
        "E(q^2)*psi(q)/(1 - q^3)",
    ])
    @pytest.mark.parametrize("t,s,u,r", [(2, 1, 3, 2), (4, 0, 3, 1)])
    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    def test_nested_sifts_compose(self, body, t, s, u, r, n):
        nested = _expr(f"S[{t},{s}](S[{u},{r}]({body}))")
        flat = _expr(f"S[{t * u},{u * s + r}]({body})")
        value = _outcome(eval_series, nested, n)
        assert value == _outcome(eval_series, flat, n)
        assert value == _outcome(reference_eval, nested, n)
        assert value == _outcome(
            lambda node, n: eval_series(node, n, t * u, u * s + r),
            _expr(body), n)

    def test_size_cap_is_checked_before_expanding(self, monkeypatch):
        def no_expand(*_):
            raise AssertionError("expanded past the size cap")
        node = _expr("S[10,3](phi(q)*psi(q))")  # needs 10*(n-1)+4 terms
        monkeypatch.setattr(identities, "MAX_TERMS", 104)
        assert eval_series(node, 11) == reference_eval(node, 11)
        monkeypatch.setattr(identities, "_expand", no_expand)
        with pytest.raises(ValueError, match=r"S\[10,3\] of 12 terms needs "
                                             r"114 coefficients, more than 104"):
            eval_series(node, 12)
        with pytest.raises(ValueError, match=r"S\[100,39\] of 2 terms"):
            eval_series(_expr("S[10,3](S[10,9](phi(q)))"), 2)

    def test_largest_shipped_sift_at_ten_thousand_terms(self, registry):
        assert verify_entry(registry["4.s56a"], terms=10000).passed


class TestSignedSums:
    """A minus sign after the first term of a sum subtracts that term; only
    a leading one negates.  The values are those of negating every minus
    term and adding, as reference_eval does."""

    @pytest.mark.parametrize("text, whole, odd, negations", [
        ("phi(q)^2 - psi(q^2)^2",
         [0, 4, 2, 0, 3, 8, -2, 0, 2, 4, 8, 0], [4, 0, 8, 0, 4, 0], 0),
        ("-phi(q)^2 + psi(q^2)^2",
         [0, -4, -2, 0, -3, -8, 2, 0, -2, -4, -8, 0], [-4, 0, -8, 0, -4, 0],
         1),
        ("-phi(q)^2 - psi(q^2)^2",
         [-2, -4, -6, 0, -5, -8, -2, 0, -6, -4, -8, 0], [-4, 0, -8, 0, -4, 0],
         1),
    ])
    def test_pinned_values(self, text, whole, odd, negations, monkeypatch):
        node = _expr(text, "series")
        assert eval_series(node, 12) == reference_eval(node, 12)
        calls = []
        negate = Series.__neg__
        monkeypatch.setattr(Series, "__neg__",
                            lambda self: calls.append(1) or negate(self))
        assert list(eval_series(node, 12).coeffs) == whole
        assert list(eval_series(node, 6, 2, 1).coeffs) == odd
        assert len(calls) == 2 * negations

    @pytest.mark.parametrize("text", [
        "phi(q) - 2*psi(q) - E(q^3)",
        "-psi(q)*E(q) - phi(q)^2 + q*chi(q) - 3",
        "phi(q) - -psi(q)",
        "phi(q) - S[3,1](psi(q)*E(q))",
    ])
    @pytest.mark.parametrize("t, s", [(1, 0), (3, 2)])
    def test_matches_negate_then_add(self, text, t, s):
        node = _expr(text)
        need = t * 39 + s + 1
        assert eval_series(node, 40, t, s) == sift(
            reference_eval(node, need), t, s)


class TestScalarFolding:
    @pytest.mark.parametrize("text", [
        "2*3", "0*phi(q)", "-3*q^2*psi(q)*2", "phi(q)*E(q)^-1",
        "phi(q)/E(q)*5", "7", "-2*psi(q)*0*E(q)",
    ])
    @pytest.mark.parametrize("n", [0, 1, 6, 300])
    def test_matches_fold_from_one(self, text, n):
        node = _expr(text, "series")
        assert _outcome(eval_series, node, n) == \
            _outcome(reference_eval, node, n)

    def test_inverted_integer_is_still_a_division(self):
        with pytest.raises(ValueError, match="not a unit"):
            eval_series(_expr("phi(q)/2", "series"), 10)
        assert eval_series(_expr("phi(q)/1", "series"), 10) == \
            eval_series(_expr("phi(q)", "series"), 10)


def schoolbook_power(base, k, n):
    """base**k to n terms by k schoolbook products folded from 1."""
    out = [1] + [0] * (n - 1)
    for _ in range(k):
        out = [sum(out[i] * base[j - i] for i in range(j + 1))
               for j in range(n)]
    return out


class TestLeafPowerCache:
    """A power of a leaf comes from a bounded cache: the same series as the
    power computed afresh, and a refusal that raises every time."""

    @pytest.mark.parametrize("text, leaf", [
        ("phi(q)^2", "phi(q)"), ("psi(-q^3)^3", "psi(-q^3)"),
        ("f(q,q^5)^-1", "f(q,q^5)"), ("E(q)^-2", "E(q)"),
    ])
    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_matches_uncached_power(self, text, leaf, n):
        node = parse_expression(text)
        k = node.exponent.numerator
        base = eval_series(parse_expression(leaf), n)
        if k < 0:
            base = invert(base)
        value = eval_series(node, n)
        assert value == base ** abs(k)
        assert list(value.coeffs) == schoolbook_power(base.coeffs, abs(k), n)
        assert eval_series(node, n) is value

    def test_cache_is_bounded(self):
        info = identities._leaf_power.cache_info
        assert info().maxsize == 2
        squares = [parse_expression(f"phi(q^{p})^2") for p in (1, 2, 3)]
        for node in squares:
            eval_series(node, 50)
        assert info().currsize == 2
        misses = info().misses
        eval_series(squares[2], 50)
        assert info().misses == misses
        # the oldest square was dropped, and is built again
        assert eval_series(squares[0], 50) == reference_eval(squares[0], 50)
        assert info().misses == misses + 1

    @pytest.mark.parametrize("node, message", [
        (parse_expression("phi(q)^100"), "may exceed 2^256"),
        (identities.Pow(parse_expression("phi(q)"), Fraction(1, 2)),
         "fractional exponent outside modeq3"),
    ])
    def test_refusal_is_not_kept(self, node, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)):
                eval_series(node, 10)


class TestEtaAtomShift:
    """An eta atom is its unit moved up by the offset, as the product
    q^offset * unit gives it, whether the offset is 0, inside the
    truncation or past it."""

    @pytest.mark.parametrize("text, offset", [
        ("eta{1:2,2:-1}", 0), ("eta{1:24}", 1), ("eta{1:72}", 3)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 40])
    def test_matches_the_product(self, text, offset, n):
        node = parse_expression(text)
        exps = dict(node.exponents)
        got, unit = expand_eta_quotient(EtaQuotient.from_dict(lcm(*exps), exps), n)
        assert got == offset
        assert eval_series(node, n) == Series.monomial(offset, n) * unit


def _mask_period(c):
    return lcm(*(v for v in (c.modulus,
                             *(w * w if exact else w for w, exact in c.divides),
                             *(den for den, _ in c.jacobi)) if v))


class TestQualifyingMask:
    """The periodic mask against the per-M `qualifies` loop."""

    def test_shipped_condition_sets(self, registry):
        sets = {spec.conditions for spec in registry.values()}
        assert len(sets) > 10
        for cond in sets:
            p = _mask_period(cond)
            for n in (0, 1, p, p + 1, 10001):
                want = bytes(m > 0 and cond.qualifies(m) for m in range(n))
                assert identities._qualifying(cond, n) == want, (cond, n)

    @pytest.mark.parametrize("where", [
        "M = 3,5 mod 12, 5||M, (M|11) = -1",
        "2||M, 9|M",
        "(M|3) = 1, (M|5) = -1",
        "M = -1 mod -7",
    ])
    def test_combined_conditions(self, where):
        text = f"x: ternary: (1,1,1,0,0,0)(M) = 0 where {where}"
        cond = parse_registry(text)[0].conditions
        p = _mask_period(cond)
        for n in (2, p - 1, p, p + 1, 3 * p + 2, 5000):
            want = bytes(m > 0 and cond.qualifies(m) for m in range(n))
            assert identities._qualifying(cond, n) == want


class TestNestingDepth:
    HEADER = "x: series: "

    def test_unary_minus_signs_rejected_at_the_offending_token(self):
        text = self.HEADER + "-" * 3000 + "phi(q)"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert err.value.line == 1
        assert err.value.col == len(self.HEADER) + identities.MAX_DEPTH + 1
        assert "nested deeper" in str(err.value)

    def test_parentheses_rejected_at_the_offending_token(self):
        depth = identities.MAX_DEPTH
        text = self.HEADER + "(" * depth + "phi(q)" + ")" * depth
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert err.value.col == len(self.HEADER) + depth + 1

    @pytest.mark.parametrize("open_, close", [
        ("(", ")"), ("-", ""), ("-(", ")"), ("(1+", ")"), ("(2*", ")"),
        ("S[1,0](", ")"), ("S[2,0](2*", ")")])
    def test_deepest_allowed_nesting_evaluates(self, open_, close):
        levels = identities.MAX_DEPTH - 1
        if open_ in ("-(", "S[2,0](2*"):
            levels = identities.MAX_DEPTH // 2 - 1
        if open_.startswith("S[2"):
            levels = 12  # each level doubles the terms the body needs
        text = open_ * levels + "phi(q)" + close * levels
        node = _expr(text, "series")
        assert eval_series(node, 5) == reference_eval(node, 5)


class TestRangeErrorsAtTheirInteger:
    """A sift range, a q power and a substitution power out of range are
    reported at the offending integer, its '-' included, as where values
    are; t is the one at fault when it is below 1."""

    @pytest.mark.parametrize("statement, col, message", [
        ("S[8,9](phi(q)) = 0", 16, "sift requires 0 <= s < t, got t=8, s=9"),
        ("S[8,-1](phi(q))", 16, "sift requires 0 <= s < t, got t=8, s=-1"),
        ("S[0,0](phi(q))", 14, "sift requires 0 <= s < t, got t=0, s=0"),
        ("S[-2,1](phi(q))", 14, "sift requires 0 <= s < t, got t=-2, s=1"),
        ("phi(q^0) = 1", 18, "substitution power must be >= 1"),
        ("psi(-q^-2)", 19, "substitution power must be >= 1"),
        ("f(q,-q^0) = 0", 19, "substitution power must be >= 1"),
        ("q^-1 = 0", 14, "negative q powers are not supported"),
    ])
    def test_reported_at_the_integer(self, statement, col, message):
        text = f"a: series: {statement}"
        assert text[col - 1] in "-0123456789"
        with pytest.raises(RegistryError) as err:
            parse_registry(text)
        assert str(err.value) == f"line 1, col {col}: {message}"

    def test_expression_error_at_the_integer(self):
        with pytest.raises(RegistryError) as err:
            parse_expression("2*S[4, 4](phi(q))")
        assert (err.value.line, err.value.col) == (1, 8)


def _shipped_entries() -> list[str]:
    """Each shipped entry's text, its continuation lines included."""
    text = default_registry_file().read_text(encoding="utf-8")
    entries: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            if line[0] in " \t":
                entries[-1] += "\n" + line
            else:
                entries.append(line)
    return entries


# whitespace runs and tokens, and any other character on its own
_PIECE = re.compile(r"\s+|[A-Za-z0-9._]+|\|\||\S")
# the DSL's words and symbols, characters that start no token, and breaks
# that start or continue a line
_EDITS = (
    "phi", "psi", "E", "chi", "u", "f", "q", "S", "eta", "M", "W", "eps",
    "SW", "SEW", "m", "alpha", "beta", "where", "mod", "expect", "negative",
    "level", "theta", "series", "ternary", "modeq3", "2.4", "0", "1", "2",
    "8", "-", "+", "*", "/", "^", "(", ")", "{", "}", "[", "]", ",", ":",
    ";", "|", "||", "=", "$", "\u2261", "\t", " ", "\n", "\n    ")
# pieces that one mode admits and another refuses
_FRAGMENTS = (
    "^2", "/2", "^(1/2)", "+1", "*(1,1,1,0,0,0)(M)", "*W(1,1,1,0,0,0)(M)",
    "*eps(1,1,1,0,0,0;3)", "*(M|3)", "*m", "*phi(q^2)", "*eta{1:24}", "-0",
    " where M = 1 mod 4", " where 3|M", " where level 4", " where theta 2.4",
    " where expect negative", ", level 4", ", (M|3) = 1")


@st.composite
def _edited(draw, texts):
    """One or two of texts, joined by a line break, after 1 to 3 edits:
    a piece inserted, deleted or replaced, or a fragment inserted."""
    pieces = _PIECE.findall("\n".join(
        draw(st.lists(st.sampled_from(texts), min_size=1, max_size=2))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(pieces)))
        edit = draw(st.sampled_from(("insert", "delete", "replace",
                                     "fragment")))
        if edit == "delete" and at < len(pieces):
            del pieces[at]
        else:
            new = draw(st.sampled_from(
                _FRAGMENTS if edit == "fragment" else _EDITS))
            pieces[at:at + (edit == "replace")] = [new]
    return "".join(pieces)


def _read(parse, text) -> str:
    try:
        return repr(parse(text))
    except RegistryError as err:
        return f"RegistryError: {err}"


class TestReaderOracle:
    """The reader against the reader by token tuples in tests/oracles.py on
    edited shipped entries: equal specs, or errors with equal messages and
    positions."""

    ENTRIES = _shipped_entries()
    # the statements of the expression modes, as `thetaforms expand` reads
    STATEMENTS = [e.split(":", 2)[2].split("where")[0] for e in ENTRIES
                  if e.split(":")[1].strip() in ("series", "sift",
                                                 "positivity")]

    def test_fragments_after_each_atom(self):
        # every fragment after every piece that can end an atom, in the
        # shortest shipped entry of each mode; both eta entries are long
        shortest = {"eta": "e: eta: eta{2:24}/eta{1:24} - q^2 = 1 "
                           "where level 2"}
        for entry in sorted(self.ENTRIES, key=len):
            shortest.setdefault(entry.split(":")[1].strip(), entry)
        cases = 0
        for entry in shortest.values():
            pieces = _PIECE.findall(entry)
            for at, piece in enumerate(pieces, 1):
                if piece not in (")", "}") and not piece[0].isalnum():
                    continue
                for fragment in _FRAGMENTS:
                    text = "".join(pieces[:at] + [fragment] + pieces[at:])
                    cases += 1
                    assert _read(parse_registry, text) == _read(
                        parse_registry_by_tuples, text), text
        assert cases > 500

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_edited(ENTRIES))
    def test_edited_entries(self, text):
        assert _read(parse_registry, text) == _read(parse_registry_by_tuples,
                                                    text)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_edited(STATEMENTS))
    def test_edited_expressions(self, text):
        assert _read(parse_expression, text) == _read(
            parse_expression_by_tuples, text)


class TestReaderCallCount:
    """A bound on the reader's work that no timer decides: the Python-level
    calls of one parse of the shipped registry, 5,985 when this was written
    (the reader by token tuples made 35,497)."""

    def test_calls_per_shipped_parse(self):
        text = default_registry_file().read_text(encoding="utf-8")
        parse_registry(text)  # fills the leaf caches
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"
        sys.setprofile(count)
        try:
            parse_registry(text)
        finally:
            sys.setprofile(None)
        assert calls <= 6600
