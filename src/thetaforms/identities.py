"""Identity registry parsing and the verification engine.

Registry grammar (one entry per line; indented lines continue the entry;
'#' starts a comment):

    NAME ':' MODE ':' STATEMENT ['where' COND {',' COND}]

Modes and statements:

* ``series`` / ``sift`` -- STATEMENT is ``expr = expr`` (or a bare expr,
  compared against zero).  Expressions combine integer literals, ``q^j``
  prefactors, named series ``phi(q^k)``, ``psi(-q^3)``, ``E(q^k)``,
  ``chi(q)``, ``u(q)``, two-parameter sums ``f(q^a,q^b)`` with optional
  minus signs on either argument, sifting ``S[t,s](expr)``, and the
  operators ``+ - * / ^``.  Division requires a unit constant term, and
  a power whose coefficients could pass 2^`MAX_EXPONENT` is refused.
* ``ternary`` -- both sides are integer combinations of counts: the
  representation counts ``(a,b,c,d,e,f)(M)`` and ``(a,b,c,d,e,f)(M/w^2)``,
  weighted genus counts ``W(a,b,c,d,e,f)(M)``, and the lifted-union
  aggregates ``SW(S)(M)`` and ``SEW(S;w)(M)``; a count may be scaled by
  integers and characters ``eps(a,b,c,d,e,f;w)``.  Each count is read as
  its generating series sum_M count(M) q^M, so an entry is checked as a
  coefficient identity of theta series at the qualifying M, with the count
  series that `eval_series` also reads: ``(form)(M/w^2)`` is the form's
  theta series under q -> q^(w^2), ``W`` is the weighted sum of the
  genus's theta series, ``eps`` is a constant, and ``SW``/``SEW`` sum the
  ``W`` series of the lifted genera, times their characters for ``SEW``.
  Since a product of series is a Cauchy product, which is not the product
  of counts at one M, the parser rejects ``/``, ``^``, a product of two
  counts, and a nonzero summand without a count.  It also rejects a w
  below 1 in ``M/w^2``, a ``SEW`` w that is not a positive divisor of S
  and an ``eps`` w that is not odd and positive.
* ``positivity`` -- STATEMENT is a single series expression; the entry
  passes when every coefficient up to the limit is nonnegative, unless the
  clause ``expect negative`` flips the expectation (a witness exponent is
  reported either way).
* ``modeq3`` -- identities in ``m``, ``alpha``, ``beta`` with rational
  exponents in eighths.  Through the degree-3 parametrization each
  monomial is a rational number times integer powers of p, 2+p and 1+2p
  (:mod:`thetaforms.modeq`); the entry holds when lhs - rhs, cleared of
  denominators, expands to the zero polynomial in p.  A ``theta NAME``
  clause names the companion ``series`` or ``sift`` entry of the same
  registry, the independent numeric cross-check that the suite verifies
  in its own right.
* ``eta`` -- a rational combination of ``eta{d:r,...}`` monomials equal to
  a constant, proved by the valence-bound prover; requires ``level N``.  A
  product, quotient or integer power of atoms is one quotient; a sum under
  ``/`` or ``^`` and any other primitive are refused, as in ``modeq3``,
  and so is a side that multiplies out to more than `MAX_MONOMIALS`
  monomials or carries an exponent past `MAX_EXPONENT`.

Conditions: ``M = r1,r2 mod t`` (also accepts the congruence sign),
``w|M``, ``p||M`` (exact division), ``(M|a) = +-1``; these belong to
``ternary`` entries, as ``expect`` belongs to ``positivity``, ``level`` to
``eta`` and ``theta`` to ``modeq3``, and a clause in another mode's entry
is an error.  Divisor and Jacobi clauses may repeat; a second ``M = ...``,
``expect``, ``level`` or ``theta`` clause is an error, and so is a residue
that repeats mod t.  An expression may nest parentheses, sifts and unary
minus signs `MAX_DEPTH` deep.

An entry's tokens are the texts of one findall over its lines, then an
empty text for the end, where errors past the last token point.  A token's
line and column are found again from the entry's text only for an error.
`parse_expression` reads a lone expression, as ``thetaforms expand`` does.

Evaluation computes only the coefficients a verdict reads:

* a sift ``S[t,s]`` goes through sums, negation and integer factors,
  nested sifts compose into one (``S[t,s](S[u,r](X))`` is
  ``S[t*u,u*s+r](X)``), and the sift of a product A*B comes from
  `series.sift_product` of A and B, each expanded to t*(n-1)+s+1 terms,
  without forming A*B; a sift that would need more than `MAX_TERMS`
  coefficients of its body is refused;
* the plain integer factors of a product multiply into one integer, which
  scales the product of the other factors once (``/2`` still inverts, and
  fails as a non-unit);
* the mask of qualifying M is computed over one period of the conditions
  and tiled out to Mmax;
* a ternary side is formed at the qualifying M only: its integer factors
  and ``eps`` values fold into one integer per count, each count's series
  (one per lifted genus for ``SW``/``SEW``) is read at those M by one slice
  per residue class, scaled and added, and the smallest failing M is
  looked for only after the two value lists differ.
"""

from __future__ import annotations

import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import lcm
from operator import add, mul
from typing import NamedTuple

from .arith import jacobi
from .forms import TernaryForm, theta_series
from .genus import build_sgenus, epsilon, genus_of, weighted_coefficients
from .modeq import (ALPHA, BETA, M, Term, UnsupportedRadicand, cleared,
                    rational_root)
from .prover import EtaCombination, prove
from .series import (Series, compose_power, invert, is_nonnegative, sift,
                     sift_product)
from .theta import (BUILTIN_NAMES, EtaQuotient, eta_series, general_theta,
                    named_function)

__all__ = [
    "RegistryError", "EntryError", "IdentitySpec", "Conditions", "VerifyResult",
    "parse_registry", "parse_expression", "load_registry", "verify_series",
    "verify_ternary", "verify_positivity", "verify_modeq3", "verify_eta",
    "verify_entry", "run_suite",
]

# The run defaults: series coefficients compared, the largest M of a
# ternary entry, and the coefficients a positivity scan reads.
DEFAULT_TERMS = 500
DEFAULT_MMAX = 10000
DEFAULT_LIMIT = 1000


class RegistryError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class EntryError(ValueError):
    """An entry whose evaluation failed, such as a division by a non-unit;
    the message starts with the entry's name."""


# What evaluating an entry or expression raises for a fault of its input,
# such as a non-unit divisor or a length past what a list can hold or the
# memory can take.
EVAL_ERRORS = (ArithmeticError, LookupError, MemoryError, RuntimeError,
               ValueError)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Num(NamedTuple):
    value: int


class QPow(NamedTuple):
    power: int


class Named(NamedTuple):
    name: str
    power: int
    negate: bool


class Theta2(NamedTuple):
    x: int
    sign_x: int
    y: int
    sign_y: int


class EtaAtom(NamedTuple):
    exponents: tuple[tuple[int, int], ...]


class Sift(NamedTuple):
    step: int
    residue: int
    body: object


class Add(NamedTuple):
    terms: tuple


class Mul(NamedTuple):
    factors: tuple  # (node, inverted: bool)


class Neg(NamedTuple):
    body: object


class Pow(NamedTuple):
    base: object
    exponent: Fraction


class FormCount(NamedTuple):
    form: tuple
    divisor: int  # evaluate at M / divisor^2; zero count unless divisor^2 | M


class WeightedCount(NamedTuple):
    form: tuple


class EpsScalar(NamedTuple):
    form: tuple
    w: int


class UnionCount(NamedTuple):
    s: int
    w: int


class ModSym(NamedTuple):
    name: str  # m | alpha | beta


class Conditions(NamedTuple):
    residues: tuple[int, ...] = ()
    modulus: int = 0
    divides: tuple[tuple[int, bool], ...] = ()  # (w, exact)
    jacobi: tuple[tuple[int, int], ...] = ()    # (denominator, required value)
    expect_negative: bool = False
    level: int = 0
    theta_ref: str = ""
    theta_at: tuple[int, int] = (0, 0)  # (line, col) of the theta NAME

    def qualifies(self, m: int) -> bool:
        if self.modulus and m % self.modulus not in self.residues:
            return False
        for w, exact in self.divides:
            if m % w:
                return False
            if exact and m % (w * w) == 0:
                return False
        for den, want in self.jacobi:
            if jacobi(m, den) != want:
                return False
        return True


class IdentitySpec(NamedTuple):
    name: str
    mode: str
    lhs: object
    rhs: object  # None for positivity entries
    conditions: Conditions
    line: int


# ---------------------------------------------------------------------------
# tokenizing and parsing
# ---------------------------------------------------------------------------

# A token is a word or integer, '||', or one symbol.  An entry's tokens are
# the texts of one findall over its lines, once one search has found no
# character that starts none of them.
_TOKEN_RE = re.compile(r"\s*([-+*/^(){}\[\],:;=]|\|\|?|[A-Za-z0-9._]+)")
_BAD_RE = re.compile(r"[^\sA-Za-z0-9._+*/^(){}\[\],:;|=-]")
_HEADER_RE = re.compile(r"\s*([A-Za-z0-9._]+)\s*:\s*([A-Za-z0-9._]+)\s*:\s*")
# the atoms with q-arguments, as phi(-q^3) and f(q,q^2), and the counts
_QARG_ATOMS = frozenset(("f", *BUILTIN_NAMES))
_COUNTS = (FormCount, WeightedCount, UnionCount)
# Records are immutable, so equal leaves and whole exponents share one object
# (907 leaves in the shipped registry, 85 distinct): a hit costs no call.
_named, _num, _qpow, _whole = (lru_cache(maxsize=1024)(kind)
                               for kind in (Named, Num, QPow, Fraction))

MODES = ("series", "sift", "ternary", "positivity", "modeq3", "eta")
# The mode whose entries may carry each where clause; the M conditions
# belong to ternary entries.
CLAUSE_MODES = {"expect": "positivity", "level": "eta", "theta": "modeq3"}

# Deepest nesting of parentheses, sifts and unary minus signs that an
# expression may have; it bounds the recursion of the parser and of the
# evaluators.
MAX_DEPTH = 100
# Most coefficients that a sift may ask its body for: nested sifts
# multiply the steps, so a few levels could otherwise exhaust memory.
MAX_TERMS = 10**7
# Most monomials that a modeq3 or eta side may multiply out to: a product
# of k sums of two terms has 2^k of them.
MAX_MONOMIALS = 1024
# Largest exponent of a modeq3 or eta monomial (alpha and beta count in
# eighths); a power c^e of a coefficient may reach e*ceil(log2 |c|) of it,
# and a series power B^k may reach |k|*ceil(log2 of the sum of B's |c|).
MAX_EXPONENT = 256


def _place(body: str, linenos, at: int) -> tuple[int, int]:
    """(line, col) of offset `at` in an entry's lines joined by newlines."""
    return linenos[body.count("\n", 0, at)], at - body.rfind("\n", 0, at)


def _tokens(body: str, linenos) -> list[str]:
    """An entry's token texts, then the end ""."""
    bad = _BAD_RE.search(body)
    if bad:
        raise RegistryError(f"bad character {bad[0]!r}",
                            *_place(body, linenos, bad.start()))
    return _TOKEN_RE.findall(body) + [""]


class _Parser:
    """Recursive descent over `toks`, an entry's token texts and the end "",
    from `pos`; a statement is read up to an "" put in place of its 'where'.
    """

    def __init__(self, body: str, linenos, toks: list[str],
                 mode: str, start: tuple[int, int], lo: int):
        self.body, self.linenos, self.toks = body, linenos, toks
        self.mode, self.start = mode, start
        self.pos = self.lo = lo  # lo: the statement's first token
        self.depth = 0
        # int() refuses a literal longer than the interpreter's limit (0: none)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and len(body) > limit:
            for i in range(lo, len(toks)):
                if len(toks[i]) > limit and toks[i].isdigit():
                    raise self.fail(
                        f"integer literal longer than {limit} digits", i)

    # --- errors and primitives ---
    def spot(self, i: int) -> tuple[int, int]:
        """Token i's (line, col), found again in the body; an "" stands just
        after the token before it, or at `start` if the statement has none."""
        end = not self.toks[i]
        if end and i == self.lo:
            return self.start
        m = list(_TOKEN_RE.finditer(self.body))[i - end]
        return _place(self.body, self.linenos, m.end(1) if end else m.start(1))

    def fail(self, msg: str, i: int) -> RegistryError:
        return RegistryError(msg, *self.spot(i))

    def error(self, msg: str, named: str = " (at {!r})") -> RegistryError:
        """msg at the current token, which `named` names unless it is the end."""
        text = self.toks[self.pos]
        return self.fail(msg + named.format(text) if text else msg, self.pos)

    def wrong(self, msg: str, named: str = ", found {!r}") -> RegistryError:
        """The current token is not the one msg asks for, or the entry ended."""
        return self.error(msg if self.toks[self.pos] else
                          "unexpected end of entry", named)

    def expect(self, *texts: str) -> None:
        for text in texts:
            if self.toks[self.pos] != text:
                raise self.wrong(f"expected {text!r}")
            self.pos += 1

    def take(self, options: tuple[str, ...], msg: str) -> str:
        """The current token, stepped over, if it is one of options."""
        text = self.toks[self.pos]
        if text not in options:
            raise self.wrong(msg, "")
        self.pos += 1
        return text

    def num(self, ok=None, msg: str = "") -> int:
        """An integer, digits after an optional '-'; raises msg at its first
        token unless ok(value)."""
        at = self.pos
        neg = self.toks[at] == "-"
        self.pos += neg
        text = self.toks[self.pos]
        if not text.isdigit():
            raise self.wrong("expected integer")
        self.pos += 1
        value = -int(text) if neg else int(text)
        if ok is not None and not ok(value):
            raise self.fail(msg, at)
        return value

    # --- expressions ---
    def expr(self):
        """Summands joined by '+' and '-', each a product of factors joined
        by '*' and '/', each a power of an atom under unary minus signs; the
        ternary rules are checked as each piece ends.  A factor nests one
        level deeper than its expression, and so does each of its signs."""
        toks, ternary, depth = self.toks, self.mode == "ternary", self.depth
        terms = []
        negate = held = False  # held: whether a summand holds a count
        while True:
            start, factors, inverted, counted = self.pos, [], False, False
            while True:
                at, signs = self.pos, 0
                while toks[self.pos] == "-" and depth + signs < MAX_DEPTH:
                    self.pos += 1
                    signs += 1
                if depth + signs >= MAX_DEPTH:
                    raise self.error(f"expression nested deeper than {MAX_DEPTH}")
                self.depth = depth + signs + 1
                node = self.atom()
                if toks[self.pos] == "^":
                    if ternary:
                        raise self.fail("ternary entries take no powers",
                                        self.pos)
                    self.pos += 1
                    node = Pow(node, self.exponent())
                # a ternary atom holds a count if it is one, or if it is a
                # parenthesis whose expression held one
                if ternary and (type(node) in _COUNTS or type(node) in (
                        Add, Mul, Neg) and self.held):
                    if counted:
                        raise self.fail("a ternary product takes one count", at)
                    counted = True
                while signs:
                    node, signs = Neg(node), signs - 1
                factors.append((node, inverted))
                op = toks[self.pos]
                if op == "*":
                    inverted = False
                elif op != "/":
                    break
                elif ternary:
                    raise self.fail("ternary entries do not divide", self.pos)
                else:
                    inverted = True
                self.pos += 1
            term = node if len(factors) == 1 else Mul(tuple(factors))
            if ternary and not counted and (type(term) is not Num
                                            or term.value):
                raise self.fail("each ternary summand needs a count", start)
            held = held or counted
            terms.append(Neg(term) if negate else term)
            op = toks[self.pos]
            if op != "+" and op != "-":
                self.depth, self.held = depth, held
                return terms[0] if len(terms) == 1 else Add(tuple(terms))
            negate = op == "-"
            self.pos += 1

    def exponent(self) -> Fraction:
        if self.toks[self.pos] != "(":
            return _whole(self.num())
        self.pos += 1
        num = self.num()
        self.expect("/")
        den = self.num(bool, "exponent denominator must be nonzero")
        self.expect(")")
        if self.mode != "modeq3":
            raise self.error("fractional exponents only occur in modeq3")
        return Fraction(num, den)

    def form(self) -> tuple:
        """Six integers split by ','."""
        pos, toks = self.pos, self.toks
        vals = toks[pos:pos + 11:2]
        if toks[pos + 1:pos + 11:2] == [","] * 5 and all(map(str.isdigit, vals)):
            self.pos += 11
            return tuple(map(int, vals))
        vals = [self.num()]
        for _ in range(5):
            self.expect(",")
            vals.append(self.num())
        return tuple(vals)

    def count_arg(self) -> int:
        """'(M)' or '(M/w^2)': w."""
        if self.toks[self.pos:self.pos + 3] == ["(", "M", ")"]:
            self.pos += 3
            return 1
        self.expect("(")
        self.take(("M",), "count argument must be M or M/w^2")
        w = 1
        if self.toks[self.pos] == "/":
            self.pos += 1
            w = self.num(lambda w: w >= 1, "w in M/w^2 must be positive")
            self.expect("^", "2")
        self.expect(")")
        return w

    def atom(self):
        toks, pos, mode = self.toks, self.pos, self.mode
        word = toks[pos]
        if word in _QARG_ATOMS and mode != "ternary" and mode != "modeq3":
            # '(' then one q-argument, or two split by ',' for f, then ')'
            self.pos += 1
            sign = power = 0
            for sep in ("(", ",") if word == "f" else ("(",):
                sx, x = sign, power  # f's first argument, once both are read
                if toks[self.pos] != sep:
                    raise self.wrong(f"expected {sep!r}")
                sign = -1 if toks[self.pos + 1] == "-" else 1
                self.pos += 1 + (sign < 0)
                if toks[self.pos] != "q":
                    raise self.wrong("expected q")
                self.pos += 1
                power = 1
                if toks[self.pos] == "^":
                    self.pos += 1
                    at, power = self.pos, self.num()
                    if power < 1:
                        raise self.fail("substitution power must be >= 1", at)
            self.expect(")")
            if word == "f":
                return Theta2(x, sx, power, sign)
            return _named(word, power, sign < 0)
        if word.isdigit():
            self.pos += 1
            return _num(int(word))
        if word == "(":
            if mode == "ternary" and toks[pos + 1] == "M":
                # Jacobi-style scalars never appear in expressions
                raise self.error("unexpected (M...) in expression")
            self.pos += 1
            if (mode == "ternary" and toks[pos + 1].isdigit()
                    and toks[pos + 2] == ","):
                form = self.form()
                self.expect(")")
                return FormCount(form, self.count_arg())
            node = self.expr()
            self.expect(")")
            return node
        if not word:
            raise self.error("missing operand")
        if not (word[0].isalnum() or word[0] in "._"):
            raise self.error("unexpected symbol")
        if mode == "modeq3":
            if word not in ("m", "alpha", "beta"):
                raise self.error(f"unknown modeq3 symbol {word!r}")
            self.pos += 1
            return ModSym(word)
        if mode == "ternary":
            if word not in ("W", "eps", "SW", "SEW"):
                raise self.error(f"unknown ternary primitive {word!r}")
            self.pos += 1
            self.expect("(")
            arg = self.num() if word in ("SW", "SEW") else self.form()
            w = 1  # SW(S) is SEW(S;1): every character at 1 is +1
            if word == "eps":
                self.expect(";")
                w = self.num(lambda w: w >= 1 and w % 2,
                             "eps character w must be odd and positive")
            elif word == "SEW":
                self.expect(";")
                w = self.num(lambda w: w >= 1 and arg % w == 0,
                             "SEW character w must be a positive divisor of S")
            self.expect(")")
            if word == "eps":
                return EpsScalar(arg, w)
            if self.count_arg() != 1:
                raise self.error(f"{word} takes the plain argument M")
            return WeightedCount(arg) if word == "W" else UnionCount(arg, w)
        # series / sift / positivity / eta expression atoms
        if word not in ("q", "S", "eta"):
            raise self.error(f"unknown primitive {word!r}")
        self.pos += 1
        if word == "q":
            power = 1
            if toks[self.pos] == "^":
                self.pos += 1
                at, power = self.pos, self.num()
                if power < 0:
                    raise self.fail("negative q powers are not supported", at)
            return _qpow(power)
        if word == "S":
            self.expect("[")
            at, t = self.pos, self.num()
            self.expect(",")
            s_at, s = self.pos, self.num()
            if not 0 <= s < t:  # t below 1 admits no s
                raise self.fail(f"sift requires 0 <= s < t, got t={t}, s={s}",
                                at if t < 1 else s_at)
            self.expect("]", "(")
            body = self.expr()
            self.expect(")")
            return Sift(t, s, body)
        self.expect("{")  # eta
        exps = {}
        while True:
            delta = self.num()
            self.expect(":")
            r = self.num()
            if delta in exps:
                raise self.error(f"duplicate eta divisor {delta}")
            exps[delta] = r
            if toks[self.pos] != ",":
                break
            self.pos += 1
        self.expect("}")
        return EtaAtom(tuple(sorted(exps.items())))

    # --- conditions ---
    def conditions(self) -> Conditions:
        """['where' COND {',' COND}] up to the end."""
        toks = self.toks
        if toks[self.pos] != "where":
            return Conditions()
        self.pos += 1
        residues, modulus, divides, jac, seen = (), 0, [], [], set()
        expect_negative, level, theta_ref, theta_at = False, 0, "", (0, 0)
        while True:
            at = self.pos
            text = toks[at]
            owner = CLAUSE_MODES.get(text, "ternary")
            # divisor and Jacobi clauses add up; any other kind comes once
            if text in seen:
                raise self.fail(f"duplicate {text!r} clause", at)
            if text == "M" or text in CLAUSE_MODES:
                seen.add(text)
            if text == "M":
                self.pos += 1
                self.expect("=")
                rs = [(self.pos, self.num())]
                while (toks[self.pos] == "," and toks[self.pos + 1].isdigit()
                       and toks[self.pos + 2] in (",", "mod")):
                    self.pos += 1
                    rs.append((self.pos, self.num()))
                self.take(("mod",), "expected 'mod'")
                modulus = abs(self.num(bool, "modulus must be nonzero"))
                for i, r in rs:  # a repeat would be read twice
                    if r % modulus in residues:
                        raise self.fail(f"residue {r} repeats an earlier one "
                                        f"mod {modulus}", i)
                    residues += (r % modulus,)
            elif text.isdigit():
                w = self.num(bool, "divisor must be positive")
                bar = self.take(("|", "||"), "expected | or ||")
                self.expect("M")
                divides.append((w, bar == "||"))
            elif text == "(":
                self.pos += 1
                self.expect("M", "|")
                den = self.num(lambda d: d > 0 and d % 2,
                               "Jacobi denominator must be odd and positive")
                self.expect(")", "=")
                want = self.num(lambda v: v in (-1, 0, 1),
                                "Jacobi value must be -1, 0 or 1")
                jac.append((den, want))
            elif text == "expect":
                self.pos += 1
                expect_negative = self.take(
                    ("negative", "nonnegative"),
                    "expect clause takes negative/nonnegative") == "negative"
            elif text == "level":
                self.pos += 1
                level = self.num()
            elif text == "theta":
                self.pos += 1
                if not toks[self.pos]:
                    raise self.wrong("")
                theta_ref, theta_at = toks[self.pos], self.spot(self.pos)
                self.pos += 1
            else:
                raise self.error("unknown condition" if text
                                 else "expected a condition")
            if owner != self.mode:
                raise self.fail(f"this clause applies only to {owner} "
                                f"entries", at)
            if toks[self.pos] != ",":
                break
            self.pos += 1
        if toks[self.pos]:
            raise self.error("trailing tokens after conditions")
        return Conditions(residues, modulus, tuple(divides), tuple(jac),
                          expect_negative, level, theta_ref, theta_at)


def parse_registry(text: str) -> list[IdentitySpec]:
    """Parse the registry text; raises RegistryError with line/column."""
    entries: list[list[tuple[int, str]]] = []  # the numbered lines of each
    for lineno, raw in enumerate(text.replace("≡", "=").splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] not in " \t":
            entries.append([])
        elif not entries:
            raise RegistryError("continuation line without an entry", lineno, 1)
        entries[-1].append((lineno, line))
    specs: list[IdentitySpec] = []
    names = set()
    for entry in entries:
        # a bad character anywhere in the entry, the header included, is
        # reported at its column; the header is its first four tokens
        linenos, lines = zip(*entry)
        body = "\n".join(lines)
        tokens = _tokens(body, linenos)
        header = _HEADER_RE.match(lines[0])
        if header is None:
            raise RegistryError("entry must start with 'name: mode:'",
                                linenos[0], 1)
        name, mode = header.groups()
        if mode not in MODES:
            raise RegistryError(f"unknown mode {mode!r}", linenos[0],
                                header.start(2) + 1)
        if name in names:
            raise RegistryError(f"duplicate identity name {name!r}",
                                linenos[0], 1)
        names.add(name)
        # the statement ends at the first 'where', or at the end
        where_at = tokens.index("where", 4) if "where" in tokens[4:] else -1
        where, tokens[where_at] = tokens[where_at], ""
        p = _Parser(body, linenos, tokens, mode,
                    (linenos[0], header.end() + 1), 4)
        lhs = p.expr()
        rhs = None
        if tokens[p.pos] == "=":
            p.pos += 1
            rhs = p.expr()
        if tokens[p.pos]:
            raise p.error("trailing tokens after statement")
        if mode == "positivity" and rhs is not None:
            raise RegistryError("positivity entries take a single expression",
                                linenos[0], 1)
        tokens[where_at] = where
        conditions = p.conditions()
        if mode == "eta" and conditions.level < 1:
            raise RegistryError(f"eta entry {name!r} needs a level clause",
                                linenos[0], 1)
        rhs = _num(0) if rhs is None and mode != "positivity" else rhs
        specs.append(IdentitySpec(name, mode, lhs, rhs, conditions, linenos[0]))
    return specs


def parse_expression(text: str):
    """The AST of one series expression on one line, such as ``thetaforms
    expand`` reads; raises RegistryError with line 1 and the column."""
    text = text.replace("≡", "=").replace("\n", " ")  # all of it is line 1
    parser = _Parser(text, [1], _tokens(text, [1]), "series", (1, 1), 0)
    node = parser.expr()
    if parser.toks[parser.pos]:
        raise parser.error("trailing tokens")
    return node


def load_registry(path) -> dict[str, IdentitySpec]:
    """Parse a registry file; its theta clauses must name its own series or
    sift entries (`parse_registry` also takes an entry apart from its file)."""
    with open(path, "r", encoding="utf-8") as fh:
        registry = {spec.name: spec for spec in parse_registry(fh.read())}
    for spec in registry.values():
        ref = spec.conditions.theta_ref
        if ref and (ref not in registry
                    or registry[ref].mode not in ("series", "sift")):
            raise RegistryError(f"theta {ref!r} names no series or sift entry",
                                *spec.conditions.theta_at)
    return registry


def default_registry_file():
    from importlib.resources import files
    return files("thetaforms").joinpath("data/registry.txt")


def load_default_registry() -> dict[str, IdentitySpec]:
    from importlib.resources import as_file
    with as_file(default_registry_file()) as path:
        return load_registry(path)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def eval_series(node, n: int, t: int = 1, s: int = 0) -> Series:
    """S[t,s](node) to exactly n coefficients; t = 1 evaluates the node.

    A ternary count becomes its generating series in M (see the module
    docstring), the series that `verify_ternary` reads at the qualifying M
    only.  Sums and minus signs pass the sift through, and nested sifts
    compose, since S[t,s](S[u,r](X)) is S[t*u, u*s+r](X).  Anything else
    reads the body's coefficients up to t*(n-1)+s, and a sift that would
    need more than `MAX_TERMS` of them raises ValueError before any is
    computed.  The last two powers of a leaf evaluated, such as phi(q)^2,
    are kept (`_leaf_power`) and returned again as the same series.
    """
    if isinstance(node, Neg):
        return -eval_series(node.body, n, t, s)
    if isinstance(node, Add):
        total = eval_series(node.terms[0], n, t, s)
        for term in node.terms[1:]:
            if isinstance(term, Neg):
                total = total - eval_series(term.body, n, t, s)
            else:
                total = total + eval_series(term, n, t, s)
        return total
    if isinstance(node, Sift):
        u, r = node.step, node.residue
        return eval_series(node.body, n, t * u, u * s + r)
    need = t * (n - 1) + s + 1 if n > 0 else 0
    if t > 1 and need > MAX_TERMS:
        raise ValueError(f"S[{t},{s}] of {n} terms needs {need} coefficients, "
                         f"more than {MAX_TERMS}")
    if not isinstance(node, Mul):
        value = _expand(node, need)
        return sift(value, t, s) if t > 1 else value
    scalar, factors = _split_scalar(node.factors)
    if len(factors) == 1 and not factors[0][1]:
        value = eval_series(factors[0][0], n, t, s)
    elif t > 1 and factors and not factors[-1][1]:
        # the sift of the last product, without forming that product
        head = _product(factors[:-1], need)
        value = sift_product(head, eval_series(factors[-1][0], need), t, s)
    else:
        value = _product(factors, need)
        value = sift(value, t, s) if t > 1 else value
    return value if scalar == 1 else value * scalar


def _expand(node, n: int) -> Series:
    """A leaf or a power to n coefficients; a power of a leaf comes from
    `_leaf_power`."""
    if isinstance(node, Num):
        return Series.monomial(0, n, node.value)
    if isinstance(node, QPow):
        return Series.monomial(node.power, n)
    if isinstance(node, Named):
        return named_function(node.name, n, node.power, node.negate)
    if isinstance(node, Theta2):
        return general_theta(node.x, node.y, n, node.sign_x, node.sign_y)
    if isinstance(node, EtaAtom):
        level = lcm(*(d for d, _ in node.exponents))
        return eta_series(
            EtaQuotient.from_dict(level, dict(node.exponents)), n)
    if isinstance(node, Pow):
        if isinstance(node.base, (Named, Theta2)):
            return _leaf_power(node, n)
        return _series_power(node, n)
    if isinstance(node, FormCount):
        theta = theta_series(TernaryForm(*node.form), n)
        if node.divisor == 1:
            return theta
        return compose_power(theta, node.divisor * node.divisor, n)
    if isinstance(node, WeightedCount):
        record = genus_of(TernaryForm(*node.form))
        return Series._raw(weighted_coefficients(record, n))
    if isinstance(node, EpsScalar):
        record = genus_of(TernaryForm(*node.form))
        return Series.monomial(0, n, epsilon(record, node.w))
    if isinstance(node, UnionCount):
        return sum((eps * Series._raw(coeffs)
                    for eps, coeffs in _union_parts(node, n)), Series.zero(n))
    raise TypeError(f"cannot evaluate {type(node).__name__} as a series")


def _series_power(node: Pow, n: int) -> Series:
    """A power node to n coefficients: its base, inverted for a negative
    exponent, to the whole power."""
    if node.exponent.denominator != 1:
        raise ValueError("fractional exponent outside modeq3")
    k = node.exponent.numerator
    base = eval_series(node.base, n)
    if k < 0:
        base = invert(base)
    # |c| of base^k is at most (sum of |c| over base)^k; the sum runs
    # over the support, which the first product of the power reads too
    size = sum(map(abs, map(base.coeffs.__getitem__, base._nonzeros())))
    if abs(k) * (size - 1).bit_length() > MAX_EXPONENT:
        raise ValueError(
            f"coefficients of a power may exceed 2^{MAX_EXPONENT}")
    return base ** abs(k)


# The last two powers of a leaf, keyed by (node, n): the same square recurs
# from entry to entry, as phi(q)^2 at 40 000 terms does in six positivity
# entries and in each `thetaforms positivity` scan, while the leaf itself
# is a cached theta factor.  Two entries hold the pair phi(q)^2 and
# phi(q^S)^2 that such a scan reads; a refused power raises on every call,
# since lru_cache keeps no exception.
_leaf_power = lru_cache(maxsize=2)(_series_power)


def _union_parts(node: UnionCount, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(character at w, weighted counts of M < n) of each lifted genus of S."""
    sg = build_sgenus(node.s)
    return [(sg.eps[(i, node.w)], weighted_coefficients(tg, n))
            for i, tg in enumerate(sg.tg)]


def _split_scalar(factors) -> tuple[int, list]:
    """The product of a Mul's plain integer factors, and its other factors.

    An inverted integer stays a factor, so that division by a non-unit
    still fails in `invert`.
    """
    scalar = 1
    rest = []
    for factor, inverted in factors:
        if isinstance(factor, Num) and not inverted:
            scalar *= factor.value
        else:
            rest.append((factor, inverted))
    return scalar, rest


def _product(factors, n: int) -> Series:
    """The product of (node, inverted) factors at n terms, folded from the
    first factor; 1 when there is none."""
    total = None
    for factor, inverted in factors:
        value = eval_series(factor, n)
        if inverted:
            value = invert(value)
        total = value if total is None else total * value
    return Series.one(n) if total is None else total


# ---------------------------------------------------------------------------
# the monomial walk of modeq3 and eta entries
# ---------------------------------------------------------------------------

def _terms(node, leaf) -> list[tuple[Fraction, dict]]:
    """Multiply out a Num/Neg/Add/Mul/Pow expression into monomials.

    Each term is (coefficient, {atom: exponent}), and `leaf` gives the
    exponents of any other node; `_power` inverts factors and takes powers.
    A product of two sums past `MAX_MONOMIALS` terms is refused before it
    is formed, and so is an exponent past `MAX_EXPONENT`.
    """
    if isinstance(node, Num):
        return [(Fraction(node.value), {})]
    if isinstance(node, Neg):
        return [(-c, exps) for c, exps in _terms(node.body, leaf)]
    if isinstance(node, Add):
        return [term for part in node.terms for term in _terms(part, leaf)]
    if isinstance(node, Mul):
        out = [(Fraction(1), {})]
        for factor, inverted in node.factors:
            terms = _terms(factor, leaf)
            if inverted:
                terms = _power(terms, Fraction(-1), "division by a sum is unsupported")
            if min(len(out), len(terms)) > 1 and len(out) * len(terms) > MAX_MONOMIALS:
                raise UnsupportedRadicand(
                    f"expansion exceeds {MAX_MONOMIALS} monomials")
            out = [(c1 * c2, {**e1, **{a: e1.get(a, 0) + x for a, x in e2.items()}})
                   for c1, e1 in out for c2, e2 in terms]
    elif isinstance(node, Pow):
        out = _power(_terms(node.base, leaf), node.exponent,
                     "powers of sums are unsupported")
    else:
        out = [(Fraction(1), leaf(node))]
    if any(abs(x) > MAX_EXPONENT for _, exps in out for x in exps.values()):
        raise UnsupportedRadicand(f"exponent exceeds {MAX_EXPONENT}")
    return out


def _power(terms, e: Fraction, refusal: str) -> list[tuple[Fraction, dict]]:
    """A single term to the power e; `refusal` is the error for a sum."""
    if len(terms) != 1:
        raise UnsupportedRadicand(refusal)
    (c, exps), = terms
    scaled = {a: x * e for a, x in exps.items()}
    if any(x.denominator != 1 for x in scaled.values()):
        raise UnsupportedRadicand(f"exponent {e} leaves the eighth lattice")
    if c != 1 and e.denominator != 1:
        raise UnsupportedRadicand("fractional power of a scalar")
    if c == 0 and e < 0:
        raise UnsupportedRadicand("division by zero")
    # (k - 1).bit_length() is ceil(log2 k), so this bounds log2 |c^e|
    if abs(e) * (max(abs(c.numerator), c.denominator) - 1).bit_length() > MAX_EXPONENT:
        raise UnsupportedRadicand(
            f"power of a coefficient may exceed 2^{MAX_EXPONENT}")
    return [(c ** e.numerator, {a: int(x) for a, x in scaled.items()})]


def _modeq_leaf(sym: ModSym) -> dict:
    """m in its own power; alpha and beta in eighths."""
    return {sym.name: 1 if sym.name == "m" else 8}


def _modeq_value(node) -> list[Term]:
    """The terms over p, 2+p, 1+2p of a modeq3 side, one per monomial."""
    terms = []
    for coef, exps in _terms(node, _modeq_leaf):
        x8, y8, k = (exps.get(a, 0) for a in ("alpha", "beta", "m"))
        radicand = tuple(x8 * a + y8 * b for a, b in zip(ALPHA, BETA))
        root = rational_root(radicand, 8)
        terms.append((coef, tuple(r + k * e for r, e in zip(root, M))))
    return terms


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------

class VerifyResult(NamedTuple):
    name: str
    mode: str
    passed: bool
    params: str
    witness: str = ""
    elapsed_ms: float = 0.0
    detail: object = None

    def row(self) -> tuple:
        return (self.name, self.mode, self.params,
                "pass" if self.passed else "FAIL",
                self.witness, f"{self.elapsed_ms:.0f}")


def verify_series(spec: IdentitySpec, n: int) -> VerifyResult:
    """Expand both sides to n coefficients and compare them exactly.

    A side that comes back with fewer than n coefficients fails, with a
    witness that names it and its length.  An n below 1 compares nothing,
    which is no pass: it raises ValueError.
    """
    if spec.mode not in ("series", "sift"):
        raise ValueError(f"{spec.name} is not a series/sift entry")
    if n < 1:
        raise ValueError(f"terms must be positive, got {n}")
    lhs = eval_series(spec.lhs, n)
    rhs = eval_series(spec.rhs, n)
    for side, value in (("lhs", lhs), ("rhs", rhs)):
        if value.truncation < n:
            return VerifyResult(spec.name, spec.mode, False, f"terms={n}",
                                f"{side} has {value.truncation} coefficients")
    a, b = lhs.coeffs[:n], rhs.coeffs[:n]
    if a != b:  # compared in C; the first mismatch is looked for only now
        i = next(i for i in range(n) if a[i] != b[i])
        return VerifyResult(spec.name, spec.mode, False, f"terms={n}",
                            f"exponent {i}: {a[i]} != {b[i]}")
    return VerifyResult(spec.name, spec.mode, True, f"terms={n}")


def _qualifying(conditions: Conditions, n: int) -> bytes:
    """Mask over 0..n-1 whose byte M is 1 when M >= 1 meets the conditions.

    Each condition is periodic in M: ``M = r mod t`` with period t, ``w|M``
    with period w, ``p||M`` with period p^2, and ``(M|a) = +-1`` with
    period a.  So `Conditions.qualifies` runs for M = 1 .. P only, P the
    lcm of those periods, and that block is tiled out to n.  A modulus of
    0 sets no congruence and adds no period; the parser admits only
    positive divisors and Jacobi denominators.
    """
    if n < 2:
        return b"\x00"[:n]
    period = lcm(*(v for v in (
        conditions.modulus,
        *(w * w if exact else w for w, exact in conditions.divides),
        *(den for den, _ in conditions.jacobi)) if v))
    block = bytes(conditions.qualifies(m)
                  for m in range(1, min(period, n - 1) + 1))
    return (b"\x00" + block * ((n - 1) // len(block) + 1))[:n]


def _count_factors(side) -> dict:
    """{count: integer factor} of a ternary side, its eps values folded in.

    A monomial without a count is a constant, which is nonzero at M = 0
    only, and M = 0 never qualifies.
    """
    factors: dict = {}
    for coef, atoms in _terms(side, lambda node: {node: 1}):
        counts = [a for a in atoms if not isinstance(a, EpsScalar)]
        if not counts:
            continue
        if len(counts) > 1 or atoms[counts[0]] > 1:
            raise ValueError("a ternary product takes one count")
        for atom, x in atoms.items():
            if isinstance(atom, EpsScalar):
                coef *= epsilon(genus_of(TernaryForm(*atom.form)), atom.w) ** x
        factors[counts[0]] = factors.get(counts[0], 0) + int(coef)
    return factors


def _gather(side, n: int, classes) -> list[int]:
    """A ternary side's values at the M < n that the mask marks, class by
    class: `classes` holds (slice(r, None, t), mask[r::t]) per residue r.

    Each count is read at n coefficients, as `eval_series` reads it, and
    only its values at those M are scaled and added; SW and SEW are read
    one lifted genus at a time.
    """
    total = None
    for count, factor in _count_factors(side).items():
        parts = (_union_parts(count, n) if isinstance(count, UnionCount)
                 else [(1, _expand(count, n).coeffs)])
        for eps, coeffs in parts:
            values = chain.from_iterable(compress(coeffs[cut], m)
                                         for cut, m in classes)
            if factor * eps != 1:
                values = map(mul, values, repeat(factor * eps))
            # the first part is the total; a later one adds to it
            total = list(values if total is None else map(add, total, values))
    if total is None:
        return [0] * sum(m.count(1) for _, m in classes)
    return total


def verify_ternary(spec: IdentitySpec, mmax: int) -> VerifyResult:
    """Compare the coefficients of q^M of both sides at every qualifying M <= mmax.

    Both sides are gathered at the qualifying M only; after a mismatch the
    smallest such M is the witness.  No qualifying M means nothing is
    compared, which is no pass: it raises ValueError.
    """
    if spec.mode != "ternary":
        raise ValueError(f"{spec.name} is not a ternary entry")
    n = max(mmax, 0) + 1
    mask = _qualifying(spec.conditions, n)
    values = mask.count(1)
    if not values:
        raise ValueError(f"no M <= {mmax} meets the where conditions")
    t = spec.conditions.modulus or 1
    cuts = [slice(r, None, t) for r in spec.conditions.residues or (0,)]
    classes = [(cut, mask[cut]) for cut in cuts]
    lhs = _gather(spec.lhs, n, classes)
    rhs = _gather(spec.rhs, n, classes)
    if lhs != rhs:
        ms = chain.from_iterable(compress(range(n)[cut], m)
                                 for cut, m in classes)
        m, left, right = min(v for v in zip(ms, lhs, rhs) if v[1] != v[2])
        return VerifyResult(spec.name, spec.mode, False, f"Mmax={mmax}",
                            f"M={m}: {left} != {right}")
    return VerifyResult(spec.name, spec.mode, True,
                        f"Mmax={mmax} ({values} values)")


def verify_positivity(spec: IdentitySpec, limit: int) -> VerifyResult:
    """Nonnegativity scan of the expansion, honoring `expect negative`; a
    limit below 1 scans nothing and raises ValueError."""
    if spec.mode != "positivity":
        raise ValueError(f"{spec.name} is not a positivity entry")
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    value = eval_series(spec.lhs, limit)
    ok, bad = is_nonnegative(value)
    if spec.conditions.expect_negative:
        passed = not ok
        witness = f"negative coefficient at exponent {bad}" if not ok else \
            "no negative coefficient found"
    else:
        passed = ok
        witness = "" if ok else f"negative coefficient at exponent {bad}"
    return VerifyResult(spec.name, spec.mode, passed, f"limit={limit}", witness)


def verify_modeq3(spec: IdentitySpec) -> VerifyResult:
    """Exact check through the degree-3 parametrization.

    The entry holds when lhs - rhs, cleared of denominators, is the zero
    polynomial in p; otherwise the witness is its lowest nonzero coefficient.
    """
    if spec.mode != "modeq3":
        raise ValueError(f"{spec.name} is not a modeq3 entry")
    rhs = [(-c, exps) for c, exps in _modeq_value(spec.rhs)]
    poly = cleared(_modeq_value(spec.lhs) + rhs)
    if not poly:
        return VerifyResult(spec.name, spec.mode, True, "exact")
    i = next(i for i, v in enumerate(poly) if v)
    return VerifyResult(spec.name, spec.mode, False, "exact",
                        f"cleared lhs - rhs has coefficient {poly[i]} at p^{i}")


def _eta_leaf(node) -> dict:
    if not isinstance(node, EtaAtom):
        raise ValueError("eta entries must be linear combinations of quotients")
    return dict(node.exponents)


def _eta_combination(spec: IdentitySpec) -> EtaCombination:
    """lhs - rhs as one quotient per monomial; the scalars move to the constant."""
    level = spec.conditions.level
    terms: list[tuple[Fraction, EtaQuotient]] = []
    constant = Fraction(0)
    for sign, side in ((1, spec.lhs), (-1, spec.rhs)):
        for c, exps in _terms(side, _eta_leaf):
            if any(exps.values()):
                terms.append((sign * c, EtaQuotient.from_dict(level, exps)))
            else:
                constant -= sign * c
    return EtaCombination(level, tuple(terms), constant)


def verify_eta(spec: IdentitySpec) -> VerifyResult:
    """Prove the eta-quotient identity by the valence bound; the
    certificate is the result's ``detail``."""
    if spec.mode != "eta":
        raise ValueError(f"{spec.name} is not an eta entry")
    cert = prove(_eta_combination(spec))
    return VerifyResult(spec.name, spec.mode, cert.proved,
                        f"level={cert.level} B={cert.valence_bound}",
                        "" if cert.proved else cert.verdict, detail=cert)


def verify_entry(spec: IdentitySpec, terms: int = DEFAULT_TERMS,
                 mmax: int = DEFAULT_MMAX,
                 limit: int = DEFAULT_LIMIT) -> VerifyResult:
    """Verify one entry; an entry that cannot be evaluated raises EntryError."""
    start = time.perf_counter()
    try:
        if spec.mode in ("series", "sift"):
            result = verify_series(spec, terms)
        elif spec.mode == "ternary":
            result = verify_ternary(spec, mmax)
        elif spec.mode == "positivity":
            result = verify_positivity(spec, limit)
        elif spec.mode == "modeq3":
            result = verify_modeq3(spec)
        elif spec.mode == "eta":
            result = verify_eta(spec)
        else:
            raise ValueError(f"unknown mode {spec.mode}")
    except EVAL_ERRORS as err:  # an error with no text is named by its type
        reason = str(err) or type(err).__name__
        raise EntryError(f"{spec.name}: {reason}") from err
    return result._replace(elapsed_ms=(time.perf_counter() - start) * 1000.0)


def run_suite(registry: dict[str, IdentitySpec], terms: int = DEFAULT_TERMS,
              mmax: int = DEFAULT_MMAX,
              limit: int = DEFAULT_LIMIT) -> list[VerifyResult]:
    """Verify every entry; results are ordered by identity name."""
    return [verify_entry(registry[name], terms, mmax, limit)
            for name in sorted(registry)]
