"""Reference helpers that only the tests use, as oracles for the package."""

import re
from fractions import Fraction
from math import gcd

from thetaforms.forms import TernaryForm
from thetaforms.identities import (CLAUSE_MODES, MAX_DEPTH, MODES, Add,
                                   Conditions, EpsScalar, EtaAtom, FormCount,
                                   IdentitySpec, ModSym, Mul, Named, Neg, Num,
                                   Pow, QPow, RegistryError, Sift, Theta2,
                                   UnionCount, WeightedCount)
from thetaforms.prover import Cusp, EtaCombination
from thetaforms.series import Series, alternate_sign, compose_power, invert
from thetaforms.theta import (BUILTIN_NAMES, EtaQuotient, expand_eta_quotient,
                              general_theta)


def schoolbook(a, b, n):
    """The first n coefficients of a * b by the plain double loop."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return out


def transform_ternary(form: TernaryForm, u) -> TernaryForm:
    """Form of Q(U v): Gram changes to U^T G U.  u is a 3x3 integer matrix."""
    g = form.gram_doubled()
    gu = [[sum(g[i][k] * u[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    h = [[sum(u[k][i] * gu[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    return TernaryForm(h[0][0] // 2, h[1][1] // 2, h[2][2] // 2,
                       h[1][2], h[0][2], h[0][1])


def cusp_equivalent(level: int, c1: Cusp, c2: Cusp) -> bool:
    """Gamma_0(level)-equivalence: s1*q2 = s2*q1 mod gcd(q1*q2, level),

    where s_i inverts the numerator mod the denominator.
    """
    q1, q2 = c1.denominator, c2.denominator
    s1 = pow(c1.numerator, -1, q1) if q1 > 1 else 0
    s2 = pow(c2.numerator, -1, q2) if q2 > 1 else 0
    g = gcd(q1 * q2, level)
    return (s1 * q2 - s2 * q1) % g == 0


def expand_combination_fractions(comb: EtaCombination, n: int) -> list[Fraction]:
    """Coefficients 0..n-1 of sum coeff_i q^{offset_i} s_i - constant, one
    Fraction at a time, with no common denominator."""
    out = [Fraction(0)] * n
    out[0] -= comb.constant
    for coeff, eq in comb.terms:
        offset, unit = expand_eta_quotient(eq, n)
        assert offset >= 0
        for i, c in enumerate(unit.coeffs[:max(n - offset, 0)]):
            out[i + offset] += coeff * c
    return out


def euler_pentagonal(k: int, n: int) -> Series:
    """E(q^k) = prod_{j>=1} (1 - q^{kj}) by Euler's pentagonal number
    theorem, sum over j of (-1)^j q^{k j (3j - 1) / 2}; the package's own
    expansion before it read E as f(-q, -q^2)."""
    coeffs = [0] * n
    if n > 0:
        coeffs[0] = 1
    j = 1
    while True:
        g1 = k * j * (3 * j - 1) // 2
        if g1 >= n:
            break
        sign = -1 if j % 2 else 1
        coeffs[g1] += sign
        g2 = k * j * (3 * j + 1) // 2
        if g2 < n:
            coeffs[g2] += sign
        j += 1
    return Series._raw(coeffs)


def expand_eta_quotient_by_products(eq: EtaQuotient, n: int) -> tuple[int, Series]:
    """`expand_eta_quotient` as products of pentagonal expansions E(q^delta)
    (`euler_pentagonal`) and one Newton inversion of the denominator's
    product.

    This was the package's own expansion before the recurrence.  For the 15
    quotients of 4.1 and 5.4, warm (E(q^delta) cached), raw, two runs on a
    shared 2-core x86-64 sandbox, CPython 3.11.7:

        terms    products       recurrence
        91       13-14 ms       4-6 ms
        500      136-141 ms     141-206 ms
        2000     2.7-3.6 s      2.4-3.3 s

    No workload expands a quotient past the prover's B + 1 = 91 terms.
    """
    total = eq.delta_weighted_sum
    if total % 24:
        raise ValueError(f"sum(delta*r) = {total} is not divisible by 24")
    num = den = None
    for delta, r in eq.exponents:
        piece = euler_pentagonal(delta, n) ** abs(r)
        if r > 0:
            num = piece if num is None else num * piece
        else:
            den = piece if den is None else den * piece
    # an empty series has no inverse, and nothing to invert
    if den is not None and n:
        num = invert(den) if num is None else num * invert(den)
    return total // 24, Series.one(n) if num is None else num


# (x, y) of f(q^x, q^y) behind phi, psi, f12 and f15
THETA_PAIRS = {"phi": (1, 1), "psi": (1, 3), "f12": (1, 2), "f15": (1, 5)}


def named_theta_by_composition(name: str, n: int, power: int = 1,
                               negate: bool = False) -> Series:
    """phi, psi, f12, f15 or E at (+-)q^power as `named_function` built it
    before it called `general_theta` at the scaled pair: the sum at q, or
    E's pentagonal expansion, to ceil(n / power) terms, its signs
    alternated for -q, then spread by q -> q^power."""
    m = -(-n // power)
    if name == "E":
        base = euler_pentagonal(1, m)
    else:
        x, y = THETA_PAIRS[name]
        base = general_theta(x, y, m)
    if negate:
        base = alternate_sign(base)
    return compose_power(base, power, n)


# The package's registry reader before it kept token texts alone, as an
# oracle for `parse_registry` and `parse_expression`: each token is a
# (text, line, col) tuple from one finditer match, and the descent steps
# through primitives (peek, next, accept, expect, take).  It reports a sift
# range, a q power below 0 and a substitution power below 1 at the
# offending integer, as the package does; otherwise it is the old reader.
# Each match skips the whitespace before a token; its last alternative
# catches any other character.
_TUPLE_TOKEN_RE = re.compile(
    r"\s*(?:([A-Za-z0-9._]+|\|\||[-+*/^(){}\[\],:;|=])|(\S))")


def _tuple_tokens(text: str, line: int, offset: int) -> list[tuple[str, int, int]]:
    """Tokens of a line's text from `offset` on, with 1-based columns; the
    congruence sign reads as '='."""
    out = []
    for m in _TUPLE_TOKEN_RE.finditer(text.replace("≡", "=")):
        tok = m[1]
        if tok is None:
            raise RegistryError(f"bad character {m[2]!r}", line,
                                offset + m.start(2) + 1)
        out.append((tok, line, offset + m.start(1) + 1))
    return out


class _TupleParser:
    def __init__(self, tokens: list[tuple[str, int, int]], mode: str,
                 start: tuple[int, int]):
        # the end token ("", line, col): just after the last token, or `start`
        if tokens:
            text, line, col = tokens[-1]
            start = (line, col + len(text))
        self.tokens = tokens + [("", *start)]
        self.mode = mode
        self.pos = 0
        self.depth = 0

    # --- primitives ---
    def peek(self, ahead: int = 0) -> tuple[str, int, int]:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple[str, int, int]:
        tok = self.tokens[self.pos]
        if not tok[0]:
            raise RegistryError("unexpected end of entry", *tok[1:])
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        found, line, col = self.next()
        if found != text:
            raise RegistryError(f"expected {text!r}, found {found!r}", line, col)

    def accept(self, text: str) -> bool:
        found = self.tokens[self.pos][0] == text
        self.pos += found
        return found

    def error(self, msg: str) -> RegistryError:
        text, line, col = self.tokens[self.pos]
        return RegistryError(f"{msg} (at {text!r})" if text else msg, line, col)

    def take(self, ok, msg: str) -> str:
        """The next token's text; raises msg.format(text) at it unless
        ok(text)."""
        text, line, col = self.next()
        if not ok(text):
            raise RegistryError(msg.format(text), line, col)
        return text

    def parse_int(self) -> int:
        neg = self.accept("-")
        text = self.take(str.isdigit, "expected integer, found {!r}")
        return -int(text) if neg else int(text)

    def checked_int(self, ok, msg: str) -> int:
        """An integer; raises msg at its first token unless ok(value)."""
        tok = self.tokens[self.pos]
        value = self.parse_int()
        if not ok(value):
            raise RegistryError(msg, *tok[1:])
        return value

    # --- expressions ---
    def ternary_reject(self, at: int, msg: str, bad=lambda: True) -> None:
        """In ternary mode, raise msg at token index `at` when bad()."""
        if self.mode == "ternary" and bad():
            raise RegistryError(msg, *self.tokens[at][1:])

    def parse_statement(self) -> tuple:
        """expr ['=' expr] up to the end token: (lhs, rhs or None)."""
        lhs = self.parse_expr()
        rhs = self.parse_expr() if self.accept("=") else None
        if self.peek()[0]:
            raise self.error("trailing tokens after statement")
        return lhs, rhs

    def parse_expr(self):
        nodes = []
        sign = 1
        while True:
            start = self.pos
            term = self.parse_term()
            self.ternary_reject(start, "each ternary summand needs a count",
                                lambda: not _holds_count(term) and not (
                                    isinstance(term, Num) and term.value == 0))
            nodes.append(term if sign > 0 else Neg(term))
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                break
        return nodes[0] if len(nodes) == 1 else Add(tuple(nodes))

    def parse_term(self):
        factors = []
        inverted = False
        while True:
            start = self.pos
            node = self.parse_factor()
            self.ternary_reject(start, "a ternary product takes one count",
                                lambda: _holds_count(node) and any(
                                    _holds_count(f) for f, _ in factors))
            factors.append((node, inverted))
            if self.accept("*"):
                inverted = False
            elif self.accept("/"):
                self.ternary_reject(self.pos - 1, "ternary entries do not divide")
                inverted = True
            else:
                break
        if len(factors) == 1 and not factors[0][1]:
            return factors[0][0]
        return Mul(tuple(factors))

    def parse_factor(self):
        if self.depth >= MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH}")
        self.depth += 1
        try:
            if self.accept("-"):
                return Neg(self.parse_factor())
            node = self.parse_atom()
            if self.accept("^"):
                self.ternary_reject(self.pos - 1, "ternary entries take no powers")
                node = Pow(node, self.parse_exponent())
            return node
        finally:
            self.depth -= 1

    def parse_exponent(self) -> Fraction:
        if self.accept("("):
            num = self.parse_int()
            self.expect("/")
            den = self.checked_int(bool, "exponent denominator must be nonzero")
            self.expect(")")
            if self.mode != "modeq3":
                raise self.error("fractional exponents only occur in modeq3")
            return Fraction(num, den)
        return Fraction(self.parse_int())

    def parse_qarg(self) -> tuple[int, int]:
        """(sign, power) from  q | -q | q^k | -q^k."""
        sign = -1 if self.accept("-") else 1
        self.take(lambda t: t == "q", "expected q, found {!r}")
        power = 1
        if self.accept("^"):
            power = self.checked_int(lambda k: k >= 1,
                                     "substitution power must be >= 1")
        return sign, power

    def parse_form_tuple(self) -> tuple:
        vals = [self.parse_int()]
        for _ in range(5):
            self.expect(",")
            vals.append(self.parse_int())
        return tuple(vals)

    def parse_count_arg(self) -> int:
        """M | M/w^2 inside (...)"""
        self.expect("(")
        self.take(lambda t: t == "M", "count argument must be M or M/w^2")
        w = 1
        if self.accept("/"):
            w = self.checked_int(lambda w: w >= 1, "w in M/w^2 must be positive")
            self.expect("^")
            self.expect("2")
        self.expect(")")
        return w

    def parse_atom(self):
        word = self.peek()[0]
        if not word:
            raise self.error("missing operand")
        if word.isdigit():
            self.pos += 1
            return Num(int(word))
        if word == "(":
            if (self.mode == "ternary" and self.peek(1)[0].isdigit()
                    and self.peek(2)[0] == ","):
                self.pos += 1
                form = self.parse_form_tuple()
                self.expect(")")
                return FormCount(form, self.parse_count_arg())
            if self.mode == "ternary" and self.peek(1)[0] == "M":
                # Jacobi-style scalars never appear in expressions
                raise self.error("unexpected (M...) in expression")
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if not (word[0].isalnum() or word[0] in "._"):
            raise self.error("unexpected symbol")
        if self.mode == "modeq3":
            if word in ("m", "alpha", "beta"):
                self.pos += 1
                return ModSym(word)
            raise self.error(f"unknown modeq3 symbol {word!r}")
        if self.mode == "ternary":
            if word not in ("W", "eps", "SW", "SEW"):
                raise self.error(f"unknown ternary primitive {word!r}")
            self.pos += 1
            self.expect("(")
            arg = (self.parse_int() if word in ("SW", "SEW")
                   else self.parse_form_tuple())
            w = 1  # SW(S) is SEW(S;1): every character at 1 is +1
            if word == "eps":
                self.expect(";")
                w = self.checked_int(lambda w: w >= 1 and w % 2,
                                     "eps character w must be odd and positive")
            elif word == "SEW":
                self.expect(";")
                w = self.checked_int(lambda w: w >= 1 and arg % w == 0,
                                     "SEW character w must be a positive "
                                     "divisor of S")
            self.expect(")")
            if word == "eps":
                return EpsScalar(arg, w)
            if self.parse_count_arg() != 1:
                raise self.error(f"{word} takes the plain argument M")
            return WeightedCount(arg) if word == "W" else UnionCount(arg, w)
        # series / sift / positivity / eta expression atoms
        if word not in ("q", "S", "eta", "f") and word not in BUILTIN_NAMES:
            raise self.error(f"unknown primitive {word!r}")
        self.pos += 1
        if word == "q":
            power = 1
            if self.accept("^"):
                power = self.checked_int(lambda k: k >= 0, "negative q "
                                         "powers are not supported")
            return QPow(power)
        if word == "S":
            self.expect("[")
            t_at = self.tokens[self.pos]
            t = self.parse_int()
            self.expect(",")
            s_at = self.tokens[self.pos]
            s = self.parse_int()
            if not 0 <= s < t:  # t below 1 admits no s
                raise RegistryError(f"sift requires 0 <= s < t, got t={t}, "
                                    f"s={s}", *(t_at if t < 1 else s_at)[1:])
            self.expect("]")
            self.expect("(")
            body = self.parse_expr()
            self.expect(")")
            return Sift(t, s, body)
        if word == "eta":
            self.expect("{")
            exps = {}
            while True:
                delta = self.parse_int()
                self.expect(":")
                r = self.parse_int()
                if delta in exps:
                    raise self.error(f"duplicate eta divisor {delta}")
                exps[delta] = r
                if not self.accept(","):
                    break
            self.expect("}")
            return EtaAtom(tuple(sorted(exps.items())))
        if word == "f":
            self.expect("(")
            sx, x = self.parse_qarg()
            self.expect(",")
            sy, y = self.parse_qarg()
            self.expect(")")
            return Theta2(x, sx, y, sy)
        self.expect("(")
        sign, power = self.parse_qarg()
        self.expect(")")
        return Named(word, power, sign < 0)

    # --- conditions ---
    def parse_conditions(self) -> Conditions:
        """['where' COND {',' COND}] up to the end token."""
        if not self.accept("where"):
            return Conditions()
        residues: tuple[int, ...] = ()
        modulus = 0
        divides: list[tuple[int, bool]] = []
        jac: list[tuple[int, int]] = []
        expect_negative = False
        level = 0
        theta_ref, theta_at = "", (0, 0)
        seen: set[str] = set()
        while True:
            tok = self.peek()
            text = tok[0]
            owner = CLAUSE_MODES.get(text, "ternary")
            # divisor and Jacobi clauses add up; any other kind comes once
            if text in seen:
                raise RegistryError(f"duplicate {text!r} clause", *tok[1:])
            if text == "M" or text in CLAUSE_MODES:
                seen.add(text)
            if text == "M":
                self.pos += 1
                self.expect("=")
                rs = [(self.peek(), self.parse_int())]
                while (self.peek()[0] == "," and self.peek(1)[0].isdigit()
                       and self.peek(2)[0] in (",", "mod")):
                    self.pos += 1
                    rs.append((self.peek(), self.parse_int()))
                self.take(lambda t: t == "mod", "expected 'mod'")
                modulus = abs(self.checked_int(bool, "modulus must be nonzero"))
                for at, r in rs:  # a repeat would be read twice
                    if r % modulus in residues:
                        raise RegistryError(f"residue {r} repeats an earlier "
                                            f"one mod {modulus}", *at[1:])
                    residues += (r % modulus,)
            elif text.isdigit():
                w = self.checked_int(bool, "divisor must be positive")
                bar = self.take(lambda t: t in ("|", "||"), "expected | or ||")
                self.expect("M")
                divides.append((w, bar == "||"))
            elif text == "(":
                self.pos += 1
                self.expect("M")
                self.expect("|")
                den = self.checked_int(lambda d: d > 0 and d % 2,
                                       "Jacobi denominator must be odd and positive")
                self.expect(")")
                self.expect("=")
                want = self.checked_int(lambda v: v in (-1, 0, 1),
                                        "Jacobi value must be -1, 0 or 1")
                jac.append((den, want))
            elif text == "expect":
                self.pos += 1
                what = self.take(lambda t: t in ("negative", "nonnegative"),
                                 "expect clause takes negative/nonnegative")
                expect_negative = what == "negative"
            elif text == "level":
                self.pos += 1
                level = self.parse_int()
            elif text == "theta":
                self.pos += 1
                ref = self.next()
                theta_ref, theta_at = ref[0], ref[1:]
            else:
                raise self.error("unknown condition" if text
                                 else "expected a condition")
            if owner != self.mode:
                raise RegistryError(f"this clause applies only to {owner} "
                                    f"entries", *tok[1:])
            if not self.accept(","):
                break
        if self.peek()[0]:
            raise self.error("trailing tokens after conditions")
        return Conditions(residues, modulus, tuple(divides), tuple(jac),
                          expect_negative, level, theta_ref, theta_at)


def _holds_count(node) -> bool:
    """Whether a ternary expression contains a representation count."""
    if isinstance(node, (FormCount, WeightedCount, UnionCount)):
        return True
    if isinstance(node, Neg):
        return _holds_count(node.body)
    if isinstance(node, Add):
        return any(_holds_count(t) for t in node.terms)
    if isinstance(node, Mul):
        return any(_holds_count(f) for f, _ in node.factors)
    return False


def _split_entries(text: str):
    """Yield the (line number, text) lines of each registry entry."""
    pending: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] in " \t":
            if not pending:
                raise RegistryError("continuation line without an entry",
                                    lineno, 1)
            pending.append((lineno, line))
            continue
        if pending:
            yield pending
        pending = [(lineno, line)]
    if pending:
        yield pending


def parse_registry_by_tuples(text: str) -> list[IdentitySpec]:
    """`parse_registry` by the reader above."""
    specs: list[IdentitySpec] = []
    names = set()
    for chunk in _split_entries(text):
        first_line, first_text = chunk[0]
        # a bad character anywhere in the entry, the header included, is
        # reported at its column; the header is its first four tokens
        tokens = [tok for lineno, line in chunk
                  for tok in _tuple_tokens(line, lineno, 0)]
        header = re.match(
            r"\s*([A-Za-z0-9._]+)\s*:\s*([A-Za-z0-9._]+)\s*:\s*", first_text)
        if header is None:
            raise RegistryError("entry must start with 'name: mode:'",
                                first_line, 1)
        name, mode = header.group(1), header.group(2)
        if mode not in MODES:
            raise RegistryError(f"unknown mode {mode!r}", first_line,
                                header.start(2) + 1)
        if name in names:
            raise RegistryError(f"duplicate identity name {name!r}",
                                first_line, 1)
        names.add(name)
        tokens = tokens[4:]
        # the statement ends at the first 'where'
        where_at = next((i for i, tok in enumerate(tokens) if tok[0] == "where"),
                        len(tokens))
        start = (first_line, header.end() + 1)  # just after the header
        lhs, rhs = _TupleParser(tokens[:where_at], mode, start).parse_statement()
        if mode == "positivity":
            if rhs is not None:
                raise RegistryError("positivity entries take a single expression",
                                    first_line, 1)
        elif rhs is None:
            rhs = Num(0)
        conditions = _TupleParser(tokens[where_at:], mode, start).parse_conditions()
        if mode == "eta" and conditions.level < 1:
            raise RegistryError(f"eta entry {name!r} needs a level clause",
                                first_line, 1)
        specs.append(IdentitySpec(name, mode, lhs, rhs, conditions, first_line))
    return specs


def parse_expression_by_tuples(text: str):
    """`parse_expression` by the reader above."""
    parser = _TupleParser(_tuple_tokens(text, 1, 0), "series", (1, 1))
    node = parser.parse_expr()
    if parser.peek()[0]:
        raise parser.error("trailing tokens")
    return node
