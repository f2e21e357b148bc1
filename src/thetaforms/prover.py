"""Rigorous eta-quotient identity proving on Gamma_0(N).

A combination sum_i c_i * f_i - const of eta quotients that are modular
functions on Gamma_0(N) is certified to vanish identically: the order of
the combination at every cusp other than infinity is bounded below by the
minimum of the term orders (and 0 when a constant is present), the valence
inequality converts those bounds into a number B of q-coefficients to
check, and the expansion is then verified coefficient by coefficient in
exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import ceil, gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .arith import divisors, euler_phi, factorize
from .theta import EtaQuotient, eta_series

__all__ = [
    "Cusp", "NewmanReport", "ProofCertificate", "EtaCombination",
    "newman_check", "cusp_reps", "ligozat_order", "order_table", "prove",
]


class _CuspFields(NamedTuple):
    denominator: int
    numerator: int


class Cusp(_CuspFields):
    __slots__ = ()

    def __new__(cls, denominator: int, numerator: int):
        if denominator < 1 or gcd(numerator, denominator) != 1:
            raise ValueError(
                f"{numerator}/{denominator} is not a reduced cusp")
        return tuple.__new__(cls, (denominator, numerator))

    def is_infinity(self, level: int) -> bool:
        """The class of i*infinity is represented by 1/level."""
        return self.denominator == level

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class NewmanReport(NamedTuple):
    weight_sum_zero: bool
    delta_sum_divisible: bool
    codelta_sum_divisible: bool
    product_is_square: bool

    @property
    def passed(self) -> bool:
        return (self.weight_sum_zero and self.delta_sum_divisible
                and self.codelta_sum_divisible and self.product_is_square)


def newman_check(eq: EtaQuotient) -> NewmanReport:
    """The four modular-function conditions for an eta quotient on its level."""
    prod_exponents: dict[int, int] = {}
    for delta, r in eq.exponents:
        for p, e in factorize(delta).items():
            prod_exponents[p] = prod_exponents.get(p, 0) + e * r
    square = all(e % 2 == 0 for e in prod_exponents.values())
    return NewmanReport(
        weight_sum_zero=(eq.weight_sum == 0),
        delta_sum_divisible=(eq.delta_weighted_sum % 24 == 0),
        codelta_sum_divisible=(eq.codelta_weighted_sum % 24 == 0),
        product_is_square=square,
    )


@lru_cache(maxsize=None)
def cusp_reps(level: int) -> tuple[Cusp, ...]:
    """A complete set of inequivalent cusps a/c with c | level.

    For each divisor c there are phi(gcd(c, level/c)) classes, one per
    residue of the numerator mod that gcd; numerators are lifted to be
    coprime to c.  The class of infinity appears as 1/level.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    out = []
    for c in divisors(level):
        d = gcd(c, level // c)
        for r in range(1, d + 1):
            if gcd(r, d) != 1:
                continue
            a = r
            while gcd(a, c) != 1:
                a += d
            out.append(Cusp(c, a))
    expected = sum(euler_phi(gcd(c, level // c)) for c in divisors(level))
    assert len(out) == expected
    return tuple(out)


def ligozat_order(eq: EtaQuotient, cusp: Cusp) -> Fraction:
    """Order of the quotient at b/c on Gamma_0(level); depends only on c."""
    n = eq.level
    c = cusp.denominator
    # n / 24 gcd(n, c^2) * sum r gcd(c, delta)^2 / delta over the common
    # denominator; every delta divides n
    return Fraction(sum(r * gcd(c, delta) ** 2 * (n // delta)
                        for delta, r in eq.exponents),
                    24 * gcd(n, c * c))


class _CombinationFields(NamedTuple):
    level: int
    terms: tuple[tuple[Fraction, EtaQuotient], ...]
    constant: Fraction


class EtaCombination(_CombinationFields):
    """sum_i coeff_i * quotient_i compared against a constant."""

    __slots__ = ()

    def __new__(cls, level: int, terms: tuple[tuple[Fraction, EtaQuotient], ...],
                constant: Fraction = Fraction(0)):
        if not terms:
            raise ValueError("a combination needs at least one quotient")
        for _, eq in terms:
            if eq.level != level:
                raise ValueError("all quotients must share the combination level")
        return tuple.__new__(cls, (level, terms, constant))


def order_table(comb: EtaCombination) -> dict[Cusp, Fraction]:
    """Per-cusp lower bound for the order of the combination minus constant."""
    table = {}
    for cusp in cusp_reps(comb.level):
        bound = min(ligozat_order(eq, cusp) for _, eq in comb.terms)
        if comb.constant != 0:
            bound = min(bound, Fraction(0))
        table[cusp] = bound
    return table


class ProofCertificate(NamedTuple):
    level: int
    combination: EtaCombination
    cusp_bounds: tuple[tuple[Cusp, Fraction], ...]  # non-infinity cusps
    valence_bound: int
    coefficients_checked: int
    verdict: str  # "proved" or "refuted at exponent k"

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"

    def render(self) -> str:
        lines = [f"level {self.level}"]
        for cusp, bound in self.cusp_bounds:
            lines.append(f"cusp {cusp}\tbound {bound}")
        lines.append(f"valence bound B = {self.valence_bound}")
        lines.append(f"coefficients checked = {self.coefficients_checked}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _expand_combination(comb: EtaCombination, n: int) -> list[int]:
    """Coefficients 0..n-1 of D * (sum coeff_i eq_i - constant).

    D is the least common denominator of the coefficients and the constant,
    so every coefficient is an integer, and it is zero exactly where the
    combination's is.
    """
    den = lcm(comb.constant.denominator,
              *(coeff.denominator for coeff, _ in comb.terms))
    out = [0] * n
    out[0] -= comb.constant.numerator * (den // comb.constant.denominator)
    for coeff, eq in comb.terms:
        scale = coeff.numerator * (den // coeff.denominator)
        out[:] = map(add, out,
                     map(mul, eta_series(eq, n).coeffs, repeat(scale)))
    return out


def prove(comb: EtaCombination) -> ProofCertificate:
    """Certify that the combination equals its constant, or refute it.

    Preconditions (violations raise): every quotient passes the modular
    function conditions at the common level.  The valence inequality gives
    B = -sum over non-infinity cusps of the negative order bounds; if the
    first B+1 expansion coefficients vanish, the combination is the zero
    function.
    """
    for _, eq in comb.terms:
        report = newman_check(eq)
        if not report.passed:
            failed = [name for name, ok in report._asdict().items() if not ok]
            raise ValueError(f"quotient {eq} fails the modular-function check: "
                             f"{', '.join(failed)}")
    table = order_table(comb)
    finite = [(cusp, bound) for cusp, bound in sorted(table.items())
              if not cusp.is_infinity(comb.level)]
    deficit = -sum(min(Fraction(0), bound) for _, bound in finite)
    valence_bound = ceil(deficit)  # beating the bound strictly stays sound
    to_check = valence_bound + 1
    coeffs = _expand_combination(comb, to_check)
    verdict = "proved"
    for k, value in enumerate(coeffs):
        if value != 0:
            verdict = f"refuted at exponent {k}"
            break
    return ProofCertificate(
        level=comb.level,
        combination=comb,
        cusp_bounds=tuple(finite),
        valence_bound=valence_bound,
        coefficients_checked=to_check,
        verdict=verdict,
    )
