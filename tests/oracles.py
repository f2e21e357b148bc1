"""Reference helpers that only the tests use, as oracles for the package."""

from fractions import Fraction
from math import gcd

from thetaforms.forms import TernaryForm
from thetaforms.prover import Cusp, EtaCombination
from thetaforms.series import Series, invert
from thetaforms.theta import EtaQuotient, euler_power, expand_eta_quotient


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


def expand_eta_quotient_by_products(eq: EtaQuotient, n: int) -> tuple[int, Series]:
    """`expand_eta_quotient` as products of pentagonal expansions E(q^delta)
    and one Newton inversion of the denominator's product.

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
        piece = euler_power(delta, n) ** abs(r)
        if r > 0:
            num = piece if num is None else num * piece
        else:
            den = piece if den is None else den * piece
    # an empty series has no inverse, and nothing to invert
    if den is not None and n:
        num = invert(den) if num is None else num * invert(den)
    return total // 24, Series.one(n) if num is None else num
