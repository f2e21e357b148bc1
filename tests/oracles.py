"""Reference helpers that only the tests use, as oracles for the package."""

from fractions import Fraction
from math import gcd

from thetaforms.forms import TernaryForm
from thetaforms.prover import Cusp, EtaCombination
from thetaforms.theta import expand_eta_quotient


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
