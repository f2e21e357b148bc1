"""Degree-3 modular equations as exponent triples over p, 2+p and 1+2p.

Ramanujan's degree-3 parametrization (Berndt, *Ramanujan's Notebooks,
Part III*, ch. 19) sends alpha, beta and the multiplier m to

    alpha = p (2+p)^3 / (1+2p)^3,   beta = p^3 (2+p) / (1+2p),   m = 1 + 2p.

So a monomial c m^k alpha^(x/8) beta^(y/8) is c times integer powers of the
three factors p, 2+p and 1+2p.  It is kept as a term ``(c, (a, b, e))``,
which stands for c p^a (2+p)^b (1+2p)^e, and its eighth root is a division
of exponents (`rational_root`).  A sum of terms is zero exactly when
`cleared`, the sum times the least powers of the three factors and the
least integer that clear every denominator, is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

__all__ = ["ALPHA", "BETA", "M", "Term", "UnsupportedRadicand",
           "rational_root", "cleared"]

Exponents = tuple[int, int, int]  # powers of p, 2+p, 1+2p
Term = tuple[Fraction, Exponents]

ALPHA: Exponents = (1, 3, -3)
BETA: Exponents = (3, 1, -1)
M: Exponents = (0, 0, 1)


class UnsupportedRadicand(ValueError):
    """A root or power that leaves the integer powers of p, 2+p and 1+2p."""


def rational_root(exps: Exponents, k: int) -> Exponents:
    """Exponents of the k-th root of p^a (2+p)^b (1+2p)^e, positive for p > 0."""
    if k < 1:
        raise ValueError("root order must be >= 1")
    if any(e % k for e in exps):
        raise UnsupportedRadicand(
            f"exponents {exps} are not all divisible by {k}")
    return tuple(e // k for e in exps)


def _expand(a: int, b: int, e: int) -> list[int]:
    """Coefficients of p^a (2+p)^b (1+2p)^e for a, b, e >= 0 (index = degree)."""
    out = [0] * (a + b + e + 1)
    for i in range(b + 1):
        u = comb(b, i) << (b - i)
        for j in range(e + 1):
            out[a + i + j] += u * (comb(e, j) << j)
    return out


def cleared(terms: list[Term]) -> list[int]:
    """The sum of the terms as an integer polynomial in p, without trailing zeros.

    The sum is multiplied by p^a (2+p)^b (1+2p)^e with the least a, b, e >= 0
    that make every exponent nonnegative, and by the least common
    denominator of the coefficients.  Neither factor vanishes, so the sum
    is zero exactly when the result is ``[]``.
    """
    shift = [min([0, *(exps[i] for _, exps in terms)]) for i in range(3)]
    den = lcm(*(c.denominator for c, _ in terms))
    total: list[int] = []
    for c, exps in terms:
        poly = _expand(*(x - s for x, s in zip(exps, shift)))
        total.extend([0] * (len(poly) - len(total)))
        scale = c.numerator * (den // c.denominator)
        for i, v in enumerate(poly):
            total[i] += scale * v
    while total and not total[-1]:
        total.pop()
    return total
