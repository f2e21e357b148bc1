"""Exact univariate rational functions for degree-3 modular equation checks.

The degree-3 parametrization sends alpha, beta, and the multiplier m to

    alpha = p (2+p)^3 / (1+2p)^3,   beta = p^3 (2+p) / (1+2p),   m = 1 + 2p.

Every monomial alpha^{x/8} beta^{y/8} that occurs reduces to an exact
rational function of p because its radicand factors into powers of p, 2+p
and 1+2p; the eighth root is extracted exactly by `rational_root`.
Polynomials are dense integer coefficient lists (index = degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import iroot

__all__ = ["Poly", "RationalFunction", "rational_root",
           "ALPHA_RF", "BETA_RF", "M_RF", "UnsupportedRadicand"]


class UnsupportedRadicand(ValueError):
    """Radicand does not factor into the parametrized multiplicative span."""


Poly = tuple[int, ...]  # dense, coefficient of p^i at index i, no trailing zeros


def _trim(cs: list[int]) -> Poly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def p_pow(a: Poly, k: int) -> Poly:
    out: Poly = (1,)
    base = a
    while k:
        if k & 1:
            out = p_mul(out, base)
        k >>= 1
        if k:
            base = p_mul(base, base)
    return out


def p_content(a: Poly) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g or 1


def p_divexact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division; raises if the remainder is nonzero."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = [Fraction(c) for c in a]
    out = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        q = rem[i + len(b) - 1] / lead
        out[i] = q
        if q:
            for j, bj in enumerate(b):
                rem[i + j] -= q * bj
    if any(rem):
        raise UnsupportedRadicand("polynomial division is not exact")
    ints = []
    for c in out:
        if c.denominator != 1:
            raise UnsupportedRadicand("quotient is not integral")
        ints.append(c.numerator)
    return _trim(ints)


def p_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]

    def trimf(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    fa, fb = trimf(fa), trimf(fb)
    while fb:
        # remainder of fa by fb
        rem = fa[:]
        for i in range(len(rem) - len(fb), -1, -1):
            q = rem[i + len(fb) - 1] / fb[-1]
            if q:
                for j, c in enumerate(fb):
                    rem[i + j] -= q * c
        fa, fb = fb, trimf(rem)
    if not fa:
        return ()
    lcm_den = 1
    for c in fa:
        lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
    ints = _trim([int(c * lcm_den) for c in fa])
    cont = p_content(ints)
    ints = tuple(c // cont for c in ints)
    if ints and ints[-1] < 0:
        ints = p_neg(ints)
    return ints


@dataclass(frozen=True)
class RationalFunction:
    """num/den with integer coefficients, reduced, positive leading denominator."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def make(cls, num, den=(1,)) -> "RationalFunction":
        num = _trim(list(num))
        den = _trim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls((), (1,))
        g = p_gcd(num, den)
        if len(g) > 1 or (g and g[0] != 1):
            num = p_divexact(num, g)
            den = p_divexact(den, g)
        cn, cd = p_content(num), p_content(den)
        c = gcd(cn, cd)
        if c > 1:
            num = tuple(v // c for v in num)
            den = tuple(v // c for v in den)
        if den[-1] < 0:
            num, den = p_neg(num), p_neg(den)
        return cls(num, den)

    @classmethod
    def from_int(cls, k: int) -> "RationalFunction":
        return cls.make((k,))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RationalFunction":
        return cls.make((q.numerator,), (q.denominator,))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(p_neg(self.num), self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            p_mul(self.num, other.num), p_mul(self.den, other.den))

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFunction((1,), (1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("inverting the zero rational function")
        return RationalFunction.make(self.den, self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __str__(self) -> str:
        def fmt(poly):
            if not poly:
                return "0"
            parts = []
            for i, c in enumerate(poly):
                if not c:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*p" if c != 1 else "p")
                else:
                    parts.append(f"{c}*p^{i}" if c != 1 else f"p^{i}")
            return " + ".join(parts)
        if self.den == (1,):
            return fmt(self.num)
        return f"({fmt(self.num)}) / ({fmt(self.den)})"


# the three base factors of the parametrization
_P: Poly = (0, 1)
_TWO_PLUS_P: Poly = (2, 1)
_ONE_PLUS_2P: Poly = (1, 2)

ALPHA_RF = RationalFunction.make(p_mul(_P, p_pow(_TWO_PLUS_P, 3)),
                                 p_pow(_ONE_PLUS_2P, 3))
BETA_RF = RationalFunction.make(p_mul(p_pow(_P, 3), _TWO_PLUS_P),
                                _ONE_PLUS_2P)
M_RF = RationalFunction.make(_ONE_PLUS_2P)


def _factor_into_span(poly: Poly) -> tuple[int, int, int, int]:
    """Write poly = const * p^i * (2+p)^j * (1+2p)^k, or raise."""
    if not poly:
        raise UnsupportedRadicand("zero polynomial has no factorization")
    exps = [0, 0, 0]
    for idx, base in enumerate((_P, _TWO_PLUS_P, _ONE_PLUS_2P)):
        while len(poly) > 1:
            try:
                poly = p_divexact(poly, base)
            except UnsupportedRadicand:
                break
            exps[idx] += 1
    if len(poly) != 1:
        raise UnsupportedRadicand(
            "polynomial does not factor into powers of p, 2+p, 1+2p")
    return poly[0], exps[0], exps[1], exps[2]


def rational_root(r: RationalFunction, k: int) -> RationalFunction:
    """Exact k-th root of a rational function supported on {p, 2+p, 1+2p}."""
    if k < 1:
        raise ValueError("root order must be >= 1")
    cn, np_, n2p, n12p = _factor_into_span(r.num)
    cd, dp_, d2p, d12p = _factor_into_span(r.den)
    exps = (np_ - dp_, n2p - d2p, n12p - d12p)
    if any(e % k for e in exps):
        raise UnsupportedRadicand(
            f"exponents {exps} are not all divisible by {k}")
    if cn < 0 or cd < 0:
        raise UnsupportedRadicand("negative constant has no real k-th root here")
    rn, rd = iroot(cn, k), iroot(cd, k)
    if rn is None or rd is None:
        raise UnsupportedRadicand(
            f"constant {cn}/{cd} is not a perfect {k}-th power")
    out = RationalFunction.make((rn,), (rd,))
    for exp, base in zip(exps, (_P, _TWO_PLUS_P, _ONE_PLUS_2P)):
        out = out * RationalFunction.make(base) ** (exp // k)
    return out
