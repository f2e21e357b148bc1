"""Classical theta series and eta-quotient expansions.

Everything is produced as an exact :class:`~thetaforms.series.Series`.
The two-parameter theta sum

    f(a, b) = sum_n a^{n(n-1)/2} b^{n(n+1)/2}

is specialized at a = s_x q^x, b = s_y q^y with signs s_x, s_y in {+1,-1};
the familiar functions are phi = f(q,q), psi = f(q,q^3), the cubic
companions f(q,q^2), f(q,q^5), and Euler's product E(q) = (q; q)_inf,
which is f(-q, -q^2) by Jacobi's triple product (Berndt, *Ramanujan's
Notebooks, Part III*, ch. 16, Entry 22(iii)); :func:`euler_power` reads
E's row of the one table of (x, y, s_x, s_y).  Lattice windows are solved
with integer square roots, so no term is ever dropped or duplicated.
:func:`eta_series` is the one eta-quotient series of the evaluator and
the prover, and the one place where a pole at infinity is refused.
:func:`general_theta` hands each series it builds its support, the sorted
exponents of its nonzero terms, as it writes them, so a cached factor such
as phi(q) at 40 000 terms, with 200 nonzeros, is never scanned.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt
from operator import mul
from typing import NamedTuple

from .series import Series, alternate_sign, compose_power
from .forms import BinaryForm, theta_series

__all__ = [
    "general_theta", "euler", "euler_power", "named_function",
    "EtaQuotient", "expand_eta_quotient", "eta_series", "BUILTIN_NAMES",
]

@lru_cache(maxsize=None)
def general_theta(x: int, y: int, n: int, sign_x: int = 1, sign_y: int = 1) -> Series:
    """Theta sum over all integers k with exponent x*k(k-1)/2 + y*k(k+1)/2;
    that is at least m*|k|(|k|-1)/2, for m the smaller nonzero of x and y,
    so |k| <= isqrt(2n // m) + 1 covers every exponent below n.  The
    exponents written, less those where terms cancel, are the support that
    the series is built with."""
    if x < 0 or y < 0 or (x == 0 and y == 0):
        raise ValueError("general_theta requires x, y >= 0, not both zero")
    if sign_x not in (1, -1) or sign_y not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    coeffs = [0] * n
    written = set()
    kmax = isqrt(2 * n // (min(x, y) or max(x, y))) + 1
    for k in range(-kmax, kmax + 1):
        tx = k * (k - 1) // 2
        ty = k * (k + 1) // 2
        e = x * tx + y * ty
        if 0 <= e < n:
            sign = 1
            if sign_x == -1 and tx % 2:
                sign = -sign
            if sign_y == -1 and ty % 2:
                sign = -sign
            coeffs[e] += sign
            written.add(e)
    return Series._raw(coeffs, [e for e in sorted(written) if coeffs[e]])


@lru_cache(maxsize=None)
def euler_power(k: int, n: int) -> Series:
    """E(q^k) = prod_{j>=1} (1 - q^{kj}), the built-in E at q^k."""
    return named_function("E", n, k)


def euler(n: int) -> Series:
    """E(q) = prod_{j>=1} (1 - q^j), truncated."""
    return euler_power(1, n)


# (x, y, sx, sy) of the built-in names that are two-parameter sums
# f(sx t^x, sy t^y) at t = q
_THETA_PAIRS = {
    "phi": (1, 1, 1, 1), "psi": (1, 3, 1, 1), "f12": (1, 2, 1, 1),
    "f15": (1, 5, 1, 1), "E": (1, 2, -1, -1),
}
# the binary forms whose theta series are the other built-in names
_BUILTINS = {
    "chi": (4, 4, 6),   # 4x^2 + 4xz + 6z^2
    "u": (3, 2, 5),     # 3x^2 + 2xy + 5y^2
}
BUILTIN_NAMES = (*_THETA_PAIRS, *_BUILTINS)


@lru_cache(maxsize=None)
def named_function(name: str, n: int, power: int = 1, negate: bool = False) -> Series:
    """Built-in series by name, with the substitution q -> (+-)q^power.

    ``negate`` substitutes -t for the argument t = q^power, e.g.
    named_function("phi", n, 7, True) is the expansion of phi at -q^7.

    phi, psi, f12, f15 and E are f(sx t^x, sy t^y) at t = q, with
    (x, y, sx, sy) read from _THETA_PAIRS.  At (+-)q^p each is one
    general_theta(x*p, y*p, n, sx, sy) call, its signs times (-1)^x and
    (-1)^y at -q^p, always all five arguments, so every call shape of a
    factor, and an equal f(+-q^a, +-q^b) leaf, shares one cached series.
    chi and u are expanded at q, then composed.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    if name in _THETA_PAIRS:
        x, y, sx, sy = _THETA_PAIRS[name]
        if negate:
            sx, sy = sx * (-1) ** x, sy * (-1) ** y
        return general_theta(x * power, y * power, n, sx, sy)
    if name not in _BUILTINS:
        raise KeyError(f"unknown built-in function {name!r}")
    base = theta_series(BinaryForm(*_BUILTINS[name]), -(-n // power))
    if negate:
        base = alternate_sign(base)
    return base if power == 1 else compose_power(base, power, n)


class _EtaFields(NamedTuple):
    level: int
    exponents: tuple[tuple[int, int], ...]  # sorted (delta, r) pairs, r != 0


class EtaQuotient(_EtaFields):
    """A finite product prod_{delta | level} eta(delta z)^{r_delta}."""

    __slots__ = ()

    def __new__(cls, level: int, exponents: tuple[tuple[int, int], ...]):
        if level < 1:
            raise ValueError("level must be >= 1")
        seen = set()
        for delta, r in exponents:
            if delta < 1 or level % delta:
                raise ValueError(f"{delta} does not divide the level {level}")
            if delta in seen:
                raise ValueError(f"duplicate divisor {delta}")
            seen.add(delta)
        return tuple.__new__(cls, (level, exponents))

    @classmethod
    def from_dict(cls, level: int, exps: dict[int, int]) -> "EtaQuotient":
        pairs = tuple(sorted((d, r) for d, r in exps.items() if r != 0))
        return cls(level, pairs)

    @property
    def weight_sum(self) -> int:
        """sum of r_delta (zero for a modular function)."""
        return sum(r for _, r in self.exponents)

    @property
    def delta_weighted_sum(self) -> int:
        """sum of delta * r_delta; 24 times the leading q-exponent."""
        return sum(d * r for d, r in self.exponents)

    @property
    def codelta_weighted_sum(self) -> int:
        """sum of (level/delta) * r_delta."""
        return sum((self.level // d) * r for d, r in self.exponents)

    def __str__(self) -> str:
        inner = ",".join(f"{d}:{r}" for d, r in self.exponents)
        return "eta{%s}" % inner


def _from_log_derivative(g: list[int]) -> list[int]:
    """The a with a_0 = 1 and q a' = a * sum_i g_i q^i, to len(g) terms, by
    k a_k = sum_{i=1..k} g_i a_(k-i); an inexact step raises ArithmeticError."""
    a = [1] if g else []
    for k in range(1, len(g)):
        ak, rem = divmod(sum(map(mul, a, g[k:0:-1])), k)
        if rem:
            raise ArithmeticError(f"step {k} of the recurrence is not exact")
        a.append(ak)
    return a


def expand_eta_quotient(eq: EtaQuotient, n: int) -> tuple[int, Series]:
    """Expansion as q^offset * s with s(0) = 1.

    offset = sum(delta * r_delta) / 24, which must be an integer.  The unit
    part s = prod E(q^delta)^{r_delta} = prod_{m>=1} (1 - q^m)^{c_m}, with
    c_m = sum_{delta | m} r_delta, has q s'/s = sum_i g_i q^i for
    g_i = -sum_{m | i} m c_m, so k s_k = sum_{i=1..k} g_i s_(k-i).  The
    division by k is exact, as s is an integer series: a product of integer
    series with constant term 1 and of their inverses.
    """
    total = eq.delta_weighted_sum
    if total % 24:
        raise ValueError(
            f"eta quotient has non-integral leading exponent: "
            f"sum(delta*r) = {total} is not divisible by 24")
    c = [0] * n
    for delta, r in eq.exponents:
        for m in range(delta, n, delta):
            c[m] += r
    g = [0] * n
    for m in compress(range(n), c):
        for i in range(m, n, m):
            g[i] -= m * c[m]
    return total // 24, Series._raw(_from_log_derivative(g))


def eta_series(eq: EtaQuotient, n: int) -> Series:
    """q^offset times the unit of :func:`expand_eta_quotient`, to n terms;
    a pole at infinity, offset < 0, raises ValueError."""
    offset, unit = expand_eta_quotient(eq, n)
    if offset < 0:
        raise ValueError(
            f"quotient {eq} has a pole at infinity (offset {offset})")
    return Series._raw((0,) * min(offset, n)
                       + unit.coeffs[:max(n - offset, 0)])
