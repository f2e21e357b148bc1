"""Small exact integer-arithmetic helpers shared across the package."""

from __future__ import annotations

__all__ = [
    "jacobi", "factorize", "prime_divisors", "divisors",
    "euler_phi", "is_squarefree",
]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1; 0 when gcd(a, n) > 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires an odd positive lower argument")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** i for d in ds for i in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())
