"""Truncated formal power series with exact integer coefficients.

A :class:`Series` stores exactly ``truncation`` coefficients, indexed by
exponent ``0 .. truncation-1``.  Binary operations truncate to the shorter
operand; unknown coefficients are never silently treated as zero.  All
arithmetic is over the integers -- no floating point anywhere -- and values
are immutable after construction, so they are safe to share between
threads.

Multiplication takes one of two paths, chosen from the operands' nonzero
counts (counted in C, with ``len(c) - c.count(0)``):

* the pair loop, when the nonzero counts multiply to at most
  ``_PAIRS_PER_COEFF`` pairs per output coefficient: a double loop over the
  nonzero coefficients of both operands, each row stopped at the output
  truncation.  Theta factors such as phi and psi take it; at 40 000 terms
  they have 200 and 283 nonzeros.
* otherwise one big-integer product (Kronecker substitution): each operand
  is packed once, signed coefficients included, into fixed-width slots wide
  enough for every output coefficient, the two integers are multiplied, and
  the output slots are read back as signed integers.

Both give exactly the schoolbook product.

A sifted product ``sift(a * b, t, s)`` reads one coefficient in t of the
product.  :func:`sift_product` computes it from the sifts of the two
operands instead, as t products each about 1/t as long, so a sift that
keeps 500 coefficients of a 28 000-term product multiplies 500-term
series only.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import add
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "Series", "compose_power", "invert", "sift", "sift_product",
    "alternate_sign", "is_nonnegative",
]

# The pair loop runs when it multiplies at most this many coefficient pairs
# per output coefficient; past that, one big-integer product is cheaper.
_PAIRS_PER_COEFF = 16


def _nonzero(coeffs: Sequence[int]) -> list[int]:
    return list(compress(range(len(coeffs)), coeffs))


def _pair_loop(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    """Cauchy product over nonzero pairs only, each row stopped at n_out."""
    ia, ib = _nonzero(a), _nonzero(b)
    if len(ia) > len(ib):
        a, b, ia, ib = b, a, ib, ia
    out = [0] * n_out
    for i in ia:
        ai = a[i]
        for j in ib[:bisect_left(ib, n_out - i)]:
            out[i + j] += ai * b[j]
    return out


def _offset(width: int, count: int) -> int:
    """2**(8*width - 1) in each of count width-byte slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum(c * 2**(8*width*i)) over signed coefficients c = coeffs[i].

    Each slot is written in two's complement; flipping its top bit turns
    it into c + 2**(8*width - 1), so the packed bytes read as the wanted
    sum plus the offset in every slot.
    """
    buf = bytearray(width * len(coeffs))
    for i in compress(range(len(coeffs)), coeffs):
        buf[i * width:(i + 1) * width] = coeffs[i].to_bytes(
            width, "little", signed=True)
    offset = _offset(width, len(coeffs))
    return (int.from_bytes(buf, "little") ^ offset) - offset


def _kronecker(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    """Cauchy product by one signed big-integer multiply (Kronecker).

    Both operands must have a nonzero coefficient.
    """
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    # no output coefficient exceeds this in absolute value; slots get one
    # bit more, for the sign
    bound = min(sum(map(abs, a)) * mb, sum(map(abs, b)) * ma)
    width = bound.bit_length() // 8 + 1
    prod = _pack(a, width) * _pack(b, width)
    # With the offset added, the low n_out slots hold c + 2**(8*width - 1),
    # in [0, 2**(8*width)), so no slot borrows from the next; flipping the
    # top bits back leaves each c in two's complement.
    offset = _offset(width, n_out)
    low = ((prod + offset) & ((1 << (8 * width * n_out)) - 1)) ^ offset
    raw = low.to_bytes(width * n_out, "little")
    return [int.from_bytes(raw[k:k + width], "little", signed=True)
            for k in range(0, len(raw), width)]


def _convolve(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    """First n_out coefficients of the Cauchy product of a and b."""
    if n_out <= 0:
        return []
    a = a[:n_out]
    b = b[:n_out]
    nza = len(a) - a.count(0)
    nzb = len(b) - b.count(0)
    if not nza or not nzb:
        return [0] * n_out
    if nza * nzb <= _PAIRS_PER_COEFF * n_out:
        return _pair_loop(a, b, n_out)
    return _kronecker(a, b, n_out)


class Series:
    """Dense integer power series truncated at a fixed exponent bound."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs: Iterable[int], truncation: Optional[int] = None):
        cs = tuple(coeffs)
        if truncation is None:
            truncation = len(cs)
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        if len(cs) != truncation:
            raise ValueError(
                f"coefficient count {len(cs)} != truncation {truncation}")
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be plain integers")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "truncation", truncation)

    @classmethod
    def _raw(cls, coeffs: list[int]) -> "Series":
        # internal fast path; callers guarantee integer entries
        self = cls.__new__(cls)
        cs = tuple(coeffs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "truncation", len(cs))
        return self

    @classmethod
    def zero(cls, truncation: int) -> "Series":
        return cls._raw([0] * truncation)

    @classmethod
    def one(cls, truncation: int) -> "Series":
        return cls.monomial(0, truncation)

    @classmethod
    def monomial(cls, exponent: int, truncation: int, coeff: int = 1) -> "Series":
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        cs = [0] * truncation
        if exponent < truncation:
            cs[exponent] = coeff
        return cls._raw(cs)

    def __setattr__(self, name, value):
        raise AttributeError("Series objects are immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series)
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __len__(self) -> int:
        return self.truncation

    def __getitem__(self, exponent: int) -> int:
        if not 0 <= exponent < self.truncation:
            raise IndexError(
                f"exponent {exponent} outside truncation {self.truncation}")
        return self.coeffs[exponent]

    def truncate(self, n: int) -> "Series":
        if n > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return Series._raw(list(self.coeffs[:n]))

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a, b = self.coeffs, other.coeffs
        return Series._raw([a[i] + b[i] for i in range(n)])

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a, b = self.coeffs, other.coeffs
        return Series._raw([a[i] - b[i] for i in range(n)])

    def __neg__(self) -> "Series":
        return Series._raw([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.truncation, other.truncation)
            return Series._raw(_convolve(self.coeffs, other.coeffs, n))
        if isinstance(other, int):
            return Series._raw([other * c for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int) or k < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        if k == 0:
            return Series.one(self.truncation)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.truncation > 8 else ""
        return f"Series([{head}{tail}], truncation={self.truncation})"


def compose_power(a: Series, k: int, truncation: Optional[int] = None) -> Series:
    """Substitute q -> q^k: exponent i maps to k*i.

    The result keeps a's truncation unless ``truncation`` is given; it may
    reach k * a.truncation, where the first unknown coefficient of a lands.
    """
    if k < 1:
        raise ValueError("compose_power requires k >= 1")
    n = a.truncation if truncation is None else truncation
    if not 0 <= n <= k * a.truncation:
        raise ValueError(
            f"truncation {n} outside 0..{k * a.truncation} for q -> q^{k}")
    out = [0] * n
    out[::k] = a.coeffs[:(n + k - 1) // k]
    return Series._raw(out)


def invert(a: Series) -> Series:
    """Multiplicative inverse up to the truncation; constant term must be +-1.

    Newton iteration, doubling the working precision each round.
    """
    if a.truncation == 0:
        raise ValueError("cannot invert an empty series")
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term {c0} is not a unit over the integers")
    n = a.truncation
    ca = a.coeffs
    x = [c0]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        ax = _convolve(ca[:prec], x, prec)
        t = [-v for v in ax]
        t[0] += 2
        x = _convolve(x, t, prec)
    return Series._raw(x)


def sift(a: Series, t: int, s: int) -> Series:
    """Arithmetic-progression extraction: output[k] = a[t*k + s]."""
    if t < 1 or not 0 <= s < t:
        raise ValueError(f"sift requires 0 <= s < t, got t={t}, s={s}")
    return Series._raw(list(a.coeffs[s::t]))


def sift_product(a: Series, b: Series, t: int, s: int) -> Series:
    """sift(a * b, t, s), without forming a * b.

    With a_r = sift(a, t, r), the coefficient of q^(t*k + s) in a * b is
    the sum over r of (a_r * b_(s-r))[k] for r <= s, and of
    (a_r * b_(s-r+t))[k - 1] for r > s, where the exponents of the two
    residues carry past t.
    """
    if t < 1 or not 0 <= s < t:
        raise ValueError(f"sift requires 0 <= s < t, got t={t}, s={s}")
    size = len(range(s, min(a.truncation, b.truncation), t))
    out = [0] * size
    for r in range(t):
        carry = int(r > s)
        if size <= carry:
            continue
        x = sift(a, t, r)
        y = sift(b, t, (s - r) % t)
        if any(x.coeffs) and any(y.coeffs):
            # both sifts hold at least size - carry coefficients
            out[carry:] = map(add, out[carry:], (x * y).coeffs)
    return Series._raw(out)


def alternate_sign(a: Series) -> Series:
    """Multiply the coefficient of q^n by (-1)^n (substitute q -> -q)."""
    return Series._raw([c if i % 2 == 0 else -c
                        for i, c in enumerate(a.coeffs)])


def is_nonnegative(a: Series) -> Tuple[bool, Optional[int]]:
    """Whether all stored coefficients are >= 0; else the first bad exponent."""
    for i, c in enumerate(a.coeffs):
        if c < 0:
            return False, i
    return True, None
