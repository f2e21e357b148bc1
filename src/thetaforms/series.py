"""Truncated formal power series with exact integer coefficients.

A :class:`Series` stores exactly ``truncation`` coefficients, indexed by
exponent ``0 .. truncation-1``.  Binary operations truncate to the shorter
operand; unknown coefficients are never silently treated as zero.  All
arithmetic is over the integers -- no floating point anywhere -- and the
coefficients are immutable after construction.  A series also keeps its
support, the sorted exponents of its nonzero coefficients, in one slot
that is filled when the series is built by a builder that knows it, or
else the first time a product or a power needs it, and never changes
after; two threads that fill it at once compute equal lists, and
either one is kept.  So a series is safe to share between threads.

Every product in the package is a Series product, :func:`invert`'s
Newton steps included, and goes through ``Series.__mul__`` into one of
three kernels.  With nza <= nzb the operands' nonzero counts below the
output length n, each is priced in integer steps of the pair loop (one
multiply-add), and the cheapest runs:

* the pair loop, nza * nzb steps: a double loop over the nonzero
  coefficients of both operands, each row stopped at the output
  truncation.  Products of two theta factors such as phi and psi take it;
  at 40 000 terms they have 200 and 283 nonzeros.  A square, one operand
  object on both sides as ``Series.__pow__``, ``phi * phi`` and the cached
  theta factors give it, walks each unordered pair once, in half the steps.
* the row kernel, about 2 n steps to pack the denser operand and unpack
  the sum, plus n / 32 steps for each of its nza rows: one shifted copy of
  the packed operand is added per nonzero of the sparser one, the rows of
  each distinct coefficient summed first and multiplied by it once, so
  phi(q)'s rows, 2 at all but exponent 0, take two multiplies, not one per
  row.  So the pair loop runs while nza * nzb * 32 <= n * (64 + nza),
  and the row kernel takes a theta factor times a dense series, such as
  psi * (phi^2 - phi(q^7)^2) at 40 000 terms.  The packed operand is
  reversed (below), so the row of exponent i costs n - i slots, not n + i.
* one big-integer product (Kronecker substitution) of both packed
  operands.  CPython multiplies by Karatsuba, so this cost grows about as
  n^1.6 where the row kernel's grows as nza * n; the row kernel runs while
  nza^3 <= 2 n^2 (about 79 rows at n = 500, 317 at 4000, 1473 at 40 000).
  A square is packed once, and CPython squares the packed int.

A cold registry pass makes 580 products this way (401 pair, 150 row and
29 big), a count the tests pin.  The two boundaries were fitted on the
shapes below, here timed with the kernels as they are: a sparser operand
of +-1 at random places times b, either phi(q)^2 - phi(q^7)^2 ("dense",
about 0.3 n nonzeros) or n / 16 random nonzeros of at most 3 (best of 7,
ms, CPython 3.11.7, 2-core x86-64 sandbox):

    n       b       nza     pair      row      big    rule
    500     dense     4    0.048    0.051    0.089    pair
    500     dense     8    0.078    0.058    0.123    row
    500     dense    79    0.742    0.135    0.151    row
    500     dense   158    1.375    0.200    0.138    big
    4000    n/16     64    0.647    0.550    1.795    pair
    4000    n/16    128    1.155    0.729    1.715    row
    4000    dense   317    19.55    1.264    1.893    row
    4000    dense   634    36.73    1.900    1.863    big
    40 000  n/16     64    6.014    5.640    42.27    pair
    40 000  n/16    128    11.48    6.504    44.82    row
    40 000  dense  1473        -    62.85    137.5    row
    40 000  dense  2946        -    117.5    139.0    big

With rows spread evenly, the truncated row kernel beats the big multiply
up to about 630 rows at n = 4000 and 3 500 at 40 000, well past
nza^3 = 2 n^2.  The boundaries stay: the rule's picks cost 38.4 ms on the
580 products of a cold registry pass against 37.0 for the fastest kernel
of each, and are the fastest on all 28 of the positivity scans to 40 000
terms.  The slot width (below) is no input of the rule.

The counts come from the support where it is filled, else from
``len(c) - c.count(0)`` in C (:func:`_count`); a kernel that walks
nonzeros is handed the supports (:func:`_convolve`).  A theta factor
comes from ``theta.general_theta`` with its support filled, so it is
never scanned, however many products it enters.

Both packed kernels share one codec and one slot bound.  Each coefficient
gets a fixed-width slot wide enough for sum|a| * max|b|, a sum over the
sparser operand a that bounds every output coefficient, plus a sign bit
(:func:`_layout`).  :func:`_pack` writes an operand reversed, its first
coefficient in the top slot of one int, with no reversed list, and
:func:`_unpack` reads the top slot first, so the coefficients come back
in forward order.  One XOR with :func:`_offset`, 2**(8w - 1) in every
slot, lets signed slots add and shift without borrows.  Every kernel
gives exactly the schoolbook product.

Each packed kernel also reports its product's sign.  Before unpacking, a
slot holds its coefficient in two's complement, so ``total & offsets`` is
nonzero exactly when a coefficient is negative.  The product keeps that
bit in a slot of its own, and :func:`is_nonnegative` reads it in place of
a pass over the coefficients; only a product with a negative coefficient
is scanned, for its first negative exponent.

:func:`_layout` reads the denser operand b once, as ``set(b)``, and takes
the extremes of its distinct values: theta products have few, so the set
is mostly hash hits (0.51 ms against 0.99 for ``max(b)`` and ``min(b)`` on
phi(q)^2 - phi(q^7)^2 at 40 000 terms), though on 40 000 distinct values
it is the slower pass.  :func:`packed_sum` adds shifts of
nonnegative coefficients with the same codec and no offsets: a split
ternary theta series (`forms._shift_sum`) and a genus's weighted theta
series (`genus._weighted_cached`) are one call each.
:func:`packed_first_nonzero` finds where a signed sum of nonnegative
columns is first nonzero from the lowest set bit of one packed sum: one
call per residue class of a ternary relation (`identities.verify_ternary`).

:func:`sift` is one tuple slice ``a.coeffs[s::t]``.  A sifted product
``sift(a * b, t, s)`` is computed by :func:`sift_product` from the slices
of the two operands instead, skipping a pair with an all-zero slice, as t
products each about 1/t as long, so a sift that keeps 500 coefficients of
a 28 000-term product multiplies 500-term series only.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from functools import partial
from itertools import compress, repeat
from operator import add, itemgetter, mul, neg, sub
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "Series", "compose_power", "invert", "sift", "sift_product",
    "alternate_sign", "is_nonnegative",
]

# Kernel costs in pair-loop steps (one multiply-add), fitted as the module
# docstring shows.  Packing b and unpacking the sum cost the row kernel
# about _PACK_STEPS steps per output coefficient, and each of its shifted
# adds about one step per _SLOTS_PER_STEP output coefficients.
_PACK_STEPS = 2
_SLOTS_PER_STEP = 32
# The row kernel beats the big multiply while nza**3 <= _ROW_CUBE * n**2.
_ROW_CUBE = 2

# Calls per product kernel since import.  Only _convolve adds to it, without
# a lock, so threads multiplying at once may lose counts; tests and
# profiling read it.
kernel_calls = {"pair": 0, "row": 0, "big": 0}

# big-endian signed struct codes by slot width in bytes
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}


def _nonzero(coeffs: Sequence[int]) -> list[int]:
    return list(compress(range(len(coeffs)), coeffs))


def _pair_loop(a: Sequence[int], b: Sequence[int], n_out: int,
               ia: list[int], ib: list[int]) -> list[int]:
    """Cauchy product over nonzero pairs only, each row stopped at n_out.

    ia and ib are the sorted nonzero exponents of a and b.  One row per
    nonzero of a, which should be the sparser operand.  A square (a is b)
    walks each unordered pair once: a_i**2 at 2i, and 2 * a_i * a_j for
    i < j.
    """
    out = [0] * n_out
    if a is b:
        for k, i in enumerate(ia):
            if 2 * i >= n_out:
                break
            ai = a[i]
            out[2 * i] += ai * ai
            ai += ai
            for j in ia[k + 1:bisect_left(ia, n_out - i)]:
                out[i + j] += ai * a[j]
        return out
    for i in ia:
        ai = a[i]
        for j in ib[:bisect_left(ib, n_out - i)]:
            out[i + j] += ai * b[j]
    return out


def _layout(a: Iterable[int], b: Sequence[int]) -> int:
    """Bytes per slot for the coefficients of a * b and of both operands.

    For b with a nonzero coefficient, sum|a| * max|b| bounds them all; a
    holds the other operand's coefficients, or just its nonzeros, and the
    sum is least over the sparser operand.  A slot needs the bound's
    bit_length() bits plus one for the sign.  Up to 8 bytes it rounds up
    to 1, 2, 4 or 8, the widths struct packs as signed integers; wider
    slots take exactly the bytes they need.
    """
    # one pass over b: its distinct values, then their extremes
    values = set(b)
    bound = sum(map(abs, a)) * max(max(values), -min(values))
    size = bound.bit_length() // 8 + 1
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _offset(width: int, count: int) -> int:
    """2**(8*width - 1) in each of count width-byte slots."""
    return int.from_bytes((b"\x80" + bytes(width - 1)) * count, "big")


def _pack(coeffs: Sequence[int], width: int, count: int, forward=False) -> int:
    """The first count coeffs as signed big-endian slots of one int, read
    reversed: c_j in two's complement in slot count - 1 - j, zeros below;
    an XOR with :func:`_offset` adds 2**(8*width - 1) to every slot.
    forward packs unsigned slots c_j in slot j, and a negative c_j raises."""
    coeffs = coeffs[:count]
    order = "little" if forward else "big"
    if width in _SIGNED:
        fmt = "<%d" + _SIGNED[width].upper() if forward else ">%d" + _SIGNED[width]
        raw = struct.pack(fmt % len(coeffs), *coeffs)
    else:
        raw = b"".join(map(partial(int.to_bytes, length=width, byteorder=order,
                                   signed=not forward), coeffs))
    return int.from_bytes(raw + bytes(width * (count - len(coeffs))), order)


def _unpack(value: int, width: int, count: int) -> tuple[int, ...]:
    """The count signed slots of value, packed as by :func:`_pack`: the
    top slot first, so a reversed polynomial reads back in forward order."""
    raw = value.to_bytes(width * count, "big")
    if width in _SIGNED:
        return struct.unpack(f">{count}{_SIGNED[width]}", raw)
    return tuple(map(partial(int.from_bytes, byteorder="big", signed=True),
                     map(itemgetter(0), struct.iter_unpack(f"{width}s", raw))))


def _row_kernel(a: Sequence[int], b: Sequence[int], n_out: int,
                rows: list[int]) -> tuple[tuple[int, ...], bool]:
    """Cauchy product as one shifted add of packed b per nonzero of a, and
    one multiply per distinct coefficient of a.

    b is packed in reverse, b_j in slot n_out - 1 - j, with the offset left
    in so that every slot is nonnegative.  A right shift by i slots then
    drops exactly the terms that would land at or past n_out, with no
    borrow.  The rows of one coefficient c, added from the highest exponent
    of a down, keep their sum n_out - i slots long, and c times that sum
    joins the total before the next coefficient's rows are added, so the
    total is the one the rows would give one by one.  Slot n_out - 1 - k of
    the total holds c_k + 2**(8*width - 1) * A_k, for the product c and the
    prefix sums A_k = a_0 + ... + a_k, of which all but one offset is taken
    off before unpacking.  rows are the sorted exponents below n_out of the
    nonzeros of a, which should be the sparser operand, and b must have a
    nonzero coefficient; a b shorter than n_out counts as padded with
    zeros.  Returns the product and whether a coefficient is negative,
    read as by :func:`_big_multiply`.
    """
    if not rows:
        return (0,) * n_out, False
    # the slot bound sum|a| * max|b| bounds every |A_k| too, and a sum
    # over the few listed nonzeros of a costs less than one over all of a
    width = _layout(map(a.__getitem__, rows), b)
    bits = 8 * width
    offsets = _offset(width, n_out)
    row = _pack(b, width, n_out) ^ offsets
    # the shifts of the rows of each coefficient, highest exponent first;
    # one group's sum is formed at a time and multiplied once
    shifts = {}
    for i in reversed(rows):
        shifts.setdefault(a[i], []).append(bits * i)
    acc = 0
    for c, group in shifts.items():
        acc += c * sum(map(row.__rshift__, group))
    # A_k - 1 is constant from one row to the next, so its slots, offset
    # like b's, are written as one run of equal bytes per row, from the top
    low = (1 << (bits - 1)) - 1
    total = top = 0
    runs = []
    for i in rows:
        runs.append((total + low).to_bytes(width, "big") * (i - top))
        total += a[i]
        top = i
    runs.append((total + low).to_bytes(width, "big") * (n_out - top))
    prefix = int.from_bytes(b"".join(runs), "big") - offsets
    total = (acc - (prefix << (bits - 1))) ^ offsets
    return _unpack(total, width, n_out), bool(total & offsets)


def _big_multiply(a: Sequence[int], b: Sequence[int],
                  n_out: int) -> tuple[tuple[int, ...], bool]:
    """Cauchy product by one signed big-integer multiply (Kronecker).

    Both operands, packed reversed over n_out slots, put c_k in slot
    2 n_out - 2 - k of their product, so c_0 .. c_(n_out-1) are its top
    n_out slots, which an offset in each slot below keeps from a borrow.
    Both operands must have a nonzero coefficient, and a should be the
    sparser, whose sum|a| the slot bound reads.  A square (a is b) is
    packed once, and the packed int times itself takes CPython's squaring.

    Returns the product and whether a coefficient is negative.  Each slot
    of the packed product holds its coefficient in two's complement, so
    its top bit, the bit :func:`_offset` sets, is the sign, and one AND
    with the offsets tells, with no pass over the unpacked tuple.
    """
    width = _layout(a, b)
    bits = 8 * width
    offsets = _offset(width, n_out)
    packed = (_pack(a, width, n_out) ^ offsets) - offsets
    other = packed if a is b else (_pack(b, width, n_out) ^ offsets) - offsets
    top = (packed * other + (offsets >> bits)) >> (bits * (n_out - 1))
    total = (top + offsets) ^ offsets
    return _unpack(total, width, n_out), bool(total & offsets)


def packed_sum(parts: Sequence[tuple[Sequence[int], dict[int, list[int]]]],
               n: int) -> tuple[int, ...]:
    """The first n terms of the sum over parts (coeffs, {c: shifts}) of c
    times coeffs moved up by each shift, for nonnegative coeffs and c.

    Each coeffs, nonempty, is packed once, reversed as the row kernel
    packs b, so a right shift by s slots moves exponent j to j + s and
    drops the term once it reaches n.  The shifts of one c are summed
    smallest result first, as the row kernel adds its rows, and the sum
    is multiplied by c once.  No output exceeds the sum of c over every
    shift times the largest coefficient of any part, the bound that
    :func:`_layout` reads, so the slots add with no offsets and no carry.
    """
    if not n:
        return ()
    width = _layout([c * len(shifts) for _, weights in parts
                     for c, shifts in weights.items()],
                    [max(coeffs) for coeffs, _ in parts])
    total = 0
    for coeffs, weights in parts:
        packed = _pack(coeffs, width, n)
        for c, shifts in weights.items():
            total += c * sum(packed >> 8 * width * s
                             for s in sorted(shifts, reverse=True))
    return _unpack(total, width, n)


def packed_first_nonzero(columns: Sequence[tuple]) -> Optional[int]:
    """The least i where sum c * values[i] over the columns (c, values) is
    nonzero, a short column padded with zeros, or None when there is none.

    The columns with c != 0 are packed forward, values[i] in slot i, and a
    negative value raises ValueError.  The slot width (:func:`_layout`)
    bounds sum|c| * max(values) with a bit to spare, so each slot sum R_i
    has |R_i| < 2**(8w), and the total sum_i R_i * 2**(8w*i) is 0 exactly
    when every R_i is.  Else, for the first nonzero R_k, it is
    2**(8w*k) * (R_k + 2**(8w) * X), and as R_k is no multiple of 2**(8w),
    the lowest set bit of the total lies in slot k.
    """
    live = [(c, values) for c, values in columns if c and values]
    width = _layout([c for c, _ in live], [max(v) for _, v in live] or [0])
    try:
        total = sum(c * _pack(values, width, len(values), forward=True)
                    for c, values in live)
    except (struct.error, OverflowError):
        raise ValueError("a packed relation takes no negative value") from None
    return ((total & -total).bit_length() - 1) // (8 * width) if total else None


def _count(a: Sequence[int], owner: "Series", n_out: int) -> int:
    """How many coefficients of a, the head of owner's coefficients up to
    n_out, are nonzero: a binary search in owner's support when that is
    filled, else counted in C."""
    support = owner._support
    if support is None:
        return len(a) - a.count(0)
    return bisect_left(support, n_out)


def _convolve(sa: "Series", sb: "Series", n_out: int) -> "Series":
    """sa * sb to n_out terms.  A kernel that walks nonzeros is handed the
    operands' supports below n_out, filled if need be; a packed kernel's
    sign report is kept in the product."""
    square = sa is sb
    a = sa.coeffs[:n_out]
    # a square stays one object, for the kernels' square paths
    b = a if square else sb.coeffs[:n_out]
    nza = _count(a, sa, n_out)
    nzb = nza if square else _count(b, sb, n_out)
    if not nza or not nzb:
        return Series._raw((0,) * n_out, negative=False)
    if nza > nzb:
        a, b, sa, sb, nza, nzb = b, a, sb, sa, nzb, nza
    # pair loop nza * nzb steps against row kernel
    # n_out * (_PACK_STEPS + nza / _SLOTS_PER_STEP), times _SLOTS_PER_STEP
    if nza * nzb * _SLOTS_PER_STEP <= n_out * (
            _PACK_STEPS * _SLOTS_PER_STEP + nza):
        kernel_calls["pair"] += 1
        return Series._raw(_pair_loop(a, b, n_out, sa._nonzeros()[:nza],
                                      sb._nonzeros()[:nzb]))
    if nza * nza * nza <= _ROW_CUBE * n_out * n_out:
        kernel_calls["row"] += 1
        coeffs, negative = _row_kernel(a, b, n_out, sa._nonzeros()[:nza])
    else:
        kernel_calls["big"] += 1
        coeffs, negative = _big_multiply(a, b, n_out)
    return Series._raw(coeffs, negative=negative)


class Series:
    """Dense integer power series truncated at a fixed exponent bound.

    ``coeffs`` is the tuple of the ``truncation`` coefficients.  The support,
    the sorted exponents of the nonzero ones, is handed to :meth:`_raw` by
    a builder that knows it, or else listed by :meth:`_nonzeros` on first
    use, and kept.  ``_negative`` is whether a coefficient is negative, as
    a packed product kernel reports it, or None when no builder knew.
    Neither takes part in ``==``, ``hash`` or ``repr``.
    """

    __slots__ = ("coeffs", "_support", "_negative")

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be plain integers")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_support", None)
        object.__setattr__(self, "_negative", None)

    @classmethod
    def _raw(cls, coeffs: Sequence[int],
             support: Optional[list[int]] = None,
             negative: Optional[bool] = None) -> "Series":
        # internal fast path: integer entries assumed, a tuple not copied;
        # a builder that knows the support or the sign exactly may hand
        # it over
        self = cls.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_negative", negative)
        return self

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

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

    def _nonzeros(self) -> list[int]:
        """The support, scanned on the first call and shared after; callers
        must not change the list."""
        support = self._support
        if support is None:
            support = _nonzero(self.coeffs)
            object.__setattr__(self, "_support", support)
        return support

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
        if n < 0:
            raise ValueError("truncation must be >= 0")
        return Series._raw(self.coeffs[:n])

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        # map stops at the shorter operand, the min truncation
        return Series._raw(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return Series._raw(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return Series._raw(tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, Series):
            return _convolve(self, other,
                             min(self.truncation, other.truncation))
        if isinstance(other, int):
            return Series._raw(tuple(map(mul, self.coeffs, repeat(other))))
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
        if self.truncation <= 8:
            return f"Series({list(self.coeffs)})"
        head = ", ".join(map(str, self.coeffs[:8]))
        return f"<Series of {self.truncation} terms: {head}, ...>"


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

    Newton iteration x <- x * (2 - a * x) from x = c0, doubling the working
    precision each round.  Both products of a round are Series products,
    whose kernels are handed the operands' supports like any other.
    """
    if a.truncation == 0:
        raise ValueError("cannot invert an empty series")
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term {c0} is not a unit over the integers")
    x = Series._raw((c0,))
    while x.truncation < a.truncation:
        prec = min(2 * x.truncation, a.truncation)
        x = Series._raw(x.coeffs + (0,) * (prec - x.truncation))
        x = x * (Series.monomial(0, prec, 2) - a.truncate(prec) * x)
    return x


def sift(a: Series, t: int, s: int) -> Series:
    """Arithmetic-progression extraction: output[k] = a[t*k + s]."""
    if t < 1 or not 0 <= s < t:
        raise ValueError(f"sift requires 0 <= s < t, got t={t}, s={s}")
    return Series._raw(a.coeffs[s::t])


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
        x, y = a.coeffs[r::t], b.coeffs[(s - r) % t::t]
        if any(x) and any(y):
            # both slices hold at least size - carry coefficients
            xy = Series._raw(x) * Series._raw(y)
            out[carry:] = map(add, out[carry:], xy.coeffs)
    return Series._raw(out)


def alternate_sign(a: Series) -> Series:
    """Multiply the coefficient of q^n by (-1)^n (substitute q -> -q)."""
    return Series._raw([c if i % 2 == 0 else -c
                        for i, c in enumerate(a.coeffs)])


def is_nonnegative(a: Series) -> Tuple[bool, Optional[int]]:
    """Whether all stored coefficients are >= 0; else the first bad exponent.

    A product that a packed kernel made carries its sign, so only a series
    with a negative coefficient, or one no kernel made, is scanned.
    """
    cs = a.coeffs
    if a._negative is False or not cs or min(cs) >= 0:
        return True, None
    return False, next(i for i, c in enumerate(cs) if c < 0)
