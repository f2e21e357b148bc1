"""Positive definite integral binary and ternary quadratic forms.

A ternary form is the sextuple (a,b,c,d,e,f) standing for

    a*x^2 + b*y^2 + c*z^2 + d*y*z + e*z*x + f*x*y,

with doubled Gram matrix [[2a,f,e],[f,2b,d],[e,d,2c]] and discriminant
half its determinant.  Representation counting walks the lattice with
exact integer bounds obtained by completing the square; no floating
point is used anywhere.

Every theta series, and `short_vectors`, come from one row walk
(Fincke-Pohst): `_plane_rows` lists the rows of a binary form, and
`_half_space_rows` those of a ternary one, whose (x, y) run over the
plane rows of the binary form left by completing the square in z.  Rows
hold each pair +-v once and end exactly at the bound, so `_tally` counts
them with no value test.  A form with an isolated variable is an
orthogonal sum k*z^2 + B (Conway-Sloane, SPLAG ch. 4; `_theta_ternary`).
`repcount` shares only `_y_range`: it solves for z as an exact root at
one value, walking all of Z^3, and stays the independent oracle that
tests check the theta coefficients against.

Classes are enumerated from a reduced candidate box, cut to the forms of
a known doubled-Gram gcd g and adjugate gcd h (`_candidate_box` proves
that it holds the least member of every such class), and deduped by
`distinct_classes`.  A box is walked on each call; its callers cache it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .series import Series, packed_sum

__all__ = [
    "TernaryForm", "BinaryForm", "repcount", "theta_series",
    "aut_count", "ternary_equivalent", "enumerate_ternary_classes",
    "ternary_candidates", "distinct_classes",
    "reduce_binary", "enumerate_binary_classes",
]


class _TernaryFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int


class TernaryForm(_TernaryFields):
    """ax^2 + by^2 + cz^2 + dyz + ezx + fxy; a tuple of its six fields."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int, e: int, f: int):
        self = tuple.__new__(cls, (a, b, c, d, e, f))
        for v in self:
            if not isinstance(v, int):
                raise TypeError("form coefficients must be integers")
        g = self.gram_doubled()
        m1 = g[0][0]
        m2 = g[0][0] * g[1][1] - g[0][1] ** 2
        m3 = _det3(g)
        if m1 <= 0 or m2 <= 0 or m3 <= 0:
            raise ValueError(f"form {self.sextuple()} is not positive definite")
        return self

    @classmethod
    def from_string(cls, text: str) -> "TernaryForm":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ValueError(f"expected 6 comma-separated entries, got {len(parts)}")
        return cls(*(int(p) for p in parts))

    def sextuple(self) -> tuple[int, int, int, int, int, int]:
        return tuple(self)

    def gram_doubled(self) -> tuple[tuple[int, int, int], ...]:
        a, b, c, d, e, f = self
        return ((2 * a, f, e), (f, 2 * b, d), (e, d, 2 * c))

    @property
    def discriminant(self) -> int:
        return _det3(self.gram_doubled()) // 2

    def value(self, x: int, y: int, z: int) -> int:
        a, b, c, d, e, f = self
        return (a * x * x + b * y * y + c * z * z
                + d * y * z + e * z * x + f * x * y)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.sextuple())


class _BinaryFields(NamedTuple):
    a: int
    b: int
    c: int


class BinaryForm(_BinaryFields):
    """ax^2 + bxy + cy^2; a tuple of its three fields."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError(f"binary form {(a, b, c)} "
                             "is not positive definite")
        return tuple.__new__(cls, (a, b, c))

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"


def _det3(g) -> int:
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


# ---------------------------------------------------------------------------
# representation counts and theta series
# ---------------------------------------------------------------------------

def _y_range(A: int, B: int, C: int, x: int, rhs: int):
    """The exact y interval where A*y^2 + B*x*y + C*x^2 <= rhs: times 4A it
    is |2A*y + B*x| <= isqrt(disc), disc = (B*x)^2 - 4A*(C*x^2 - rhs), which
    callers keep >= 0 by x^2 <= 4A*rhs // (4AC - B^2)."""
    bx = B * x
    s = isqrt(bx * bx - 4 * A * (C * x * x - rhs))
    return -((bx + s) // (2 * A)), (s - bx) // (2 * A)


def repcount(form: TernaryForm, m: int) -> int:
    """Number of integer triples with Q(x,y,z) = m (exact; repcount(f,0) = 1).

    Completing the square in z gives A*y^2 + B*x*y + C*x^2 <= 4*c*m, and
    eliminating y bounds x^2 by 16*c*A*m / (4*A*C - B^2).
    """
    if m < 0:
        return 0
    if m == 0:
        return 1
    a, b, c, d, e, f = form.sextuple()
    A = 4 * b * c - d * d
    B = 4 * c * f - 2 * d * e
    C = 4 * c * a - e * e
    rhs = 4 * c * m
    xmax = isqrt(4 * A * rhs // (4 * A * C - B * B))
    count = 0
    for x in range(-xmax, xmax + 1):
        ylo, yhi = _y_range(A, B, C, x, rhs)
        base_x = a * x * x
        for y in range(ylo, yhi + 1):
            # c z^2 + (d y + e x) z + (Q0 - m) = 0
            lin = d * y + e * x
            const = base_x + b * y * y + f * x * y - m
            # disc = 4*c*m - (A*y^2 + B*x*y + C*x^2) >= 0 on _y_range's rows
            disc = lin * lin - 4 * c * const
            s = isqrt(disc)
            if s * s != disc:
                continue
            for root in ((-lin + s), (-lin - s)):
                if root % (2 * c) == 0:
                    count += 1
                if s == 0:
                    break
    return count


def _plane_rows(a: int, b: int, c: int, bound: int):
    """Rows (x, ylo, yhi, b*x, a*x*x) of a*x^2 + b*x*y + c*y^2 <= bound.

    Along a row the value is (c*y + b*x)*y + a*x*x, and ylo..yhi are
    exactly the y where it is at most bound (`_y_range`).  Eliminating y
    bounds x^2 by 4*c*bound / (4ac - b^2), so no row lies past the bound.
    The rows cover x > 0, then x = 0 with y > 0: one of each pair
    +-(x, y).  bound must be >= 0.
    """
    xmax = isqrt(4 * c * bound // (4 * a * c - b * b))
    for x in (*range(1, xmax + 1), 0):
        ylo, yhi = _y_range(c, b, a, x, bound)
        yield x, ylo if x else max(ylo, 1), yhi, b * x, a * x * x


def _half_space_rows(form: TernaryForm, bound: int):
    """Rows ((x, y), zlo, zhi, lin, const) covering each pair +-v, v != 0, once.

    Along a row Q(x, y, z) = (c*z + lin)*z + const, and zlo..zhi are
    exactly the z with Q <= bound: completing the square in z,
    4c*Q = (2c*z + lin)^2 + P(x, y) with the binary form
    P = (4ca-e^2, 4cf-2de, 4bc-d^2), so (x, y) runs over the plane rows of
    P <= 4c*bound and Q <= bound is |2c*z + lin| <= isqrt(4c*bound - P).
    The rows cover the half space x > 0, then x = 0 with y > 0, then the
    z-line x = y = 0 with 1 <= z <= isqrt(bound // c); v and -v never
    both appear.  bound must be >= 0.
    """
    a, b, c, d, e, f = form.sextuple()
    A = 4 * b * c - d * d
    rhs = 4 * c * bound
    c2 = 2 * c
    for x, ylo, yhi, bx, ax2 in _plane_rows(4 * c * a - e * e,
                                            4 * c * f - 2 * d * e, A, rhs):
        for y in range(ylo, yhi + 1):
            lin = d * y + e * x
            s = isqrt(rhs - (A * y + bx) * y - ax2)
            yield ((x, y), -((lin + s) // c2), (s - lin) // c2, lin,
                   a * x * x + (b * y + f * x) * y)
    yield (0, 0), 1, isqrt(bound // c), 0, 0


def _tally(rows, lead: int, n: int) -> tuple[int, ...]:
    """Theta coefficients 0..n-1 from rows covering one of each pair +-v.

    A row (prefix, lo, hi, lin, const) fixes the leading coordinates and
    runs the last one, t, from lo to hi, where the value is
    (lead*t + lin)*t + const; each counts v and -v.  The rows must be
    exact for the bound n - 1, so every value lies in 1..n-1 and none is
    tested.  The zero vector gives the 1 at q^0.
    """
    if not n:
        return ()
    counts = [1] + [0] * (n - 1)
    lead2 = 2 * lead
    for _prefix, lo, hi, lin, const in rows:
        val = (lead * lo + lin) * lo + const
        step = lead2 * lo + lead + lin
        for _t in range(lo, hi + 1):
            counts[val] += 2
            val += step
            step += lead2
    return tuple(counts)


def _theta_ternary(form: TernaryForm, n: int) -> tuple[int, ...]:
    """Coefficients 0..n-1 of sum_{v in Z^3} q^{Q(v)}.

    d = e = 0 isolates z, so Q = c*z^2 + (a, f, b)(x, y) and the series is
    theta(c*z^2) * theta((a, f, b)); d = f = 0 isolates y with
    (b, (a, e, c)), and e = f = 0 isolates x with (a, (b, d, c)).  The
    binary series is the tally of its exact plane rows; `_shift_sum` adds
    its shifts with `series.packed_sum`, and other forms take `_theta_walk`.
    """
    a, b, c, d, e, f = form.sextuple()
    if d == e == 0:
        k, plane = c, (a, f, b)
    elif d == f == 0:
        k, plane = b, (a, e, c)
    elif e == f == 0:
        k, plane = a, (b, d, c)
    else:
        return _theta_walk(form, n)
    return _shift_sum(_tally(_plane_rows(*plane, n - 1), plane[2], n), k)


def _shift_sum(binary: tuple[int, ...], k: int) -> tuple[int, ...]:
    """theta(k*z^2) * binary to n = len(binary) terms, for a nonnegative
    binary: binary plus twice its shifts by k*z^2 < n, one
    `series.packed_sum`."""
    n = len(binary)
    zmax = isqrt(max(n - 1, 0) // k)
    shifts = [k * z * z for z in range(1, zmax + 1)]
    return packed_sum([(binary, {1: [0], 2: shifts})], n)


def _theta_walk(form: TernaryForm, n: int) -> tuple[int, ...]:
    """Coefficients 0..n-1 of sum_{v in Z^3} q^{Q(v)} by a half-space sweep."""
    return _tally(_half_space_rows(form, n - 1), form.c, n)


def _theta_binary(form: BinaryForm, n: int) -> tuple[int, ...]:
    return _tally(_plane_rows(form.a, form.b, form.c, n - 1), form.c, n)


@lru_cache(maxsize=None)
def _theta_cached(form: TernaryForm | BinaryForm, n: int) -> tuple[int, ...]:
    theta = _theta_ternary if isinstance(form, TernaryForm) else _theta_binary
    return theta(form, n)


def theta_series(form: TernaryForm | BinaryForm, n: int) -> Series:
    """Series whose q^m coefficient counts representations of m by the form."""
    return Series._raw(_theta_cached(form, n))


def theta_coefficients(form: TernaryForm, n: int) -> tuple[int, ...]:
    """Raw coefficient tuple of the theta series (cached)."""
    return _theta_cached(form, n)


# ---------------------------------------------------------------------------
# short vectors, automorphs, equivalence
# ---------------------------------------------------------------------------

def short_vectors(form: TernaryForm, bound: int) -> dict[int, list[tuple[int, int, int]]]:
    """All v in Z^3 with 0 < Q(v) <= bound, grouped by value: each point
    of the exact half-space rows, and its negative."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    if bound < 1:
        return out
    c = form.c
    for (x, y), zlo, zhi, lin, const in _half_space_rows(form, bound):
        for z in range(zlo, zhi + 1):
            out.setdefault((c * z + lin) * z + const, []).extend(
                ((x, y, z), (-x, -y, -z)))
    return out


def _gram_apply(g, v):
    return tuple(sum(g[i][j] * v[j] for j in range(3)) for i in range(3))


def _isometries(src: TernaryForm, dst: TernaryForm, count_only: bool):
    """Column-built U in GL3(Z) with U^T G_dst U = G_src.

    Columns are dst-vectors whose values are the diagonal of src and whose
    mutual doubled-Gram products match src's off-diagonal entries.  The
    forms must share a discriminant, as both callers ensure: then
    det(U)^2 = det G_src / det G_dst = 1, so every such U is unimodular
    and no determinant is taken.
    """
    a, b, c, d, e, f = src.sextuple()
    g = dst.gram_doubled()
    vecs = short_vectors(dst, max(a, b, c))
    c1 = vecs.get(a, ())
    c2 = vecs.get(b, ())
    c3 = vecs.get(c, ())
    hits = 0
    gu1_cache = [(_gram_apply(g, u), u) for u in c1]
    gu2_cache = [(_gram_apply(g, u), u) for u in c2]
    for gu1, u1 in gu1_cache:
        for gu2, u2 in gu2_cache:
            if gu1[0] * u2[0] + gu1[1] * u2[1] + gu1[2] * u2[2] != f:
                continue
            for u3 in c3:
                if gu1[0] * u3[0] + gu1[1] * u3[1] + gu1[2] * u3[2] != e:
                    continue
                if gu2[0] * u3[0] + gu2[1] * u3[1] + gu2[2] * u3[2] != d:
                    continue
                hits += 1
                if not count_only:
                    return hits
    return hits


@lru_cache(maxsize=None)
def aut_count(form: TernaryForm) -> int:
    """Order of the integral automorphism group {U : U^T G U = G}; cached."""
    return _isometries(form, form, count_only=True)


def ternary_equivalent(f1: TernaryForm, f2: TernaryForm) -> bool:
    """Whether an integral unimodular change of variables maps f1 to f2."""
    if f1.discriminant != f2.discriminant:
        raise ValueError("forms must share a discriminant")
    if f1 == f2:
        return True
    return _isometries(f1, f2, count_only=False) > 0


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

def _candidate_box(disc: int, g: int, h: int):
    """Reduced candidates (a,b,c,d,e,f) of the discriminant with g | d, e, f
    and h dividing every entry of the adjugate of the doubled Gram matrix.

    Box: 0 < a <= b <= c, 0 <= d <= b, 0 <= e <= a, |f| <= a, abc <= disc/2.
    c is solved exactly from the discriminant:
        disc = 4abc - a d^2 - b e^2 - c f^2 + d e f.

    The half box d, e >= 0 loses no class.  The sign changes x -> -x,
    y -> -y and z -> -z negate (e, f), (d, f) and (d, e) and keep the
    box's bounds, so every sign pattern of a boxed form can be moved to
    one with d >= 0 and e >= 0 (negate y if d < 0, then x if e < 0).
    Each such move lowers `_sort_key`, which ranks the sign of d before
    those of e and f, so the least member of a class already has that
    shape; it is the representative the dedupe keeps.

    d, e and f step over multiples of g, and an (a, b, f) is skipped
    unless h divides the adjugate entry 4ab - f^2; a hit is kept only if h
    also divides the other five, 4bc - d^2, 4ac - e^2, de - 2cf, df - 2be
    and ef - 2ad.  Both gcds are GL3(Z) invariants.  The doubled-Gram gcd
    gcd(2a, 2b, 2c, d, e, f) is one because U^T G U and G have the same
    lattice of entries; the adjugate gcd h is one because
    adj(U^T G U) = adj(U) adj(G) adj(U)^T with adj(U) = +-U^-1 in
    GL3(Z).  So every member of a class whose two gcds are multiples of g
    and h, the least one included, passes both filters: the (g, h)-box is
    exactly the half box's forms with g | d, e, f and h | adj(G), and
    holds every such class.  g = h = 1 walks the whole half box.  Over
    Z_p the same argument, with adj(U) = +-U^-1 p-integral, makes the
    p-parts of both gcds invariants of the Z_p-class, as `genus` uses.
    """
    for a in range(1, isqrt(disc // 2) + 2):
        if a * a * a > disc // 2:
            break
        bmax = isqrt(disc // (2 * a)) + 1
        for b in range(a, bmax + 1):
            cmax = disc // (2 * a * b)
            for f in range(-(a // g) * g, a + 1, g):
                den = 4 * a * b - f * f
                if den <= 0 or den % h:
                    continue
                # b <= c <= cmax, with num = c * den
                lo, hi = b * den, cmax * den
                # 0 <= e <= a gives num <= disc + a d^2 + |f| a d + b a^2, so
                # num >= lo needs a d^2 + |f| a d >= r: false for d < dmin
                r = lo - disc - b * a * a
                af = abs(f) * a
                dmin = (isqrt(af * af + 4 * a * r) - af) // (2 * a) if r > 0 else 0
                for d in range(-(-dmin // g) * g, b + 1, g):
                    base = disc + a * d * d
                    fd = f * d
                    for e in range(0, a + 1, g):
                        num = base + (b * e - fd) * e
                        if num % den or not lo <= num <= hi:
                            continue
                        c = num // den
                        if not ((4 * b * c - d * d) % h
                                or (4 * a * c - e * e) % h
                                or (d * e - 2 * c * f) % h
                                or (fd - 2 * b * e) % h
                                or (e * f - 2 * a * d) % h):
                            yield a, b, c, d, e, f


def _sort_key(form: TernaryForm):
    a, b, c, d, e, f = form.sextuple()
    return (a, b, c, abs(d), abs(e), abs(f),
            0 if d >= 0 else 1, 0 if e >= 0 else 1, 0 if f >= 0 else 1)


def ternary_candidates(disc: int, g: int = 1,
                       h: int = 1) -> tuple[TernaryForm, ...]:
    """The (g, h)-box's forms of the discriminant, sorted by `_sort_key`.

    Every class whose doubled-Gram gcd is a multiple of g and whose
    adjugate gcd is a multiple of h (every class, for g = h = 1) has at
    least one member here, and its least member is the class
    representative.  Each box tuple is positive definite (a > 0,
    4ab - f^2 > 0, determinant 2*disc > 0) with exactly this discriminant.
    """
    if disc <= 0:
        raise ValueError("discriminant must be positive")
    if g <= 0:
        raise ValueError("the gcd step g must be positive")
    if h <= 0:
        raise ValueError("the adjugate gcd h must be positive")
    return tuple(sorted(
        (TernaryForm(*tup) for tup in _candidate_box(disc, g, h)),
        key=_sort_key))


def distinct_classes(forms) -> tuple[TernaryForm, ...]:
    """The `_sort_key`-least form of each GL3(Z)-class among the forms.

    Forms are grouped by their first theta coefficients, a cheap isometry
    invariant, and `ternary_equivalent` is run only inside a group.
    """
    groups: dict[tuple, list[TernaryForm]] = {}
    for form in sorted(forms, key=_sort_key):
        key = theta_coefficients(form, min(32, form.discriminant))
        groups.setdefault(key, []).append(form)
    classes: list[TernaryForm] = []
    for group in groups.values():
        kept: list[TernaryForm] = []
        for form in group:
            if not any(ternary_equivalent(form, other) for other in kept):
                kept.append(form)
        classes.extend(kept)
    classes.sort(key=_sort_key)
    return tuple(classes)


@lru_cache(maxsize=None)
def enumerate_ternary_classes(disc: int) -> tuple[TernaryForm, ...]:
    """One representative per GL3(Z)-class of positive forms of the discriminant."""
    return distinct_classes(ternary_candidates(disc))


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

def reduce_binary(form: BinaryForm) -> BinaryForm:
    """Gauss-reduced representative: |b| <= a <= c, b >= 0 if |b| = a or a = c."""
    a, b, c = form.a, form.b, form.c
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            k = (a - b) // (2 * a)  # shift b into (-a, a]
            b2 = b + 2 * k * a
            c = a * k * k + b * k + c
            b = b2
            continue
        break
    if b < 0 and a == c:
        b = -b
    return BinaryForm(a, b, c)


def enumerate_binary_classes(disc: int) -> tuple[BinaryForm, ...]:
    """All reduced primitive positive definite forms of negative discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    out = []
    amax = isqrt(-disc // 3) + 1
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            form = BinaryForm(a, b, c)
            if form.is_primitive():
                out.append(form)
    return tuple(sorted(out, key=lambda f: (f.a, abs(f.b), f.c, f.b < 0)))
