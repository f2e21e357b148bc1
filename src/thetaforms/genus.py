"""Genus classification of ternary forms and the lifted-binary genus union.

Two positive definite forms of the same discriminant lie in the same genus
iff they are equivalent over the p-adic integers for every prime p dividing
twice the discriminant.  At odd p a Jordan splitting with per-scale
(dimension, unit-determinant Legendre class) decides; at p = 2 the splitting
into odd 1x1 and even 2x2 blocks is followed by the standard canonical
reduction of the per-scale (dimension, sign, type, oddity) data -- oddity
fusion inside compartments and sign walking along trains.  The splitting
runs in integers: a step scales the cleared basis vector by the pivot's
p-adic unit instead of dividing by it, so at p = 2 the units differ from a
rational splitting's only by squares, which the symbol does not see, and
the odd-p symbol is the same for every Jordan splitting.

An odd squarefree S with r prime factors selects 2^r genera of discriminant
16 S^2 by lifting one binary form of discriminant -8S per binary genus via
(a, b, c) -> a x^2 + |b| xy + c y^2 + 2S z^2.  The union of those genera
carries epsilon characters, integer masses, and weighted representation
counts, exposed here.  Both ends are closed forms: a binary genus is fixed by
Gauss's assigned characters on one represented value (Cox, *Primes of the
form x^2+ny^2*, Thm 3.15), and epsilon(tg, p) = (-2u|p) for the unit u of
the 1-dimensional scale-0 Jordan block at p | S (Conway-Sloane, *SPLAG*
ch. 15), since every represented n prime to p is (u/2) x^2 mod p.

Genus cells are built one genus at a time.  The local symbols decide the
cell: `_genus_cells` walks one box of `forms.ternary_candidates` once and
groups its forms by their symbols.  The cheap invariants pick the box:
`genus_of` reads the (g, h)-box of the form's doubled-Gram gcd g and
adjugate gcd h, the candidates with g | d, e, f and h | adj(G), G the
doubled Gram matrix.  Both gcds are invariants of every Z_p-class (see
`forms._candidate_box`), so the symbols fix them and the box holds the
least member of every class of the genus; every S-genus class has
(g, h) = (2, 8S).  `genus_partition` reads the cells of the full (1, 1)
box.  A record is cached by its genus's sorted candidates, which both
boxes give alike, so both hand out the same objects.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd
from typing import NamedTuple

from .arith import (divisors, factorize, is_squarefree, jacobi,
                    prime_divisors)
from .forms import (BinaryForm, TernaryForm, aut_count, distinct_classes,
                    enumerate_binary_classes, repcount, ternary_candidates,
                    ternary_equivalent, theta_coefficients)
from .series import packed_sum

__all__ = [
    "GenusRecord", "SGenus", "same_genus", "genus_partition",
    "binary_genus_partition", "lift_binary_to_ternary", "build_sgenus",
    "epsilon", "mass_direct", "mass_formula", "sgenus_mass",
    "weighted_count", "weighted_coefficients", "orthogonality_check",
    "local_symbols",
]


# ---------------------------------------------------------------------------
# p-adic Jordan data
# ---------------------------------------------------------------------------

def _val(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _jordan_blocks(gram, p: int):
    """Split a symmetric integer matrix into p-adic Jordan blocks.

    Yields (scale, size, unit): a 1x1 block p^scale * unit or, at p = 2, an
    even 2x2 block of determinant 4^scale * unit.  The splitting stays in
    integers.  To clear row k against a pivot block, e_k becomes
    unit * e_k minus the combination of the block's basis vectors that its
    adjugate gives, divided exactly by p^(scale * size): the rational step
    times the p-adic unit.  At p = 2 every later pivot thus differs from
    the rational one by the square of a unit, which leaves determinants
    mod 8 and oddities alone; at odd p the per-scale Legendre classes do
    not depend on the splitting.
    """
    m = [list(row) for row in gram]
    idx = list(range(len(m)))
    while idx:
        # least valuation, then a diagonal entry, then row-major order over
        # the upper triangle (m stays symmetric)
        pivot = min(((_val(m[i][j], p), i != j, i, j)
                     for i in idx for j in idx if j >= i and m[i][j]),
                    default=None)
        if pivot is None:
            raise ValueError("matrix is singular")
        e, off, i, j = pivot
        if off and p != 2:
            # odd p: e_i + e_j puts the least valuation on the diagonal
            for k in idx:
                m[i][k] += m[j][k]
            for k in idx:
                m[k][i] += m[k][j]
            off = False
        if off:
            a, b, c = m[i][i], m[i][j], m[j][j]
            q = 4 ** e
            block, adj, unit = (i, j), ((c, -b), (-b, a)), (a * c - b * b) // q
        else:
            q = p ** e
            block, adj, unit = (i,), ((1,),), m[i][i] // q
        for k in idx:
            x = [m[k][l] for l in block]
            if k in block or not any(x):
                continue
            coef = [sum(r * y for r, y in zip(row, x)) // q for row in adj]
            for l in idx:
                m[k][l] = unit * m[k][l] - sum(
                    s * m[t][l] for s, t in zip(coef, block))
            for l in idx:
                m[l][k] = m[k][l]
            # the diagonal picks up unit^2, the off-diagonal entries unit
            m[k][k] *= unit
        yield e, len(block), unit
        idx = [k for k in idx if k not in block]


def _scales(gram, p: int) -> list:
    """One row [scale, dim, det unit, has odd block, oddity] per scale.

    The det unit is reduced mod 8 at p = 2 and mod p at odd p; the oddity,
    the sum of the 1x1 units mod 8, is read at p = 2 only.
    """
    mod = 8 if p == 2 else p
    rows: dict[int, list] = {}
    for e, size, unit in _jordan_blocks(gram, p):
        row = rows.setdefault(e, [e, 0, 1, False, 0])
        row[1] += size
        row[2] = row[2] * unit % mod
        if size == 1:
            row[3] = True
            row[4] = (row[4] + unit) % 8
    return [rows[e] for e in sorted(rows)]


def _runs(indices, joined) -> list[list[int]]:
    """The maximal runs of indices whose neighbouring pairs satisfy joined."""
    runs: list[list[int]] = []
    for j in indices:
        if runs and joined(runs[-1][-1], j):
            runs[-1].append(j)
        else:
            runs.append([j])
    return runs


def _canonical_two(symbol: list) -> tuple:
    """Canonical form of the 2-adic `_scales` rows under the allowed moves.

    Signs: + when det = +-1 (mod 8).  Compartments are maximal runs of
    type-odd entries at consecutive scales; only their total oddity counts.
    Trains are maximal runs bound at a scale gap of 1 by one type-odd
    entry, at a gap of 2 by two.  Sign walking moves every non-leading
    minus sign of a train onto the train's first entry, adding 4 to the
    oddity of each compartment that touches a walked pair.
    """
    signs = [1 if row[2] in (1, 7) else -1 for row in symbol]
    compartments = _runs(
        [i for i, row in enumerate(symbol) if row[3]],
        lambda i, j: j == i + 1 and symbol[j][0] == symbol[i][0] + 1)
    oddities = [sum(symbol[i][4] for i in comp) % 8 for comp in compartments]

    def bound(i, j):
        gap = symbol[j][0] - symbol[i][0]
        odd = symbol[i][3], symbol[j][3]
        return (gap == 1 and any(odd)) or (gap == 2 and all(odd))

    # walk minus signs toward the head of each train, last pair first
    for train in _runs(range(len(symbol)), bound):
        for j in reversed(train[1:]):
            if signs[j] == -1:
                signs[j] = 1
                signs[j - 1] *= -1
                for k, comp in enumerate(compartments):
                    if j in comp or j - 1 in comp:
                        oddities[k] = (oddities[k] + 4) % 8
    canon_entries = tuple(
        (row[0], row[1], sign, row[3]) for row, sign in zip(symbol, signs))
    canon_oddities = tuple(
        (comp[0], odd) for comp, odd in zip(compartments, oddities))
    return canon_entries, canon_oddities


@lru_cache(maxsize=None)
def _local_symbols_cached(form: TernaryForm) -> dict:
    gram = form.gram_doubled()
    out = {}
    for p in prime_divisors(2 * form.discriminant):
        rows = _scales(gram, p)
        out[p] = (_canonical_two(rows) if p == 2 else
                  tuple((e, dim, jacobi(det, p)) for e, dim, det, _, _ in rows))
    return out


def local_symbols(form: TernaryForm) -> dict:
    """Canonical p-adic invariants for every prime dividing 2*discriminant."""
    return _local_symbols_cached(form)


def same_genus(f1: TernaryForm, f2: TernaryForm) -> bool:
    """Z_p-equivalence at every prime dividing twice the discriminant."""
    if f1.discriminant != f2.discriminant:
        raise ValueError("forms must share a discriminant")
    return local_symbols(f1) == local_symbols(f2)


# ---------------------------------------------------------------------------
# genus records and partitions
# ---------------------------------------------------------------------------

class _GenusFields(NamedTuple):
    discriminant: int
    classes: tuple[TernaryForm, ...]


class GenusRecord(_GenusFields):
    __slots__ = ()

    def __new__(cls, discriminant: int, classes: tuple[TernaryForm, ...]):
        if not classes:
            raise ValueError("a genus needs at least one class")
        return tuple.__new__(cls, (discriminant, classes))

    @property
    def symbols(self) -> dict:
        return local_symbols(self.classes[0])

    def contains(self, form: TernaryForm) -> bool:
        return same_genus(form, self.classes[0])

    def __str__(self) -> str:
        return " | ".join(str(f) for f in self.classes)


def _genus_key(form: TernaryForm) -> tuple:
    # `local_symbols` lists the primes in ascending order
    return tuple(local_symbols(form).items())


def _cheap_invariants(form: TernaryForm) -> tuple[int, int, int]:
    """Content, gcd of the doubled Gram matrix, gcd of its adjoint.

    At every p the p-part of each is an invariant of the Z_p-class: the
    content is the gcd of the form's values, and `forms._candidate_box`
    proves it for g and h.  A prime prime to 2 * disc divides none of
    them, so the local symbols fix all three, and every class of a genus
    has its least member in the (g, h)-box of `forms.ternary_candidates`:
    the invariants pick the box, and the symbols decide the cell.
    """
    a, b, c, d, e, f = form.sextuple()
    return (gcd(a, b, c, d, e, f),
            gcd(2 * a, 2 * b, 2 * c, d, e, f),
            gcd(4 * b * c - d * d, 4 * a * c - e * e, 4 * a * b - f * f,
                d * e - 2 * c * f, d * f - 2 * b * e, e * f - 2 * a * d))


@lru_cache(maxsize=None)
def _genus_cells(disc: int, g: int,
                 h: int) -> dict[tuple, tuple[TernaryForm, ...]]:
    """The (g, h)-box, walked once, its forms grouped by local symbols."""
    cells: dict[tuple, list[TernaryForm]] = {}
    for form in ternary_candidates(disc, g, h):
        cells.setdefault(_genus_key(form), []).append(form)
    return {key: tuple(forms) for key, forms in cells.items()}


@lru_cache(maxsize=None)
def _genus_record(disc: int, members: tuple[TernaryForm, ...]) -> GenusRecord:
    """The record of one genus, cached by its sorted candidates.

    The (g, h)-box holds the same candidates of the genus as the full box,
    in the same order, so `genus_of` and `genus_partition` get one record
    object whichever box they read.
    """
    return GenusRecord(disc, distinct_classes(members))


@lru_cache(maxsize=None)
def genus_partition(disc: int) -> tuple[GenusRecord, ...]:
    """Partition of all classes of the discriminant into genera: the cells
    of the full box, so the very records `genus_of` returns."""
    records = (_genus_record(disc, cell)
               for cell in _genus_cells(disc, 1, 1).values())
    return tuple(sorted(records, key=lambda r: r.classes[0].sextuple()))


def genus_of(form: TernaryForm) -> GenusRecord:
    """The GenusRecord of the class list that contains the given form.

    Only the form's own genus is deduped, from the cell of its local
    symbols in the (g, h)-box of its cheap invariants.  The record must
    hold a class equivalent to the form, or LookupError is raised.
    """
    disc, (_, g, h) = form.discriminant, _cheap_invariants(form)
    members = _genus_cells(disc, g, h).get(_genus_key(form))
    record = _genus_record(disc, members) if members else None
    if record is None or not (form in record.classes or any(
            ternary_equivalent(form, cls) for cls in record.classes)):
        raise LookupError(f"no genus found for {form}")
    return record


def _coprime_value(form: BinaryForm, m: int) -> int:
    """The first f(x, y) coprime to m over x, y >= 0 by x + y; a primitive
    form has one with x, y < m by the Chinese remainder theorem."""
    for t in count():
        for x, y in zip(range(t + 1), range(t, -1, -1)):
            n = form.a * x * x + form.b * x * y + form.c * y * y
            if gcd(n, m) == 1:
                return n


def binary_genus_partition(disc: int) -> tuple[tuple[BinaryForm, ...], ...]:
    """Group the reduced classes of discriminant -8S by assigned characters.

    For D = -4(2S) the genus is fixed by the assigned characters (n|p) for
    p | S and delta*epsilon(n) = (-2|n) when S = 1 mod 4, epsilon(n) = (2|n)
    when S = 3 mod 4 (Cox, *Primes of the form x^2+ny^2*, Thm 3.15).  They
    are constant on the values n coprime to 2S that a form represents, so
    one such value keys the form.  The character at 2 is the product of the
    others there, as (D|n) = 1, so the odd ones suffice.
    """
    s = -disc // 8
    if disc % 8 or s < 3 or s % 2 == 0 or not is_squarefree(s):
        raise ValueError(
            f"discriminant {disc} is not -8S with S odd, squarefree and >= 3")
    primes = prime_divisors(s)
    cells: dict[tuple, list[BinaryForm]] = {}
    for form in enumerate_binary_classes(disc):
        n = _coprime_value(form, 2 * s)
        cells.setdefault(tuple(jacobi(n, p) for p in primes), []).append(form)
    # the classes arrive sorted by (a, |b|, c, b < 0), so the cells arrive
    # in the order of their least class
    return tuple(tuple(cell) for cell in cells.values())


def lift_binary_to_ternary(s: int, bf: BinaryForm) -> TernaryForm:
    """a x^2 + |b| xy + c y^2 + 2S z^2; discriminant becomes 16 S^2."""
    if bf.discriminant != -8 * s:
        raise ValueError(
            f"binary discriminant {bf.discriminant} is not -8*{s}")
    return TernaryForm(bf.a, bf.c, 2 * s, 0, 0, abs(bf.b))


# ---------------------------------------------------------------------------
# the S-genus
# ---------------------------------------------------------------------------

class SGenus(NamedTuple):
    s: int
    primes: tuple[int, ...]
    tg: tuple[GenusRecord, ...]
    sources: tuple[tuple[BinaryForm, ...], ...]  # binary genus feeding each tg
    eps: dict  # (index, divisor w of S) -> +-1


@lru_cache(maxsize=None)
def build_sgenus(s: int) -> SGenus:
    """Assemble the union of lifted genera for an odd squarefree S >= 3."""
    if s < 3 or s % 2 == 0 or not is_squarefree(s):
        raise ValueError("S must be odd, squarefree, and >= 3")
    primes = tuple(prime_divisors(s))
    cells = binary_genus_partition(-8 * s)
    if len(cells) != 2 ** len(primes):
        raise RuntimeError(
            f"expected {2 ** len(primes)} binary genera, found {len(cells)}")
    records = []
    for cell in cells:
        lifted = [lift_binary_to_ternary(s, bf) for bf in cell]
        record = genus_of(lifted[0])
        for other in lifted[1:]:
            if not record.contains(other):
                raise RuntimeError(
                    f"lift of {other} escapes the genus of {lifted[0]}; "
                    "the binary-to-ternary map is not well defined here")
        records.append(record)
    if len({r.classes for r in records}) != len(records):
        raise RuntimeError("lifted genera are not pairwise distinct")
    eps = {}
    for i, record in enumerate(records):
        for w in divisors(s):
            eps[(i, w)] = epsilon(record, w)
    return SGenus(s, primes, tuple(records), tuple(cells), eps)


def epsilon(tg: GenusRecord, w: int) -> int:
    """The character (-n | w) on the values n coprime to w the genus represents.

    Read from the Jordan symbol at each p | w: when the doubled Gram matrix
    has a 1-dimensional scale-0 block with unit u at p (as every lifted
    genus has at p | S), each represented n prime to p is (u/2) x^2 mod p,
    so (-n|p) = (-2|p) (u|p), and `local_symbols` stores (u|p).  Any other
    block shape does not fix (-n|p) and raises RuntimeError.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError("w must be odd and positive")
    symbols = tg.symbols
    out = 1
    for p, k in factorize(w).items():
        # p outside the symbols does not divide 2*disc: one 3-dim unit block
        scale, dim, unit_class = symbols.get(p, ((0, 3, 0),))[0]
        if (scale, dim) != (0, 1):
            raise RuntimeError(
                f"the genus {tg} does not fix (-n|{p}): its scale-0 Jordan "
                f"block at {p} is not 1-dimensional")
        out *= (jacobi(-2, p) * unit_class) ** k
    return out


def _weight(form: TernaryForm) -> int:
    """16/|Aut(form)|, which must be an integer."""
    order = aut_count(form)
    if 16 % order:
        raise ArithmeticError(f"|Aut({form})| = {order} does not divide 16")
    return 16 // order


def mass_direct(tg: GenusRecord) -> int:
    """Sum over classes of 16/|Aut|; every summand must be an integer."""
    return sum(_weight(form) for form in tg.classes)


def mass_formula(tg: GenusRecord, s: int) -> int:
    """Product over p | S of (p + epsilon(tg, p)) / 2."""
    total = 1
    for p in prime_divisors(s):
        total *= (p + epsilon(tg, p)) // 2
    return total


def sgenus_mass(sg: SGenus) -> int:
    return sum(mass_direct(tg) for tg in sg.tg)


def weighted_count(tg: GenusRecord, m: int) -> int:
    """16 * sum over classes of R_f(m) / |Aut(f)| (an exact integer)."""
    return sum(_weight(form) * repcount(form, m) for form in tg.classes)


@lru_cache(maxsize=None)
def _weighted_cached(classes: tuple, n: int) -> tuple[int, ...]:
    """sum over the classes f of 16/|Aut f| * theta_f to n terms, as one
    `series.packed_sum`."""
    return packed_sum([(theta_coefficients(form, n), {_weight(form): [0]})
                       for form in classes], n)


def weighted_coefficients(tg: GenusRecord, n: int) -> tuple[int, ...]:
    """Weighted representation counts for all m < n at once."""
    return _weighted_cached(tg.classes, n)


def orthogonality_check(sg: SGenus, w: int) -> bool:
    """Whether the characters at w sum to zero across the union."""
    if w < 2 or sg.s % w:
        raise ValueError("w must be a divisor of S with w >= 2")
    return sum(sg.eps[(i, w)] for i in range(len(sg.tg))) == 0
