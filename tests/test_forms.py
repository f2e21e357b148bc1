import random
from functools import lru_cache
from math import isqrt

import pytest

from thetaforms import forms, series
from thetaforms.arith import divisors
from thetaforms.forms import (BinaryForm, TernaryForm, aut_count,
                              distinct_classes, enumerate_binary_classes,
                              enumerate_ternary_classes, reduce_binary,
                              repcount, short_vectors, ternary_candidates,
                              ternary_equivalent, theta_series)
from oracles import schoolbook, transform_ternary

KNOWN_FORMS = {
    (1, 6, 6, 0, 0, 0): 16,
    (2, 3, 6, 0, 0, 0): 8,
    (1, 10, 10, 0, 0, 0): 16,
    (4, 5, 6, 0, 4, 0): 8,
    (2, 5, 10, 0, 0, 0): 8,
    (1, 14, 14, 0, 0, 0): 16,
    (2, 7, 14, 0, 0, 0): 8,
    (3, 5, 14, 0, 0, 2): 4,
    (1, 30, 30, 0, 0, 0): 16,
    (6, 10, 15, 0, 0, 0): 8,
    (3, 10, 30, 0, 0, 0): 8,
    (5, 6, 30, 0, 0, 0): 8,
    (2, 15, 30, 0, 0, 0): 8,
    (5, 12, 18, 12, 0, 0): 8,
    (9, 11, 11, 2, 6, 6): 4,
}


def brute_repcount(form: TernaryForm, m: int) -> int:
    """Cube scan with adjugate coordinate bounds; independent of the library."""
    if m == 0:
        return 1
    a, b, c, d, e, f = form.sextuple()
    disc = form.discriminant
    bx = isqrt(m * (4 * b * c - d * d) // disc) + 1
    by = isqrt(m * (4 * a * c - e * e) // disc) + 1
    bz = isqrt(m * (4 * a * b - f * f) // disc) + 1
    count = 0
    for x in range(-bx, bx + 1):
        for y in range(-by, by + 1):
            for z in range(-bz, bz + 1):
                if form.value(x, y, z) == m:
                    count += 1
    return count


def brute_aut_count(form: TernaryForm, bound: int = 1) -> int:
    """All integer matrices with entries in [-bound, bound] preserving the form."""
    g = form.gram_doubled()
    rng = range(-bound, bound + 1)
    cols = [(x, y, z) for x in rng for y in rng for z in rng]

    def gram(u, v):
        return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))

    count = 0
    a, b, c, d, e, f = form.sextuple()
    for u1 in cols:
        if gram(u1, u1) != 2 * a:
            continue
        for u2 in cols:
            if gram(u2, u2) != 2 * b or gram(u1, u2) != f:
                continue
            for u3 in cols:
                if gram(u3, u3) != 2 * c:
                    continue
                if gram(u1, u3) != e or gram(u2, u3) != d:
                    continue
                det = (u1[0] * (u2[1] * u3[2] - u2[2] * u3[1])
                       - u2[0] * (u1[1] * u3[2] - u1[2] * u3[1])
                       + u3[0] * (u1[1] * u2[2] - u1[2] * u2[1]))
                if det in (1, -1):
                    count += 1
    return count


def random_unimodular(rng, entry_bound=2):
    """Small random GL3(Z) matrix built from elementary operations."""
    while True:
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(rng.randrange(1, 5)):
            kind = rng.randrange(3)
            i, j = rng.sample(range(3), 2)
            if kind == 0:  # add/subtract a row
                s = rng.choice((-1, 1))
                for k in range(3):
                    m[i][k] += s * m[j][k]
            elif kind == 1:  # swap
                m[i], m[j] = m[j], m[i]
            else:  # negate
                m[i] = [-v for v in m[i]]
        if all(abs(v) <= entry_bound for row in m for v in row):
            return m


class TestDiscriminant:
    @pytest.mark.parametrize("sextuple,disc", [
        ((1, 6, 6, 0, 0, 0), 144),
        ((1, 14, 14, 0, 0, 0), 784),
        ((9, 11, 11, 2, 6, 6), 3600),
        ((5, 12, 18, 12, 0, 0), 3600),
        ((1, 8, 8, 0, 0, 0), 256),
    ])
    def test_values(self, sextuple, disc):
        assert TernaryForm(*sextuple).discriminant == disc

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            TernaryForm(1, 1, -1, 0, 0, 0)
        with pytest.raises(ValueError):
            TernaryForm(1, 1, 1, 4, 0, 0)


class TestRepcount:
    def test_unit_vectors(self):
        assert repcount(TernaryForm(1, 1, 1, 0, 0, 0), 1) == 6

    def test_zero(self):
        assert repcount(TernaryForm(1, 8, 8, 0, 0, 0), 0) == 1

    def test_negative(self):
        for m in (-1, -9):
            assert repcount(TernaryForm(1, 8, 8, 0, 0, 0), m) == 0

    def test_sum_of_one_and_two_eights(self):
        assert repcount(TernaryForm(1, 8, 8, 0, 0, 0), 9) == 10

    def test_no_representation(self):
        assert repcount(TernaryForm(2, 3, 6, 0, 0, 0), 25) == 0

    @pytest.mark.parametrize("sextuple", sorted(KNOWN_FORMS))
    def test_against_cube_scan(self, sextuple):
        form = TernaryForm(*sextuple)
        rng = random.Random(hash(sextuple) & 0xFFFF)
        for _ in range(12):
            m = rng.randrange(0, 60)
            assert repcount(form, m) == brute_repcount(form, m)


class TestThetaSeries:
    def test_sum_of_three_squares(self):
        assert theta_series(TernaryForm(1, 1, 1, 0, 0, 0), 5).coeffs == \
            (1, 6, 12, 8, 6)

    def test_constant_is_one(self):
        assert theta_series(TernaryForm(2, 7, 14, 0, 0, 0), 3).coeffs[0] == 1

    def test_binary_theta_matches_values(self):
        chi = theta_series(BinaryForm(4, 4, 6), 30)
        brute = [0] * 30
        for x in range(-10, 11):
            for z in range(-10, 11):
                v = 4 * x * x + 4 * x * z + 6 * z * z
                if v < 30:
                    brute[v] += 1
        assert chi.coeffs == tuple(brute)

    def test_count_identity_on_progression_via_repcount(self):
        # (1,8,8)(M) = (1,6,6)(M) + 2*(2,3,6)(M) on M = 8k+1, straight from
        # repcount with no shared enumeration
        f188 = TernaryForm(1, 8, 8, 0, 0, 0)
        f166 = TernaryForm(1, 6, 6, 0, 0, 0)
        f236 = TernaryForm(2, 3, 6, 0, 0, 0)
        for m in range(1, 2001, 8):
            assert repcount(f188, m) == repcount(f166, m) + 2 * repcount(f236, m)

    def test_matches_repcount_per_discriminant(self):
        rng = random.Random(20260810)
        by_disc = {}
        for sextuple in KNOWN_FORMS:
            by_disc.setdefault(TernaryForm(*sextuple).discriminant,
                               []).append(sextuple)
        by_disc[256] = [(1, 8, 8, 0, 0, 0)]
        for disc, sextuples in sorted(by_disc.items()):
            forms = [TernaryForm(*s) for s in sextuples]
            coeffs = {f: theta_series(f, 400).coeffs for f in forms}
            for _ in range(100):
                f = rng.choice(forms)
                m = rng.randrange(0, 400)
                assert coeffs[f][m] == repcount(f, m)


REGISTRY_FORMS = (*KNOWN_FORMS, (1, 1, 1, 0, 0, 0), (1, 8, 8, 0, 0, 0))


def split_pattern(form: TernaryForm) -> str:
    """Which variable the form isolates, as `_theta_ternary` tries them."""
    _, _, _, d, e, f = form.sextuple()
    if d == e == 0:
        return "diagonal" if f == 0 else "z"
    if d == f == 0:
        return "y"
    if e == f == 0:
        return "x"
    return ""


class TestThetaProduct:
    """Split forms take the packed shift-sum of their binary tally, which
    must match `_theta_walk`.

    Both read `_plane_rows` and `_tally`, so the walk is a consistency
    check here; `TestOraclesWithoutRowCode` checks both apart from them.
    """

    @staticmethod
    def product(form, n, monkeypatch):
        def no_walk(*_):
            raise AssertionError(f"{form} fell back to the walk")
        with monkeypatch.context() as m:
            m.setattr(forms, "_theta_walk", no_walk)
            return forms._theta_ternary(form, n)

    def test_split_candidates_match_walk(self, monkeypatch):
        seen = {"diagonal": 0, "x": 0, "y": 0, "z": 0}
        for disc in (144, 400, 784, 1936, 3600):
            for form in ternary_candidates(disc):
                pattern = split_pattern(form)
                if not pattern:
                    continue
                seen[pattern] += 1
                for n in (0, 1, 2, 32, 400):
                    assert self.product(form, n, monkeypatch) == \
                        forms._theta_walk(form, n), (form, n)
        assert seen == {"diagonal": 72, "x": 71, "y": 21, "z": 70}

    def test_registry_forms_at_full_length(self, monkeypatch):
        assert len(REGISTRY_FORMS) == 17
        for sextuple in REGISTRY_FORMS:
            form = TernaryForm(*sextuple)
            walk = forms._theta_walk(form, 10001)
            if split_pattern(form):
                assert self.product(form, 10001, monkeypatch) == walk, sextuple
            else:
                assert forms._theta_ternary(form, 10001) == walk

    def test_split_forms_make_no_series_product(self, monkeypatch):
        for sextuple in ((2, 7, 14, 0, 0, 0), (3, 5, 14, 0, 0, 2),
                         (4, 5, 6, 0, 4, 0), (5, 12, 18, 12, 0, 0)):
            before = dict(series.kernel_calls)
            self.product(TernaryForm(*sextuple), 10001, monkeypatch)
            assert series.kernel_calls == before, sextuple

    @pytest.mark.parametrize("sextuple", [(4, 5, 6, 0, 4, 0),
                                          (5, 12, 18, 12, 0, 0)])
    def test_isolated_y_and_x_match_repcount(self, sextuple, monkeypatch):
        form = TernaryForm(*sextuple)
        coeffs = self.product(form, 2000, monkeypatch)
        rng = random.Random(sum(sextuple))
        for m in rng.sample(range(2000), 60):
            assert coeffs[m] == repcount(form, m), (sextuple, m)


def unary_theta(k: int, n: int) -> list[int]:
    """1 + 2 * sum_{z >= 1} q^(k z^2) to n terms."""
    out = [0] * n
    for z in range(isqrt(n) + 1):
        if k * z * z < n:
            out[k * z * z] = 2 if z else 1
    return out


class TestShiftSum:
    """`_shift_sum` against the schoolbook product of the unary theta series
    and synthetic nonnegative coefficients, whose largest outputs bring the
    slot bound to either side of each slot width."""

    # (n, k): zmax = isqrt((n - 1) // k) is 0, 1, 4 and 6
    SHAPES = ((1, 1), (2, 1), (2, 3), (50, 3), (40, 1))

    @staticmethod
    def check(binary, k):
        n = len(binary)
        assert forms._shift_sum(tuple(binary), k) == \
            tuple(schoolbook(unary_theta(k, n), binary, n))

    def test_slot_widths(self):
        rng = random.Random(20261020)
        widths = set()
        for n, k in self.SHAPES:
            terms = 2 * isqrt((n - 1) // k) + 1
            # the slot width steps up where the bound reaches 2**bits
            for bits in (7, 15, 31, 63, 71, 103):
                for m in ((2 ** bits - 1) // terms, -(-2 ** bits // terms)):
                    # constant coefficients make the last output
                    # terms * m, the bound the slot is sized by
                    widths.add(series._layout([1] * terms, [m]))
                    self.check([m] * n, k)
                    self.check([rng.randint(0, m) for _ in range(n)], k)
        assert {1, 2, 4, 8} <= widths and max(widths) > 8

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_binary_tallies(self, k):
        for form in (BinaryForm(1, 0, 1), BinaryForm(3, 2, 5),
                     BinaryForm(4, 4, 6)):
            for n in (0, 1, 2, 3, 97):
                binary = forms._theta_binary(form, n)
                self.check(binary, k)


def brute_binary(form: BinaryForm, n: int) -> list[int]:
    """Box count for a reduced form, where Q >= (x^2 + y^2) / 2."""
    r = isqrt(2 * n) + 1
    counts = [0] * n
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            v = form.value(x, y)
            if v < n:
                counts[v] += 1
    return counts


class TestOraclesWithoutRowCode:
    """Theta series against counts that share no row code with them."""

    def test_binary_classes_match_box(self):
        checked = 0
        for disc in range(-3, -200, -1):
            if disc % 4 not in (0, 1):
                continue
            for form in enumerate_binary_classes(disc):
                brute = brute_binary(form, 200)
                for n in (0, 1, 2, 200):
                    assert forms._theta_binary(form, n) == tuple(brute[:n]), \
                        (form, n)
                checked += 1
        assert checked == 381

    @pytest.mark.parametrize("sextuple", [(1, 1, 1, 0, 0, 0),
                                          (3, 5, 14, 0, 0, 2),
                                          (4, 5, 6, 0, 4, 0),
                                          (5, 12, 18, 12, 0, 0),
                                          (9, 11, 11, 2, 6, 6)])
    def test_split_patterns_match_repcount(self, sextuple):
        form = TernaryForm(*sextuple)
        coeffs = forms._theta_ternary(form, 300)
        assert list(coeffs) == [repcount(form, m) for m in range(300)]

    def test_split_product_skips_binary_theta(self, monkeypatch):
        def no_binary(*_):
            raise AssertionError("split theta called _theta_binary")
        monkeypatch.setattr(forms, "_theta_binary", no_binary)
        for sextuple in REGISTRY_FORMS:
            form = TernaryForm(*sextuple)
            if split_pattern(form):
                assert forms._theta_ternary(form, 200)[0] == 1


def random_forms(seed: int, count: int):
    """Seeded positive definite binary and ternary forms, many not reduced."""
    rng = random.Random(seed)
    binaries, ternaries = [], []
    while len(binaries) < count:
        a, c = rng.randint(1, 9), rng.randint(1, 9)
        b = rng.randint(-9, 9)
        if b * b < 4 * a * c:
            binaries.append(BinaryForm(a, b, c))
    while len(ternaries) < count:
        try:
            ternaries.append(TernaryForm(
                *(rng.randint(1, 9) for _ in range(3)),
                *(rng.randint(-7, 7) for _ in range(3))))
        except ValueError:
            pass
    return binaries, ternaries


class TestExactRows:
    """Every row lists exactly the points within its bound: each listed
    point is within it, the points one step past either end of a row are
    not, and the rows with their negatives give the box scan's points.
    The rows carry no slack, so `_tally` and `short_vectors` test no
    value."""

    BOUNDS = (1, 2, 5, 17, 40)
    BINARIES, TERNARIES = random_forms(20261020, 30)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_plane_rows(self, bound):
        for form in self.BINARIES:
            a, b, c = form
            points = set()
            for x, ylo, yhi, bx, ax2 in forms._plane_rows(a, b, c, bound):
                assert (bx, ax2) == (b * x, a * x * x)
                for y in range(ylo, yhi + 1):
                    assert 0 < form.value(x, y) <= bound, (form, x, y)
                    points.update(((x, y), (-x, -y)))
                assert form.value(x, yhi + 1) > bound, (form, x)
                if x:
                    assert form.value(x, ylo - 1) > bound, (form, x)
                else:
                    assert ylo == 1
            # box of the adjugate coordinate bounds
            rx = isqrt(4 * c * bound // -form.discriminant) + 1
            ry = isqrt(4 * a * bound // -form.discriminant) + 1
            assert points == {(x, y) for x in range(-rx, rx + 1)
                              for y in range(-ry, ry + 1)
                              if 0 < form.value(x, y) <= bound}, form

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_half_space_rows(self, bound):
        for form in self.TERNARIES:
            points = set()
            for (x, y), zlo, zhi, lin, const in forms._half_space_rows(
                    form, bound):
                for z in range(zlo, zhi + 1):
                    assert 0 < form.value(x, y, z) <= bound, (form, x, y, z)
                    points.update(((x, y, z), (-x, -y, -z)))
                assert form.value(x, y, zhi + 1) > bound, (form, x, y)
                if (x, y) != (0, 0):
                    assert form.value(x, y, zlo - 1) > bound, (form, x, y)
                else:
                    # the z-line starts at z = 1
                    assert zlo == 1
            assert points == {v for v, _ in brute_points(form, bound)}, form


def brute_points(form: TernaryForm, bound: int):
    """(v, Q(v)) for every v != 0 with Q(v) <= bound, by a box scan with
    adjugate coordinate bounds."""
    a, b, c, d, e, f = form.sextuple()
    disc = form.discriminant
    bx = isqrt(bound * (4 * b * c - d * d) // disc) + 1
    by = isqrt(bound * (4 * a * c - e * e) // disc) + 1
    bz = isqrt(bound * (4 * a * b - f * f) // disc) + 1
    for x in range(-bx, bx + 1):
        for y in range(-by, by + 1):
            for z in range(-bz, bz + 1):
                v = form.value(x, y, z)
                if 0 < v <= bound:
                    yield (x, y, z), v


class TestShortVectors:
    """short_vectors against a brute-force box with adjugate bounds."""

    @staticmethod
    def brute(form: TernaryForm, bound: int):
        out = {}
        for v, value in brute_points(form, bound):
            out.setdefault(value, []).append(v)
        return out

    @pytest.mark.parametrize("sextuple", [(1, 1, 1, 0, 0, 0),
                                          (3, 5, 14, 0, 0, 2),
                                          (4, 5, 6, 0, 4, 0),
                                          (5, 12, 18, 12, 0, 0),
                                          (9, 11, 11, 2, 6, 6),
                                          (2, 3, 4, -1, -2, -1)])
    @pytest.mark.parametrize("bound", [0, 1, 2, 9, 40])
    def test_matches_brute_box(self, sextuple, bound):
        form = TernaryForm(*sextuple)
        got = short_vectors(form, bound)
        want = self.brute(form, bound)
        assert sorted(got) == sorted(want)
        for v, vecs in got.items():
            assert len(set(vecs)) == len(vecs)
            assert sorted(vecs) == sorted(want[v])


class TestAutCount:
    @pytest.mark.parametrize("sextuple,order", sorted(KNOWN_FORMS.items()))
    def test_known_orders(self, sextuple, order):
        assert aut_count(TernaryForm(*sextuple)) == order

    @pytest.mark.parametrize("sextuple", sorted(KNOWN_FORMS))
    def test_against_bounded_matrix_scan(self, sextuple):
        form = TernaryForm(*sextuple)
        assert aut_count(form) == brute_aut_count(form)

    def test_diagonal_repeated_entries(self):
        assert aut_count(TernaryForm(1, 1, 1, 0, 0, 0)) == 48


class TestEquivalence:
    def test_reflexive(self):
        f = TernaryForm(2, 3, 6, 0, 0, 0)
        assert ternary_equivalent(f, f)

    def test_distinct_genera_are_inequivalent(self):
        assert not ternary_equivalent(TernaryForm(1, 6, 6, 0, 0, 0),
                                      TernaryForm(2, 3, 6, 0, 0, 0))

    def test_same_genus_distinct_classes(self):
        assert not ternary_equivalent(TernaryForm(4, 5, 6, 0, 4, 0),
                                      TernaryForm(1, 10, 10, 0, 0, 0))

    def test_requires_equal_discriminant(self):
        with pytest.raises(ValueError):
            ternary_equivalent(TernaryForm(1, 1, 1, 0, 0, 0),
                               TernaryForm(1, 1, 2, 0, 0, 0))

    def test_random_transforms_stay_equivalent(self):
        rng = random.Random(99)
        for sextuple in ((1, 6, 6, 0, 0, 0), (3, 5, 14, 0, 0, 2),
                         (9, 11, 11, 2, 6, 6)):
            form = TernaryForm(*sextuple)
            for _ in range(5):
                moved = transform_ternary(form, random_unimodular(rng))
                assert moved.discriminant == form.discriminant
                assert ternary_equivalent(form, moved)
                assert aut_count(moved) == aut_count(form)
                for m in range(0, 51):
                    assert repcount(moved, m) == repcount(form, m)


class TestClassEnumeration:
    def test_disc_144_contains_the_regular_pair(self):
        classes = {f.sextuple() for f in enumerate_ternary_classes(144)}
        assert (1, 6, 6, 0, 0, 0) in classes
        assert (2, 3, 6, 0, 0, 0) in classes

    def test_disc_784_contains_named_forms(self):
        classes = {f.sextuple() for f in enumerate_ternary_classes(784)}
        for s in ((1, 14, 14, 0, 0, 0), (2, 7, 14, 0, 0, 0), (3, 5, 14, 0, 0, 2)):
            assert s in classes

    def test_disc_3600_contains_lifted_union_forms(self):
        classes = {f.sextuple() for f in enumerate_ternary_classes(3600)}
        for s in KNOWN_FORMS:
            if TernaryForm(*s).discriminant == 3600:
                assert s in classes

    @pytest.mark.parametrize("disc", [144, 400, 784])
    def test_no_equivalent_pair(self, disc):
        classes = enumerate_ternary_classes(disc)
        for i, f in enumerate(classes):
            for g in classes[i + 1:]:
                assert not ternary_equivalent(f, g)

    def test_random_transform_lands_in_list(self):
        rng = random.Random(5)
        classes = enumerate_ternary_classes(144)
        for f in classes[:6]:
            moved = transform_ternary(f, random_unimodular(rng))
            hits = [g for g in classes if ternary_equivalent(moved, g)]
            assert hits == [f]


def rep_key(form):
    """The representative order: least (a, b, c, |d|, |e|, |f|), then signs."""
    a, b, c, d, e, f = form.sextuple()
    return (a, b, c, abs(d), abs(e), abs(f), d < 0, e < 0, f < 0)


def full_box_classes(disc):
    """Classes from the full signed box |d| <= b, |e| <= a and a pairwise dedupe.

    Candidates are tried in representative order, and one is kept unless it
    is equivalent to a kept form with the same first theta coefficients.
    """
    candidates = []
    for a in range(1, isqrt(disc // 2) + 2):
        if a ** 3 > disc // 2:
            break
        for b in range(a, isqrt(disc // (2 * a)) + 2):
            for f in range(-a, a + 1):
                den = 4 * a * b - f * f
                for d in range(-b, b + 1):
                    for e in range(-a, a + 1):
                        num = disc + a * d * d + b * e * e - f * d * e
                        if den <= 0 or num % den:
                            continue
                        c = num // den
                        if b <= c and 2 * a * b * c <= disc:
                            candidates.append(TernaryForm(a, b, c, d, e, f))
    kept = {}
    for form in sorted(candidates, key=rep_key):
        group = kept.setdefault(theta_series(form, min(32, disc)).coeffs, [])
        if not any(ternary_equivalent(form, other) for other in group):
            group.append(form)
    return sorted((f for group in kept.values() for f in group), key=rep_key)


@lru_cache(maxsize=None)
def full_candidates(disc):
    return ternary_candidates(disc, 1, 1)


def adjugate_entries(form):
    """The nine cofactors of the doubled Gram matrix (cyclic indices)."""
    g = form.gram_doubled()
    return [g[(i + 1) % 3][(j + 1) % 3] * g[(i + 2) % 3][(j + 2) % 3]
            - g[(i + 1) % 3][(j + 2) % 3] * g[(i + 2) % 3][(j + 1) % 3]
            for i in range(3) for j in range(3)]


def filtered_box(disc, g, h):
    """The full box's forms with g | d, e, f and h | adj(G)."""
    return tuple(f for f in full_candidates(disc)
                 if f.d % g == 0 and f.e % g == 0 and f.f % g == 0
                 and all(x % h == 0 for x in adjugate_entries(f)))


class TestHalfBox:
    @pytest.mark.parametrize("disc", [144, 400, 784, 1936, 3600])
    def test_matches_full_box_oracle(self, disc):
        got = [f.sextuple() for f in enumerate_ternary_classes(disc)]
        assert got == [f.sextuple() for f in full_box_classes(disc)]

    @pytest.mark.parametrize("disc", [27, 144, 3600])
    def test_candidates_are_sorted_half_box_forms(self, disc):
        candidates = ternary_candidates(disc)
        assert list(candidates) == sorted(candidates, key=rep_key)
        assert len(set(candidates)) == len(candidates)
        for form in candidates:
            assert form.d >= 0 and form.e >= 0
            assert form.discriminant == disc

    def test_dedupe_ignores_input_order(self):
        candidates = ternary_candidates(400)
        assert distinct_classes(reversed(candidates)) == \
            enumerate_ternary_classes(400)

    def test_rejects_nonpositive_discriminant(self):
        for disc in (0, -4):
            with pytest.raises(ValueError):
                ternary_candidates(disc)

    # the S-genus discriminants 16 S^2 for S in MASS_SHIFTS
    SGENUS_DISCS = [16 * s * s for s in (3, 5, 7, 11, 13, 15, 21, 33, 35)]

    @pytest.mark.parametrize("disc", [144, 400, 784, 1936, 3600] + SGENUS_DISCS)
    @pytest.mark.parametrize("g", [2, 4])
    def test_gcd_box_is_the_filtered_full_box(self, disc, g):
        full = ternary_candidates(disc, 1)
        assert ternary_candidates(disc, g) == tuple(
            f for f in full if f.d % g == 0 and f.e % g == 0 and f.f % g == 0)

    def test_rejects_nonpositive_gcd_step(self):
        for g in (0, -2):
            with pytest.raises(ValueError):
                ternary_candidates(144, g)

    # (disc, g, h): every lifted S-genus class has (g, h) = (2, 8S)
    ADJUGATE_BOXES = [(16 * s * s, g, h)
                      for s in (3, 5, 7, 11, 13, 15, 21, 33, 35)
                      for g, h in ((2, 8 * s), (1, 8 * s), (2, 4))]

    @pytest.mark.parametrize("disc, g, h", ADJUGATE_BOXES)
    def test_adjugate_box_is_the_filtered_full_box(self, disc, g, h):
        got = ternary_candidates(disc, g, h)
        assert got == filtered_box(disc, g, h)
        assert got

    # at each of these the least disc where one of the six adjugate
    # entries alone rejects a form the other five let through
    @pytest.mark.parametrize("disc", [8, 24, 48, 176, 432])
    def test_adjugate_box_at_every_h(self, disc):
        for g in (1, 2):
            for h in divisors(2 * disc):
                assert ternary_candidates(disc, g, h) == \
                    filtered_box(disc, g, h)

    def test_rejects_nonpositive_adjugate_gcd(self):
        for h in (0, -8):
            with pytest.raises(ValueError):
                ternary_candidates(144, 2, h)


class TestBinaryForms:
    def test_reduce_already_reduced(self):
        assert reduce_binary(BinaryForm(1, 0, 6)) == BinaryForm(1, 0, 6)

    def test_str(self):
        assert str(BinaryForm(1, 0, 6)) == "1,0,6"

    def test_reduce_swap(self):
        assert reduce_binary(BinaryForm(6, 0, 1)) == BinaryForm(1, 0, 6)

    def test_reduce_proper_convention(self):
        # proper (determinant one) reduction negates b on each swap
        assert reduce_binary(BinaryForm(3, -2, 5)) == BinaryForm(3, -2, 5)
        assert reduce_binary(BinaryForm(5, 2, 3)) == BinaryForm(3, -2, 5)
        assert reduce_binary(BinaryForm(5, -2, 3)) == BinaryForm(3, 2, 5)

    def test_reduce_equal_outer_coefficients(self):
        # a = c: (a, -b, a) and (a, b, a) are one class; b >= 0 is kept
        assert reduce_binary(BinaryForm(2, -1, 2)) == BinaryForm(2, 1, 2)

    def test_reduce_large(self):
        f = BinaryForm(31, 24, 5)
        r = reduce_binary(f)
        assert (abs(r.b) <= r.a <= r.c) and r.discriminant == f.discriminant

    def test_class_list_24(self):
        assert [(f.a, f.b, f.c) for f in enumerate_binary_classes(-24)] == \
            [(1, 0, 6), (2, 0, 3)]

    def test_class_list_56(self):
        got = {(f.a, f.b, f.c) for f in enumerate_binary_classes(-56)}
        assert got == {(1, 0, 14), (2, 0, 7), (3, 2, 5), (3, -2, 5)}

    def test_class_list_120(self):
        got = {(f.a, f.b, f.c) for f in enumerate_binary_classes(-120)}
        assert got == {(1, 0, 30), (3, 0, 10), (5, 0, 6), (2, 0, 15)}

    def test_rejects_positive_discriminant(self):
        with pytest.raises(ValueError):
            enumerate_binary_classes(24)
