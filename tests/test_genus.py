import hashlib
import random
from collections import Counter
from functools import lru_cache
from math import gcd, prod

import pytest

from thetaforms import forms, genus, series
from thetaforms.arith import divisors, is_squarefree, jacobi, prime_divisors
from thetaforms.forms import (BinaryForm, TernaryForm,
                              enumerate_binary_classes,
                              enumerate_ternary_classes, ternary_candidates,
                              theta_series)
from thetaforms.genus import (GenusRecord, _canonical_two, _jordan_blocks,
                              binary_genus_partition, build_sgenus, epsilon,
                              genus_of, genus_partition,
                              lift_binary_to_ternary, local_symbols,
                              mass_direct, mass_formula, orthogonality_check,
                              same_genus, sgenus_mass, weighted_coefficients,
                              weighted_count)
from oracles import transform_ternary

MASS_SHIFTS = (3, 5, 7, 11, 13, 15, 21, 33, 35)
ODD_SQUAREFREE = [s for s in range(3, 36, 2) if is_squarefree(s)]
# (S, index of a lifted genus, divisor w >= 2 of S); S has 2^r genera
LIFTED_CHARACTERS = [(s, i, w) for s in MASS_SHIFTS
                     for i in range(2 ** len(prime_divisors(s)))
                     for w in divisors(s) if w >= 2]


def transformed_binary(rng, form):
    # random SL2(Z) image with small entries
    while True:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randrange(1, 5)):
            k = rng.choice((-1, 1))
            if rng.randrange(2):
                a, b = a + k * c, b + k * d
            else:
                c, d = c + k * a, d + k * b
        if max(abs(v) for v in (a, b, c, d)) <= 3:
            break
    # Q(ax+by, cx+dy)
    fa = form.a * a * a + form.b * a * c + form.c * c * c
    fb = 2 * form.a * a * b + form.b * (a * d + b * c) + 2 * form.c * c * d
    fc = form.a * b * b + form.b * b * d + form.c * d * d
    return BinaryForm(fa, fb, fc)


class TestSameGenus:
    def test_reflexive(self):
        f = TernaryForm(2, 5, 10, 0, 0, 0)
        assert same_genus(f, f)

    def test_positive_pair(self):
        assert same_genus(TernaryForm(1, 10, 10, 0, 0, 0),
                          TernaryForm(4, 5, 6, 0, 4, 0))

    def test_negative_pair(self):
        assert not same_genus(TernaryForm(1, 6, 6, 0, 0, 0),
                              TernaryForm(2, 3, 6, 0, 0, 0))

    def test_discriminant_mismatch(self):
        with pytest.raises(ValueError):
            same_genus(TernaryForm(1, 1, 1, 0, 0, 0),
                       TernaryForm(1, 1, 2, 0, 0, 0))


class TestLocalSymbols:
    # images that are not reduced make the elimination meet off-diagonal
    # pivots and fill-in that the reduced candidates rarely show
    UNIMODULAR = (((1, 1, 0), (0, 1, 1), (0, 0, 1)),
                  ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
                  ((1, 0, 0), (2, 1, 0), (3, 1, 1)))

    @pytest.mark.parametrize("disc", [144, 400, 784, 3600, 16 * 21 ** 2])
    def test_invariant_under_unimodular_images(self, disc):
        for form in ternary_candidates(disc):
            symbols = local_symbols(form)
            for u in self.UNIMODULAR:
                assert local_symbols(transform_ternary(form, u)) == symbols, \
                    (form, u)

    def test_cache_is_keyed_by_the_form(self):
        form = TernaryForm(3, 5, 7, 1, 1, 1)
        first = local_symbols(form)
        before = genus._local_symbols_cached.cache_info()
        assert local_symbols(TernaryForm(3, 5, 7, 1, 1, 1)) is first
        after = genus._local_symbols_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_singular_matrix_raises(self):
        with pytest.raises(ValueError, match="singular"):
            list(_jordan_blocks([[2, 1, 0], [1, 2, 0], [0, 0, 0]], 3))
        with pytest.raises(ValueError, match="singular"):
            list(_jordan_blocks([[2, 2, 4], [2, 2, 4], [4, 4, 8]], 2))


class TestCanonicalTwo:
    # rows [scale, dim, det unit mod 8, type odd, oddity] as `_scales` gives
    @pytest.mark.parametrize("rows, entries, oddities", [
        pytest.param([[0, 1, 1, True, 3], [1, 2, 7, True, 7]],
                     ((0, 1, 1, True), (1, 2, 1, True)), ((0, 2),),
                     id="oddity-fusion"),
        # scales 0 and 2, both odd: one train of two compartments, so the
        # walked sign adds 4 to the oddity of each
        pytest.param([[0, 1, 1, True, 1], [2, 1, 3, True, 3]],
                     ((0, 1, -1, True), (2, 1, 1, True)), ((0, 5), (1, 7)),
                     id="gap-2-train"),
        pytest.param([[0, 1, 3, True, 3], [2, 2, 3, False, 0]],
                     ((0, 1, -1, True), (2, 2, -1, False)), ((0, 3),),
                     id="gap-2-even-unbound"),
        # one train over all four rows: the minus sign at scale 3 walks
        # through the even entry at scale 2 and cancels the one at scale 1,
        # adding 4 to each compartment a walked pair touches
        pytest.param([[0, 1, 3, True, 3], [1, 1, 5, True, 5],
                      [2, 2, 1, False, 0], [3, 1, 3, True, 1]],
                     ((0, 1, -1, True), (1, 1, 1, True), (2, 2, 1, False),
                      (3, 1, 1, True)), ((0, 4), (3, 5)),
                     id="walk-through-even"),
        pytest.param([], (), (), id="empty"),
    ])
    def test_hand_made_rows(self, rows, entries, oddities):
        assert _canonical_two(rows) == (entries, oddities)


class TestGenusPartition:
    def test_partitions_and_sgenera_are_pinned(self):
        # the repr of every record, class by class; a change to the genus
        # layer that alters any of them changes the digest
        text = "\n".join([repr(genus_partition(d))
                          for d in (144, 400, 784, 1936, 3600)]
                         + [repr(build_sgenus(s)) for s in MASS_SHIFTS])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f50c15cfa80fd1143ca33ce7d0970aad9923c634d1c570903fb234b1e9db4ba6")

    def test_disc_400_groups(self):
        cells = {tuple(sorted(f.sextuple() for f in rec.classes))
                 for rec in genus_partition(400)}
        assert ((1, 10, 10, 0, 0, 0), (4, 5, 6, 0, 4, 0)) in cells
        assert ((2, 5, 10, 0, 0, 0),) in cells

    def test_disc_784_groups(self):
        cells = {tuple(sorted(f.sextuple() for f in rec.classes))
                 for rec in genus_partition(784)}
        assert ((1, 14, 14, 0, 0, 0), (2, 7, 14, 0, 0, 0)) in cells
        assert ((3, 5, 14, 0, 0, 2),) in cells

    def test_disc_3600_lifted_union_cells(self):
        cells = {tuple(sorted(f.sextuple() for f in rec.classes))
                 for rec in genus_partition(3600)}
        assert ((1, 30, 30, 0, 0, 0), (6, 10, 15, 0, 0, 0)) in cells
        assert ((3, 10, 30, 0, 0, 0),) in cells
        assert ((5, 6, 30, 0, 0, 0), (9, 11, 11, 2, 6, 6)) in cells
        assert ((2, 15, 30, 0, 0, 0), (5, 12, 18, 12, 0, 0)) in cells

    def test_partition_covers_and_separates(self):
        part = genus_partition(144)
        seen = []
        for rec in part:
            for f in rec.classes:
                seen.append(f)
                assert same_genus(f, rec.classes[0])
        assert len(seen) == len(set(seen))
        for i, rec in enumerate(part):
            for other in part[i + 1:]:
                assert not same_genus(rec.classes[0], other.classes[0])


class TestGenusOf:
    @pytest.mark.parametrize("disc", [144, 400, 784, 3600])
    def test_is_the_partition_cell(self, disc):
        part = genus_partition(disc)
        assert sorted(f for rec in part for f in rec.classes) == \
            sorted(enumerate_ternary_classes(disc))
        for rec in part:
            for f in rec.classes:
                assert genus_of(f) is rec

    @pytest.mark.parametrize("s", [3, 5, 7, 15])
    def test_non_reduced_image_finds_the_lift(self, s):
        u = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        records = build_sgenus(s).tg
        candidates = set(ternary_candidates(16 * s * s))
        for bf in enumerate_binary_classes(-8 * s):
            lift = lift_binary_to_ternary(s, bf)
            image = transform_ternary(lift, u)
            assert image not in candidates
            record = genus_of(lift)
            assert record in records
            assert genus_of(image) is record

    def test_cell_without_an_equivalent_class(self, monkeypatch):
        form = TernaryForm(1, 10, 10, 0, 0, 0)
        other = GenusRecord(400, (TernaryForm(4, 5, 6, 0, 4, 0),))
        assert other.contains(form)
        key = genus._genus_key(form)
        monkeypatch.setattr(genus, "_genus_cells",
                            lambda *box: {key: other.classes})
        fresh_cache(monkeypatch, genus, "_genus_record")
        with pytest.raises(LookupError):
            genus_of(form)

    def test_empty_cell(self, monkeypatch):
        monkeypatch.setattr(genus, "_genus_cells", lambda *box: {})
        with pytest.raises(LookupError):
            genus_of(TernaryForm(1, 6, 6, 0, 0, 0))


def local_count_signature(form, mod):
    """#{v mod `mod` : Q(v) = m (mod `mod`)} for every residue m."""
    counts = [0] * mod
    a, b, c, d, e, f = form.sextuple()
    for x in range(mod):
        ax2 = a * x * x
        ex = e * x
        fx = f * x
        for y in range(mod):
            base = ax2 + b * y * y + fx * y
            lin = d * y + ex
            for z in range(mod):
                counts[(base + (c * z + lin) * z) % mod] += 1
    return tuple(counts)


def fresh_cache(monkeypatch, module, name, func=None):
    """Swap module.name for a cached func (default: its own body) with an
    empty cache, so that a test neither reads nor fills the shared one."""
    func = func or getattr(module, name).__wrapped__
    monkeypatch.setattr(module, name, lru_cache(maxsize=None)(func))


def sgenus_from_cells(monkeypatch, s, box):
    """build_sgenus(s) on fresh caches, each genus read from the cells of
    the candidate box box(disc, g, h) in place of the (g, h)-box."""
    cells = genus._genus_cells.__wrapped__
    fresh_cache(monkeypatch, genus, "_genus_cells",
                lambda *key: cells(*box(*key)))
    fresh_cache(monkeypatch, genus, "_genus_record")
    fresh_cache(monkeypatch, genus, "build_sgenus")
    return genus.build_sgenus(s)


def assert_same_sgenus(got, want):
    assert [tg.classes for tg in got.tg] == [tg.classes for tg in want.tg]
    assert got.sources == want.sources
    assert got.eps == want.eps


class TestGcdBox:
    """`genus_of` walks only the candidate box of its genus's doubled-Gram
    gcd g and adjugate gcd h; the full (1, 1) box is the oracle."""

    @pytest.mark.parametrize("s", MASS_SHIFTS + (39, 51, 55))
    def test_sgenus_matches_the_full_pool(self, s, monkeypatch):
        got = build_sgenus(s)
        assert {genus._cheap_invariants(tg.classes[0])[1] for tg in got.tg} \
            == {2}
        assert_same_sgenus(got, sgenus_from_cells(
            monkeypatch, s, lambda disc, g, h: (disc, 1, 1)))

    # unimodular changes of variables; the last two have determinant -1
    UNIMODULAR = (((1, 1, 0), (0, 1, 1), (0, 0, 1)),
                  ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
                  ((2, 1, 0), (1, 1, 0), (3, -2, 1)),
                  ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
                  ((1, 2, 0), (0, 1, 0), (1, 1, -1)))

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_cheap_invariants_are_class_invariants(self, s):
        assert sorted(forms._det3(u) for u in self.UNIMODULAR) == \
            [-1, -1, 1, 1, 1]
        for form in enumerate_ternary_classes(16 * s * s):
            inv = genus._cheap_invariants(form)
            for u in self.UNIMODULAR:
                assert genus._cheap_invariants(
                    transform_ternary(form, u)) == inv

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_sgenus_classes_share_one_box(self, s):
        assert {genus._cheap_invariants(form)
                for tg in build_sgenus(s).tg for form in tg.classes} \
            == {(1, 2, 8 * s)}

    @pytest.mark.parametrize("disc", [27, 100, 144, 400, 784, 3600, 7056])
    def test_cells_do_not_mix_cheap_invariants(self, disc):
        # the premise of keying cells by local symbols alone: the symbols
        # fix content, g and h, although the box mixes them
        cells = genus._genus_cells(disc, 1, 1).values()
        assert len({genus._cheap_invariants(form)
                    for cell in cells for form in cell}) > 1
        for cell in cells:
            assert len({genus._cheap_invariants(form) for form in cell}) == 1

    def test_each_box_is_walked_once(self, monkeypatch):
        walks = Counter()
        walk = forms._candidate_box

        def counted(disc, g, h):
            walks[disc, g, h] += 1
            return walk(disc, g, h)

        monkeypatch.setattr(forms, "_candidate_box", counted)
        for name in ("_genus_cells", "_genus_record", "genus_partition"):
            fresh_cache(monkeypatch, genus, name)
        part = genus.genus_partition(3600)
        assert walks == {(3600, 1, 1): 1}
        for record in part:
            for form in record.classes:
                assert genus.genus_of(form) is record
        boxes = {(3600, *genus._cheap_invariants(form)[1:])
                 for record in part for form in record.classes}
        assert walks == {(3600, 1, 1): 1, **dict.fromkeys(boxes, 1)}


class TestThreePrimeShifts:
    """S with r = 3 prime factors: eight lifted genera of 16 S^2."""

    @pytest.mark.parametrize("s", [105, 165, 195, 231])
    def test_masses_and_orthogonality(self, s):
        sg = build_sgenus(s)
        assert len(sg.tg) == 8
        for tg in sg.tg:
            assert mass_formula(tg, s) == mass_direct(tg)
        assert sgenus_mass(sg) == s
        for w in divisors(s):
            if w >= 2:
                assert orthogonality_check(sg, w)

    def test_105_matches_the_h1_pool(self, monkeypatch):
        assert_same_sgenus(build_sgenus(105), sgenus_from_cells(
            monkeypatch, 105, lambda disc, g, h: (disc, g, 1)))


class TestLocalCountConsistency:
    # solution counts modulo prime powers are genus invariants; the partition
    # must agree with them in both directions at these depths
    @pytest.mark.parametrize("disc,p_mod", [(27, 27), (100, 25), (144, 9)])
    def test_partition_matches_local_counts(self, disc, p_mod):
        part = genus_partition(disc)
        sig = {f: (local_count_signature(f, 64), local_count_signature(f, p_mod))
               for rec in part for f in rec.classes}
        for rec in part:
            ref = sig[rec.classes[0]]
            for f in rec.classes[1:]:
                assert sig[f] == ref, f
        reps = [rec.classes[0] for rec in part]
        signatures = {sig[f] for f in reps}
        assert len(signatures) == len(reps)


def residue_sweep_partition(disc):
    """Reference binary genera: classes grouped by the unit residues mod
    |disc| they represent, from every (x, y) mod |disc|."""
    mod = -disc
    units = frozenset(v for v in range(mod) if gcd(v, mod) == 1)
    cells = {}
    for f in enumerate_binary_classes(disc):
        values = {(f.a * x * x + f.b * x * y + f.c * y * y) % mod
                  for x in range(mod) for y in range(mod)}
        cells.setdefault(units & values, []).append(f)
    return tuple(sorted(
        (tuple(cell) for cell in cells.values()),
        key=lambda cell: min((f.a, abs(f.b), f.c, f.b < 0) for f in cell)))


class TestBinaryGenera:
    def test_two_cells_at_24(self):
        cells = binary_genus_partition(-24)
        assert len(cells) == 2
        assert all(len(cell) == 1 for cell in cells)

    def test_56_grouping(self):
        cells = {frozenset((f.a, f.b, f.c) for f in cell)
                 for cell in binary_genus_partition(-56)}
        assert frozenset({(1, 0, 14), (2, 0, 7)}) in cells
        assert frozenset({(3, 2, 5), (3, -2, 5)}) in cells

    def test_four_cells_at_120(self):
        assert len(binary_genus_partition(-120)) == 4

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_cell_count_is_power_of_two(self, s):
        cells = binary_genus_partition(-8 * s)
        assert len(cells) == 2 ** len(prime_divisors(s))

    @pytest.mark.parametrize("s", ODD_SQUAREFREE)
    def test_matches_residue_sweep(self, s):
        assert binary_genus_partition(-8 * s) == \
            residue_sweep_partition(-8 * s)

    @pytest.mark.parametrize("s", ODD_SQUAREFREE)
    def test_character_at_two_is_redundant(self, s):
        # on values n prime to 2S, (-8S|n) = 1 makes the assigned character
        # at 2 the product of the (n|p), so the key leaves it out
        two = -2 if s % 4 == 1 else 2
        for f in enumerate_binary_classes(-8 * s):
            for x in range(8):
                for y in range(8):
                    n = f.a * x * x + f.b * x * y + f.c * y * y
                    if gcd(n, 2 * s) == 1:
                        assert jacobi(two, n) == \
                            prod(jacobi(n, p) for p in prime_divisors(s))

    @pytest.mark.parametrize("disc", [-20, -4 * 21, -8, -8 * 6, -8 * 9, 24])
    def test_rejects_other_discriminants(self, disc):
        with pytest.raises(ValueError):
            binary_genus_partition(disc)


class TestLift:
    def test_lift_of_principal(self):
        lifted = lift_binary_to_ternary(3, BinaryForm(1, 0, 6))
        assert lifted.sextuple() == (1, 6, 6, 0, 0, 0)

    def test_lift_uses_absolute_cross_term(self):
        lifted = lift_binary_to_ternary(7, BinaryForm(3, -2, 5))
        assert lifted.sextuple() == (3, 5, 14, 0, 0, 2)

    def test_lift_discriminant(self):
        for s in (3, 5, 7, 15):
            for bf in enumerate_binary_classes(-8 * s):
                assert lift_binary_to_ternary(s, bf).discriminant == 16 * s * s

    def test_rejects_wrong_discriminant(self):
        with pytest.raises(ValueError):
            lift_binary_to_ternary(5, BinaryForm(1, 0, 6))

    @pytest.mark.parametrize("disc,n", [(-24, 6), (-40, 10), (-56, 14),
                                        (-120, 30)])
    def test_lift_preserves_genus_relation(self, disc, n):
        # same ternary genus after adding n z^2 iff same binary genus
        rng = random.Random(disc)
        cells = binary_genus_partition(disc)
        cell_of = {}
        for i, cell in enumerate(cells):
            for f in cell:
                cell_of[(f.a, f.b, f.c)] = i
        reps = [f for cell in cells for f in cell]
        s = n // 2
        for _ in range(50):
            f1 = transformed_binary(rng, rng.choice(reps))
            f2 = transformed_binary(rng, rng.choice(reps))
            from thetaforms.forms import reduce_binary
            r1, r2 = reduce_binary(f1), reduce_binary(f2)
            same_binary = cell_of[(r1.a, r1.b, r1.c)] == cell_of[(r2.a, r2.b, r2.c)]
            t1 = lift_binary_to_ternary(s, r1)
            t2 = lift_binary_to_ternary(s, r2)
            assert same_genus(t1, t2) == same_binary


class TestSGenus:
    def test_s3(self):
        sg = build_sgenus(3)
        cells = [tuple(sorted(f.sextuple() for f in tg.classes)) for tg in sg.tg]
        assert ((1, 6, 6, 0, 0, 0),) in cells
        assert ((2, 3, 6, 0, 0, 0),) in cells

    def test_s15_reproduces_the_four_cells(self):
        sg = build_sgenus(15)
        cells = {tuple(sorted(f.sextuple() for f in tg.classes)) for tg in sg.tg}
        assert cells == {
            ((1, 30, 30, 0, 0, 0), (6, 10, 15, 0, 0, 0)),
            ((3, 10, 30, 0, 0, 0),),
            ((5, 6, 30, 0, 0, 0), (9, 11, 11, 2, 6, 6)),
            ((2, 15, 30, 0, 0, 0), (5, 12, 18, 12, 0, 0)),
        }

    def test_s7(self):
        sg = build_sgenus(7)
        cells = {tuple(sorted(f.sextuple() for f in tg.classes)) for tg in sg.tg}
        assert cells == {
            ((1, 14, 14, 0, 0, 0), (2, 7, 14, 0, 0, 0)),
            ((3, 5, 14, 0, 0, 2),),
        }

    def test_rejects_bad_shift(self):
        for bad in (9, 2, 21 * 3):
            with pytest.raises(ValueError):
                build_sgenus(bad)

    def test_repeated_genus_is_refused(self, monkeypatch):
        # every lift landing in one record must not pass as two genera
        record = genus.genus_of(lift_binary_to_ternary(
            15, enumerate_binary_classes(-120)[0]))
        monkeypatch.setattr(genus, "genus_of", lambda form: record)
        monkeypatch.setattr(GenusRecord, "contains", lambda self, form: True)
        fresh_cache(monkeypatch, genus, "build_sgenus")
        with pytest.raises(RuntimeError, match="not pairwise distinct"):
            genus.build_sgenus(15)

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_disjoint_cells(self, s):
        sg = build_sgenus(s)
        all_forms = [f for tg in sg.tg for f in tg.classes]
        assert len(all_forms) == len(set(all_forms))


class TestEpsilon:
    def test_known_values(self):
        assert epsilon(genus_of(TernaryForm(1, 6, 6, 0, 0, 0)), 3) == -1
        assert epsilon(genus_of(TernaryForm(2, 5, 10, 0, 0, 0)), 5) == -1
        assert epsilon(genus_of(TernaryForm(1, 14, 14, 0, 0, 0)), 7) == -1
        assert epsilon(genus_of(TernaryForm(3, 5, 14, 0, 0, 2)), 7) == 1

    def test_trivial_divisor(self):
        assert epsilon(genus_of(TernaryForm(1, 6, 6, 0, 0, 0)), 1) == 1

    def test_multiplicative_over_prime_divisors(self):
        sg = build_sgenus(15)
        for i, tg in enumerate(sg.tg):
            assert sg.eps[(i, 15)] == sg.eps[(i, 3)] * sg.eps[(i, 5)]

    @pytest.mark.parametrize("s, i, w", LIFTED_CHARACTERS)
    def test_independent_of_represented_value(self, s, i, w):
        # every represented value coprime to w must give the same character
        tg = build_sgenus(s).tg[i]
        coeffs = [theta_series(f, 1000).coeffs for f in tg.classes]
        values = {jacobi(-n, w)
                  for n in range(1, 1000)
                  if gcd(n, w) == 1 and any(c[n] for c in coeffs)}
        assert values == {epsilon(tg, w)}

    @pytest.mark.parametrize("form", [
        (1, 1, 1, 0, 0, 0),   # 3 does not divide 2*disc = 8
        (1, 1, 3, 0, 0, 0),   # 2-dimensional scale-0 block at 3
        (3, 3, 3, 0, 0, 0),   # no scale-0 block at 3
    ])
    def test_unfixed_character_raises(self, form):
        f = TernaryForm(*form)
        with pytest.raises(RuntimeError):
            epsilon(GenusRecord(f.discriminant, (f,)), 3)

    def test_even_divisor_rejected(self):
        with pytest.raises(ValueError):
            epsilon(genus_of(TernaryForm(1, 6, 6, 0, 0, 0)), 2)

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_lift_carries_the_binary_character(self, s):
        # the ternary symbol against the binary genus it came from: the
        # lift represents every binary value n, so eps = (-n|p)
        sg = build_sgenus(s)
        for i, cell in enumerate(sg.sources):
            for bf in cell:
                values = [bf.a * x * x + bf.b * x * y + bf.c * y * y
                          for x in range(10) for y in range(10)]
                coprime = [n for n in values if gcd(n, 2 * s) == 1]
                assert coprime
                for p in sg.primes:
                    for n in coprime:
                        assert sg.eps[(i, p)] == jacobi(-1, p) * jacobi(n, p)


class TestMasses:
    def test_direct_values_s15(self):
        sg = build_sgenus(15)
        masses = {tuple(sorted(f.sextuple() for f in tg.classes)):
                  mass_direct(tg) for tg in sg.tg}
        assert masses[((1, 30, 30, 0, 0, 0), (6, 10, 15, 0, 0, 0))] == 3
        assert masses[((3, 10, 30, 0, 0, 0),)] == 2
        assert masses[((5, 6, 30, 0, 0, 0), (9, 11, 11, 2, 6, 6))] == 6
        assert masses[((2, 15, 30, 0, 0, 0), (5, 12, 18, 12, 0, 0))] == 4

    def test_singleton_mass(self):
        assert mass_direct(genus_of(TernaryForm(2, 5, 10, 0, 0, 0))) == 2

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_formula_matches_direct(self, s):
        sg = build_sgenus(s)
        for tg in sg.tg:
            assert mass_formula(tg, s) == mass_direct(tg)

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_union_mass_equals_shift(self, s):
        assert sgenus_mass(build_sgenus(s)) == s

    @pytest.mark.parametrize("s", MASS_SHIFTS)
    def test_orthogonality(self, s):
        sg = build_sgenus(s)
        for w in divisors(s):
            if w >= 2:
                assert orthogonality_check(sg, w)


class TestWeightedCounts:
    def test_single_class_weight(self):
        tg = genus_of(TernaryForm(1, 6, 6, 0, 0, 0))
        assert weighted_count(tg, 1) == 2

    def test_zero_when_unrepresented(self):
        tg = genus_of(TernaryForm(2, 3, 6, 0, 0, 0))
        assert weighted_count(tg, 1) == 0

    def test_weight_must_divide_sixteen(self):
        # |Aut(x^2+y^2+z^2)| = 48; its weight 16/48 must not read as 0
        tg = genus_of(TernaryForm(1, 1, 1, 0, 0, 0))
        for count in (lambda: weighted_count(tg, 3),
                      lambda: weighted_coefficients(tg, 10),
                      lambda: mass_direct(tg)):
            with pytest.raises(ArithmeticError, match="48 does not divide 16"):
                count()

    def test_s15_first_weight(self):
        sg = build_sgenus(15)
        values = [weighted_count(tg, 1) for tg in sg.tg]
        assert sorted(values) == [0, 0, 0, 2]

    def test_weighted_coefficients_match_pointwise(self):
        tg = genus_of(TernaryForm(1, 14, 14, 0, 0, 0))
        rows = weighted_coefficients(tg, 60)
        for m in range(60):
            assert rows[m] == weighted_count(tg, m)

    @pytest.mark.parametrize("sextuple", [(1, 10, 10, 0, 0, 0),
                                          (5, 6, 30, 0, 0, 0)])
    def test_weighted_coefficients_at_full_length(self, sextuple):
        # two classes each; (9,11,11,2,6,6), beside 5,6,30, takes the walk
        tg = genus_of(TernaryForm(*sextuple))
        assert len(tg.classes) == 2
        rows = weighted_coefficients(tg, 10001)
        assert len(rows) == 10001
        rng = random.Random(sum(sextuple))
        for m in (0, 1, 2, 10000, *rng.sample(range(3, 10000), 25)):
            assert rows[m] == weighted_count(tg, m), (sextuple, m)

    def test_packed_sum_slot_widths(self, monkeypatch):
        # synthetic weights and nonnegative thetas; where every theta ends
        # in m the total ends in sum(weights) * m, the slot bound, taken on
        # either side of each step of the width
        rng = random.Random(20261020)
        classes = ("f", "g", "h")
        weights = dict(zip(classes, (1, 2, 16)))
        monkeypatch.setattr(genus, "_weight", weights.__getitem__)
        widths = set()
        for bits in (7, 15, 31, 63, 71, 103):
            for m in ((2 ** bits - 1) // 19, -(-2 ** bits // 19)):
                widths.add(series._layout(weights.values(), [m]))
                for n, low in ((0, m), (1, m), (2, m), (40, m), (40, 1)):
                    # each theta ends in its largest coefficient, and the
                    # first class's, low, may lie below the others' m
                    top = {"f": low, "g": m, "h": m}
                    thetas = {f: [rng.randint(0, top[f]) for _ in range(n - 1)]
                              + [top[f]] * (n > 0) for f in classes}
                    monkeypatch.setattr(genus, "theta_coefficients",
                                        lambda form, size: thetas[form][:size])
                    want = tuple(sum(weights[f] * thetas[f][i]
                                     for f in classes) for i in range(n))
                    assert genus._weighted_cached.__wrapped__(classes, n) \
                        == want, (bits, m, n, low)
        assert {1, 2, 4, 8} <= widths and max(widths) > 8

    @pytest.mark.parametrize("s", [3, 5, 7, 15])
    def test_equal_weights_at_exact_shift_gcd(self, s):
        # gcd(S^2, M) = S and M = 1,2 mod 4: every cell carries the same weight
        sg = build_sgenus(s)
        rows = [weighted_coefficients(tg, 500) for tg in sg.tg]
        hit = 0
        for m in range(1, 500):
            if m % 4 in (1, 2) and gcd(s * s, m) == s:
                values = {row[m] for row in rows}
                assert len(values) == 1, f"M={m} gives {values}"
                hit += 1
        assert hit >= 8

    @pytest.mark.parametrize("s", [3, 5, 7, 15])
    def test_single_cell_represents_coprime_values(self, s):
        sg = build_sgenus(s)
        rows = [weighted_coefficients(tg, 500) for tg in sg.tg]
        for m in range(1, 500):
            if m % 4 in (1, 2) and gcd(s, m) == 1:
                nonzero = sum(1 for row in rows if row[m])
                assert nonzero <= 1, f"M={m}"
