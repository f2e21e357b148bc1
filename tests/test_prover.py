from fractions import Fraction
from math import gcd, lcm

import pytest

from thetaforms.arith import divisors, euler_phi, is_squarefree
from thetaforms.prover import (Cusp, EtaCombination, _expand_combination,
                               cusp_reps, ligozat_order, newman_check,
                               order_table, prove)
from thetaforms.theta import EtaQuotient
from oracles import cusp_equivalent, expand_combination_fractions

G1 = EtaQuotient.from_dict(84, {14: 10, 4: 4, 1: 4, 28: -4, 7: -4, 2: -10})
G2 = EtaQuotient.from_dict(84, {14: 7, 4: 6, 1: 5, 28: -2, 7: -3, 2: -13})
G3 = EtaQuotient.from_dict(84, {42: 5, 28: 2, 6: 2, 4: 4, 1: 5, 84: -2,
                                21: -2, 14: -1, 3: -1, 2: -12})
G4 = EtaQuotient.from_dict(84, {84: 1, 28: 1, 21: 1, 14: 1, 4: 4, 3: 2,
                                1: 4, 42: -1, 7: -1, 6: -1, 2: -11})


class TestNewman:
    def test_level84_quotients_pass(self):
        for eq in (G1, G2, G3, G4):
            report = newman_check(eq)
            assert report.passed, report

    def test_empty_quotient_passes(self):
        assert newman_check(EtaQuotient.from_dict(6, {})).passed

    def test_single_eta_fails_weight(self):
        report = newman_check(EtaQuotient.from_dict(1, {1: 1}))
        assert not report.weight_sum_zero
        assert not report.passed

    def test_square_condition(self):
        # delta-product of the first quotient is 7^2
        exps = {}
        for d, r in G1.exponents:
            n = d
            p = 2
            while n > 1:
                while n % p == 0:
                    exps[p] = exps.get(p, 0) + r
                    n //= p
                p += 1
        assert {p: e for p, e in exps.items() if e} == {7: 2}
        assert newman_check(G1).product_is_square

    def test_non_square_product_fails(self):
        bad = EtaQuotient.from_dict(24, {1: -3, 2: -3, 3: -3, 4: 3, 6: 3, 12: 3})
        report = newman_check(bad)
        assert report.weight_sum_zero
        assert report.delta_sum_divisible
        assert report.codelta_sum_divisible
        assert not report.product_is_square
        assert not report.passed


class TestCusps:
    def test_count_84(self):
        assert len(cusp_reps(84)) == 12

    def test_count_360(self):
        assert len(cusp_reps(360)) == 32

    def test_count_1(self):
        assert len(cusp_reps(1)) == 1

    def test_divisor_sum_formula(self):
        for n in range(1, 401):
            expected = sum(euler_phi(gcd(c, n // c)) for c in divisors(n))
            assert len(cusp_reps(n)) == expected

    def test_360_contains_split_denominators(self):
        reps = {(c.numerator, c.denominator) for c in cusp_reps(360)}
        for pair in ((1, 3), (2, 3), (1, 6), (5, 6), (1, 12), (5, 12),
                     (1, 15), (2, 15), (1, 24), (5, 24), (1, 30), (11, 30),
                     (1, 60), (11, 60), (1, 120), (11, 120), (1, 360)):
            assert pair in reps

    def test_reps_pairwise_inequivalent(self):
        for n in (24, 84, 90, 360):
            reps = cusp_reps(n)
            for i, c1 in enumerate(reps):
                for c2 in reps[i + 1:]:
                    assert not cusp_equivalent(n, c1, c2), (n, str(c1), str(c2))

    def test_unit_fraction_system_for_four_times_squarefree(self):
        # for 4n, n squarefree: {1/s : s | 4n} is a complete inequivalent set
        for n in range(1, 31):
            if not is_squarefree(n):
                continue
            level = 4 * n
            cusps = [Cusp(s, 1) for s in divisors(level)]
            for i, c1 in enumerate(cusps):
                for c2 in cusps[i + 1:]:
                    assert not cusp_equivalent(level, c1, c2)
            assert len(cusps) == len(cusp_reps(level))

    def test_reduced_fraction_required(self):
        with pytest.raises(ValueError):
            Cusp(6, 4)


class TestLigozat:
    def test_order_at_half(self):
        assert ligozat_order(G1, Cusp(2, 1)) == -9

    def test_order_at_fourteenth(self):
        assert ligozat_order(G3, Cusp(14, 1)) == 0

    def test_order_at_infinity_class(self):
        for eq in (G1, G2, G3, G4):
            assert ligozat_order(eq, Cusp(84, 1)) == \
                Fraction(eq.delta_weighted_sum, 24)

    def test_depends_only_on_denominator(self):
        assert ligozat_order(G2, Cusp(3, 1)) == ligozat_order(G2, Cusp(3, 2))


TABLE_84 = {
    1: (0, 0, 0, 0, 0),
    2: (-9, -12, -12, -12, -12),
    6: (-3, -4, -1, -4, -4),
    4: (0, 3, -1, -1, -1),
    12: (0, 1, 2, 0, 0),
    7: (0, 0, 0, 0, 0),
    42: (3, 2, 5, 0, 0),
    21: (0, 0, 0, 3, 0),
    3: (0, 0, 0, 5, 0),
    14: (9, 6, 0, 0, 0),
    28: (0, 3, 5, 5, 0),
}


def combination_84():
    return EtaCombination(84, ((Fraction(1), G1), (Fraction(4), G2),
                               (Fraction(8), G3), (Fraction(8), G4)),
                          Fraction(1))


class TestOrderTable:
    def test_reproduces_published_two_column_data(self):
        comb = combination_84()
        table = order_table(comb)
        for cusp, bound in table.items():
            if cusp.is_infinity(84):
                continue
            o1, o2, o3, o4, oh = TABLE_84[cusp.denominator]
            assert ligozat_order(G1, cusp) == o1
            assert ligozat_order(G2, cusp) == o2
            assert ligozat_order(G3, cusp) == o3
            assert ligozat_order(G4, cusp) == o4
            assert bound == oh

    def test_single_quotient_table(self):
        comb = EtaCombination(84, ((Fraction(1), G1),))
        table = order_table(comb)
        for cusp, bound in table.items():
            assert bound == ligozat_order(G1, cusp)


class TestProve:
    def test_level84_combination(self):
        cert = prove(combination_84())
        assert cert.proved
        assert cert.valence_bound == 17
        assert cert.coefficients_checked == 18
        assert len(cert.cusp_bounds) == 11

    def test_self_difference(self):
        comb = EtaCombination(84, ((Fraction(1), G1), (Fraction(-1), G1)))
        cert = prove(comb)
        assert cert.proved

    def test_refutation_reports_exponent(self):
        comb = EtaCombination(84, ((Fraction(1), G1), (Fraction(5), G2),
                                   (Fraction(8), G3), (Fraction(8), G4)),
                              Fraction(1))
        cert = prove(comb)
        assert not cert.proved
        assert cert.verdict.startswith("refuted at exponent")

    def test_precondition_failure_raises(self):
        bad = EtaQuotient.from_dict(2, {1: 1, 2: -1})  # weighted sum not 0 mod 24
        assert not newman_check(bad).delta_sum_divisible
        with pytest.raises(ValueError):
            prove(EtaCombination(2, ((Fraction(1), bad),)))

    def test_proved_combination_vanishes_later(self):
        # soundness spot check far beyond the certified window
        from thetaforms.identities import (_eta_combination,
                                           load_default_registry)
        from thetaforms.prover import _expand_combination
        comb = _eta_combination(load_default_registry()["4.1"])
        assert all(c == 0 for c in _expand_combination(comb, 500))

    def test_certificate_render_mentions_verdict(self):
        text = prove(combination_84()).render()
        assert "level 84" in text
        assert "verdict: proved" in text


@pytest.fixture(scope="module")
def shipped():
    """The combinations of the registry's eta entries 4.1 and 5.4."""
    from thetaforms.identities import _eta_combination, load_default_registry
    registry = load_default_registry()
    return {name: _eta_combination(registry[name]) for name in ("4.1", "5.4")}


class TestShippedInvariants:
    """Properties of the shipped proofs that `prove` does not itself rely on."""

    @pytest.mark.parametrize("name", ["4.1", "5.4"])
    def test_orders_sum_to_zero_over_the_cusps(self, shipped, name):
        # a modular function has as many zeros as poles
        comb = shipped[name]
        for _, eq in comb.terms:
            assert sum(ligozat_order(eq, cusp)
                       for cusp in cusp_reps(comb.level)) == 0, eq

    @pytest.mark.parametrize("name", ["4.1", "5.4"])
    def test_order_is_ligozat_sum_term_by_term(self, shipped, name):
        # Ligozat's formula read literally: a Fraction per eta factor
        comb = shipped[name]
        n = comb.level
        for _, eq in comb.terms:
            for cusp in cusp_reps(n):
                c = cusp.denominator
                total = sum(Fraction(r * gcd(c, d) ** 2, d)
                            for d, r in eq.exponents)
                assert ligozat_order(eq, cusp) == \
                    Fraction(n, 24 * gcd(n, c * c)) * total

    @pytest.mark.parametrize("name, index", [("4.1", i) for i in range(4)]
                             + [("5.4", i) for i in range(11)])
    def test_raised_coefficient_is_refuted_within_the_bound(self, shipped,
                                                             name, index):
        comb = shipped[name]
        terms = list(comb.terms)
        coeff, eq = terms[index]
        terms[index] = (coeff + 1, eq)
        cert = prove(EtaCombination(comb.level, tuple(terms), comb.constant))
        assert cert.verdict.startswith("refuted at exponent ")
        exponent = int(cert.verdict.rsplit(" ", 1)[1])
        assert exponent <= cert.valence_bound
        assert cert.valence_bound == prove(comb).valence_bound


def _first_nonzero(coeffs):
    return next((k for k, c in enumerate(coeffs) if c != 0), None)


def _rational_variants(comb):
    """comb scaled by 2/3, and comb with each term split in three parts,
    c/4 + 2c/3 + c/12 (least common denominator 12): both vanish exactly
    when comb does."""
    scale = Fraction(2, 3)
    scaled = EtaCombination(comb.level,
                            tuple((c * scale, eq) for c, eq in comb.terms),
                            comb.constant * scale)
    parts = (Fraction(1, 4), Fraction(2, 3), Fraction(1, 12))
    split = EtaCombination(comb.level,
                           tuple((c * p, eq) for c, eq in comb.terms
                                 for p in parts), comb.constant)
    return scaled, split


class TestIntegerExpansion:
    """The prover expands over one common denominator, in integers; the
    Fraction expansion of the oracle decides the same verdict at the same
    exponent."""

    def cases(self, shipped):
        for name in ("4.1", "5.4"):
            comb = shipped[name]
            yield comb
            yield from _rational_variants(comb)
            terms = list(comb.terms)
            coeff, eq = terms[1]
            terms[1] = (coeff + Fraction(1, 7), eq)
            yield EtaCombination(comb.level, tuple(terms), comb.constant)
            yield EtaCombination(comb.level, comb.terms,
                                 comb.constant - Fraction(1, 3))

    def test_verdict_and_exponent_match_fraction_oracle(self, shipped):
        verdicts = []
        for comb in self.cases(shipped):
            cert = prove(comb)
            n = cert.coefficients_checked
            ints = _expand_combination(comb, n)
            assert all(type(c) is int for c in ints)
            exact = expand_combination_fractions(comb, n)
            assert _first_nonzero(ints) == _first_nonzero(exact)
            k = _first_nonzero(exact)
            expected = "proved" if k is None else f"refuted at exponent {k}"
            assert cert.verdict == expected
            verdicts.append(cert.verdict)
        # the shipped and rational ones proved, the perturbed ones refuted
        assert [v == "proved" for v in verdicts] == [True] * 3 + [False] * 2 \
            + [True] * 3 + [False] * 2

    def test_integers_are_the_fractions_times_the_denominator(self, shipped):
        for comb in self.cases(shipped):
            den = lcm(comb.constant.denominator,
                      *(c.denominator for c, _ in comb.terms))
            ints = _expand_combination(comb, 60)
            assert ints == [den * c for c in
                            expand_combination_fractions(comb, 60)]
