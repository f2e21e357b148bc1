import json
import os
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from thetaforms import theta
from thetaforms.identities import eval_series, parse_expression
from thetaforms.series import Series, _nonzero, invert
from thetaforms.theta import (EtaQuotient, euler, euler_power,
                              expand_eta_quotient, general_theta,
                              named_function)
from oracles import (THETA_PAIRS, expand_eta_quotient_by_products,
                     named_theta_by_composition)

ROOT = Path(__file__).resolve().parents[1]


def product_form(x, y, n):
    """Triple-product expansion (-q^x; q^{x+y}) (-q^y; q^{x+y}) (q^{x+y}; q^{x+y})."""
    step = x + y
    out = Series.one(n)
    j = 0
    while True:
        done = True
        for start in (x, y):
            e = start + j * step
            if e < n:
                out = out * Series([1] + [0] * (e - 1) + [1] + [0] * (n - e - 1))
                done = False
        e = (j + 1) * step
        if e < n:
            out = out * Series([1] + [0] * (e - 1) + [-1] + [0] * (n - e - 1))
            done = False
        if done:
            return out
        j += 1


class TestGeneralTheta:
    def test_phi(self):
        assert general_theta(1, 1, 10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)

    def test_psi(self):
        assert general_theta(1, 3, 11).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)

    def test_cubic_theta(self):
        assert general_theta(1, 2, 8).coeffs == (1, 1, 1, 0, 0, 1, 0, 1)

    def test_sextic_theta_support(self):
        out = general_theta(1, 5, 40)
        support = {i for i, c in enumerate(out.coeffs) if c}
        assert support == {k * (3 * k + 2) for k in range(-4, 4)
                           if 0 <= k * (3 * k + 2) < 40}

    def test_rejects_zero_pair(self):
        with pytest.raises(ValueError):
            general_theta(0, 0, 5)

    def test_rejects_sign_two(self):
        with pytest.raises(ValueError, match=r"^signs must be \+1 or -1$"):
            general_theta(1, 1, 5, 2)

    @pytest.mark.parametrize("x,y", [(1, 1), (1, 3), (1, 2), (1, 5)])
    def test_triple_product(self, x, y):
        n = 200
        assert general_theta(x, y, n) == product_form(x, y, n)

    def test_signed_arguments(self):
        # f(-q, -q^5) carries (-1)^{n^2} on exponent n(3n+2)
        n = 60
        signed = general_theta(1, 5, n, -1, -1)
        expected = [0] * n
        for k in range(-10, 11):
            e = k * (3 * k + 2)
            if 0 <= e < n:
                expected[e] += (-1) ** (k * k)
        assert signed.coeffs == tuple(expected)


class TestEuler:
    def test_small_expansion(self):
        assert euler(6).coeffs == (1, -1, -1, 0, 0, 1)

    def test_constant_coefficient(self):
        assert euler(50).coeffs[0] == 1

    def test_matches_explicit_product(self):
        n = 300
        explicit = Series.one(n)
        for j in range(1, n):
            factor = [0] * n
            factor[0] = 1
            factor[j] = -1
            explicit = explicit * Series(factor)
        assert euler(n) == explicit

    def test_phi_product_formula(self):
        n = 300
        lhs = named_function("phi", n) * (euler(n) ** 2 * euler_power(4, n) ** 2)
        assert lhs == euler_power(2, n) ** 5


class TestNamedFunctions:
    def test_chi_decomposition(self):
        n = 300
        chi = named_function("chi", n)
        rhs = (named_function("phi", n, 4) * named_function("phi", n, 20)
               + 4 * Series.monomial(6, n) * named_function("psi", n, 8)
               * named_function("psi", n, 40))
        assert chi == rhs

    def test_u_decomposition(self):
        n = 300
        u = named_function("u", n)
        rhs = (named_function("phi", n, 3) * named_function("phi", n, 42)
               + 2 * Series.monomial(5, n) * general_theta(1, 5, n)
               * general_theta(14, 70, n))
        assert u == rhs

    def test_phi_dissection(self):
        n = 300
        phi = named_function("phi", n)
        rhs = (named_function("phi", n, 4)
               + 2 * Series.monomial(1, n) * named_function("psi", n, 8))
        assert phi == rhs

    def test_fourth_power_dissection(self):
        n = 300
        phi = named_function("phi", n)
        phin = named_function("phi", n, 1, True)
        lhs = phi ** 4 - phin ** 4
        rhs = 16 * Series.monomial(1, n) * named_function("psi", n, 2) ** 4
        assert lhs == rhs

    def test_negated_odd_power(self):
        # psi at -q^3 equals the alternate-sign base spread by 3
        from thetaforms.series import alternate_sign, compose_power
        n = 100
        direct = named_function("psi", n, 3, True)
        via_ops = compose_power(alternate_sign(named_function("psi", n)), 3)
        assert direct == via_ops

    @pytest.mark.parametrize("name, form", [("chi", (4, 4, 6)),
                                            ("u", (3, 2, 5))])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_binary_builtin_at_negated_power(self, name, form, p):
        # chi and u at -q^p against the lattice sum of (-q^p)^Q(x, y);
        # both forms have Q >= 2(x^2 + y^2), so |x|, |y| <= 5 hold Q < 60
        n = 60
        a, b, c = form
        expected = [0] * n
        for x in range(-6, 7):
            for y in range(-6, 7):
                value = a * x * x + b * x * y + c * y * y
                if p * value < n:
                    expected[p * value] += (-1) ** value
        assert named_function(name, n, p, True).coeffs == tuple(expected)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_function("nope", 10)

    def test_power_below_one(self):
        with pytest.raises(ValueError, match="^power must be >= 1$"):
            named_function("phi", 10, power=0)


class TestThetaRouting:
    """phi, psi, f12, f15 and E at (+-)q^p are one general_theta call each,
    at (x*p, y*p) with the signs of q -> -q^p, and so one cached series."""

    @pytest.mark.parametrize("name", [*sorted(THETA_PAIRS), "E"])
    def test_matches_composition(self, name):
        for n in (0, 1, 2, 17, 500, 4001):
            for p in range(1, 17):
                for negate in (False, True):
                    assert (named_function(name, n, p, negate)
                            == named_theta_by_composition(name, n, p, negate))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 600),
           st.sampled_from((1, -1)), st.sampled_from((1, -1)))
    def test_k_bound_matches_brute_walk(self, x, y, n, sx, sy):
        assume(x or y)
        # every exponent is at least |k| - 1, so |k| <= n + 1 covers all
        expected = [0] * n
        for k in range(-n - 2, n + 3):
            tx, ty = k * (k - 1) // 2, k * (k + 1) // 2
            if x * tx + y * ty < n:
                expected[x * tx + y * ty] += sx ** tx * sy ** ty
        out = general_theta(x, y, n, sx, sy)
        assert out.coeffs == tuple(expected)
        assert out._support == _nonzero(out.coeffs)

    @pytest.mark.parametrize("name", sorted(theta._THETA_PAIRS))
    def test_support_is_handed_over(self, name):
        # every factor leaves the builder with its exact support, so no
        # product has to scan it
        for n in (0, 1, 2, 17, 500, 4001):
            for p in range(1, 17):
                for negate in (False, True):
                    out = named_function(name, n, p, negate)
                    assert out._support == _nonzero(out.coeffs)

    def test_cancelled_terms_leave_the_support(self):
        # in f(q, -q) the terms of k and -k cancel at every odd square k^2
        for n in (0, 1, 2, 17, 500, 4001):
            out = general_theta(1, 1, n, 1, -1)
            assert out._support == _nonzero(out.coeffs)
            assert out._support == [k * k for k in range(0, n, 2)
                                    if k * k < n]

    def test_one_object_per_factor(self):
        n = 300
        assert named_function("phi", n, 7) is named_function("phi", n, 7, False)
        assert named_function("phi", n) is general_theta(1, 1, n, 1, 1)
        assert eval_series(parse_expression("f(q,q)"), n) is named_function(
            "phi", n)
        assert eval_series(parse_expression("f(-q^3,q^6)"), n) is (
            named_function("f12", n, 3, True))
        for p in (1, 2, 7):
            assert named_function("E", n, p) is general_theta(
                p, 2 * p, n, -1, -1)
            assert euler_power(p, n) is named_function("E", n, p)


# The 12 operations of the positivity-long workload, in a fresh interpreter:
# each positivity entry at 40 000 terms, then each CLI scan; then the cache
# sizes and the 40 000-term series still alive, which only caches hold.
_CACHE_PIN = """
import contextlib, gc, io, json
from thetaforms import cli, identities, theta
from thetaforms.series import Series
registry = identities.load_default_registry()
for name in sorted(registry):
    if registry[name].mode == "positivity":
        identities.verify_entry(registry[name], limit=40000)
for s in (3, 5, 7, 15):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["positivity", "--s", str(s), "--limit", "40000"])
gc.collect()
print(json.dumps([theta.general_theta.cache_info().currsize,
                  theta.named_function.cache_info().currsize,
                  sum(type(o) is Series and o.truncation == 40000
                      for o in gc.get_objects())]))
"""


class TestThetaCachePin:
    """The cached series that the long positivity scans leave behind: one
    general_theta entry per factor, so a call shape that builds a second
    copy of a factor shows here."""

    def test_positivity_scans_cache_entries(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", _CACHE_PIN],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        # 8 factors: phi and psi at q, phi at q^3, q^5, q^7 and q^15, and
        # psi at q^2 and q^6; the entries and the CLI scans reach them
        # through the evaluator's 8 call shapes of named_function.  The
        # only other 40 000-term series kept are the two leaf powers of
        # the last scan, phi(q)^2 and phi(q^15)^2
        assert json.loads(proc.stdout.splitlines()[-1]) == [8, 8, 10]


# the two proved eta identities, as (exponent-map, theta-term) pairs
LEVEL84_QUOTIENTS = [
    ({14: 10, 4: 4, 1: 4, 28: -4, 7: -4, 2: -10},
     lambda n: named_function("psi", n) * named_function("phi", n, 7) ** 2,
     0),
    ({14: 7, 4: 6, 1: 5, 28: -2, 7: -3, 2: -13},
     lambda n: (named_function("psi", n, 2) * named_function("psi", n, 7)
                * named_function("phi", n, 7)),
     1),
    ({42: 5, 28: 2, 6: 2, 4: 4, 1: 5, 84: -2, 21: -2, 14: -1, 3: -1, 2: -12},
     lambda n: (named_function("psi", n, 3) * named_function("psi", n, 14)
                * named_function("phi", n, 21)),
     2),
    ({84: 1, 28: 1, 21: 1, 14: 1, 4: 4, 3: 2, 1: 4, 42: -1, 7: -1, 6: -1, 2: -11},
     lambda n: (named_function("psi", n, 14) * general_theta(1, 2, n)
                * general_theta(7, 35, n)),
     4),
]

LEVEL360_QUOTIENTS = [
    ({30: 10, 4: 4, 1: 4, 60: -4, 15: -4, 2: -10},
     lambda n: named_function("psi", n) * named_function("phi", n, 15) ** 2, 0),
    ({30: 2, 20: 2, 6: 5, 4: 4, 1: 5, 15: -1, 12: -2, 10: -1, 3: -2, 2: -12},
     lambda n: (named_function("psi", n, 10) * named_function("psi", n, 15)
                * named_function("phi", n, 3)), 3),
    ({60: 2, 10: 5, 6: 2, 4: 4, 1: 5, 30: -1, 20: -2, 5: -2, 3: -1, 2: -12},
     lambda n: (named_function("psi", n, 3) * named_function("psi", n, 30)
                * named_function("phi", n, 5)), 4),
    ({60: 2, 12: 2, 10: 2, 4: 4, 1: 5, 30: -1, 6: -1, 5: -1, 2: -12},
     lambda n: (named_function("psi", n, 5) * named_function("psi", n, 6)
                * named_function("psi", n, 30)), 5),
    ({90: 10, 18: 2, 4: 4, 1: 5, 180: -4, 45: -4, 9: -1, 2: -12},
     lambda n: named_function("psi", n, 9) * named_function("phi", n, 45) ** 2, 1),
    ({180: 2, 45: 2, 30: 4, 18: 2, 4: 4, 1: 5, 90: -2, 60: -2, 15: -2, 9: -1, 2: -12},
     lambda n: named_function("psi", n, 9) * general_theta(15, 75, n) ** 2, 11),
    ({90: 4, 30: 2, 9: 2, 6: 1, 4: 4, 1: 5, 180: -1, 60: -1, 45: -1, 18: -1,
      15: -1, 3: -1, 2: -12},
     lambda n: (named_function("phi", n, 45) * general_theta(3, 6, n)
                * general_theta(15, 75, n)), 5),
    ({180: 2, 45: 2, 30: 4, 9: 2, 6: 1, 4: 4, 1: 5, 90: -2, 60: -2, 18: -1,
      15: -2, 3: -1, 2: -12},
     lambda n: general_theta(3, 6, n) * general_theta(15, 75, n) ** 2, 10),
    ({30: 7, 4: 6, 1: 5, 60: -2, 15: -3, 2: -13},
     lambda n: (named_function("psi", n, 2) * named_function("psi", n, 15)
                * named_function("phi", n, 15)), 2),
    ({120: 2, 12: 5, 10: 2, 4: 4, 1: 5, 60: -1, 24: -2, 6: -2, 5: -1, 2: -12},
     lambda n: (named_function("psi", n, 5) * named_function("psi", n, 60)
                * named_function("phi", n, 6)), 8),
    ({60: 5, 24: 2, 10: 2, 4: 4, 1: 5, 120: -2, 30: -2, 12: -1, 5: -1, 2: -12},
     lambda n: (named_function("psi", n, 5) * named_function("psi", n, 12)
                * named_function("phi", n, 30)), 2),
]


@st.composite
def _eta_exponents(draw):
    """{delta: r} with delta <= 12 and |r| <= 6 whose sum of delta * r is
    divisible by 24: r_1 and the parity of r_12 are chosen last to make it
    so (12 * r_12 adds 12 mod 24 when r_12 is odd)."""
    exps = {d: draw(st.integers(-6, 6))
            for d in draw(st.sets(st.integers(2, 11), max_size=5))}
    x = -sum(d * r for d, r in exps.items()) % 24
    odd = 7 <= x <= 17
    exps[1] = x - 12 if odd else (x if x <= 6 else x - 24)
    exps[12] = draw(st.sampled_from(range(-5 if odd else -6, 7, 2)))
    return exps


class TestEtaQuotients:
    def test_requires_divisors_of_level(self):
        with pytest.raises(ValueError):
            EtaQuotient.from_dict(84, {5: 1, 1: -1})

    def test_trivial_quotient(self):
        offset, s = expand_eta_quotient(EtaQuotient.from_dict(6, {}), 8)
        assert offset == 0 and s == Series.one(8)

    @pytest.mark.parametrize("level, exps", [
        (1, {1: 24}), (1, {1: -24}), (2, {1: 8, 2: 8}), (2, {1: -8, 2: -8}),
        (2, {1: -24, 2: 24}), (84, LEVEL84_QUOTIENTS[0][0]),
        (360, LEVEL360_QUOTIENTS[0][0])])
    def test_unit_part_is_the_product_from_one(self, level, exps):
        n = 60
        num = den = Series.one(n)
        for delta, r in exps.items():
            for _ in range(abs(r)):
                if r > 0:
                    num = num * euler_power(delta, n)
                else:
                    den = den * euler_power(delta, n)
        eq = EtaQuotient.from_dict(level, exps)
        assert expand_eta_quotient(eq, n)[1] == num * invert(den)

    @pytest.mark.parametrize("n", [0, 1, 2, 91, 200])
    def test_shipped_quotients_match_the_product_oracle(self, n):
        from thetaforms.identities import (_eta_combination,
                                           load_default_registry)
        registry = load_default_registry()
        quotients = [eq for name in ("4.1", "5.4")
                     for _, eq in _eta_combination(registry[name]).terms]
        assert len(quotients) == 15
        for eq in quotients:
            assert (expand_eta_quotient(eq, n)
                    == expand_eta_quotient_by_products(eq, n)), eq

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(exps=_eta_exponents(), n=st.integers(0, 120))
    def test_drawn_quotients_match_the_product_oracle(self, exps, n):
        eq = EtaQuotient.from_dict(lcm(*exps), exps)
        assert (expand_eta_quotient(eq, n)
                == expand_eta_quotient_by_products(eq, n))

    def test_inexact_recurrence_step_raises(self):
        # q a'/a = q has no integer solution: a_2 would be 1/2
        assert theta._from_log_derivative([0, 1]) == [1, 1]
        with pytest.raises(ArithmeticError, match="step 2"):
            theta._from_log_derivative([0, 1, 0])

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_eta_series_is_the_unit_at_its_offset(self, n, monkeypatch):
        expand = theta.expand_eta_quotient
        lengths = []

        def recorded(eq, m):
            lengths.append(m)
            return expand(eq, m)

        monkeypatch.setattr(theta, "expand_eta_quotient", recorded)
        for offset in range(n + 3):
            # sum(delta * r) = 24 * offset - 8 + 8
            eq = EtaQuotient.from_dict(2, {1: 24 * offset - 8, 2: 4})
            assert expand(eq, n)[0] == offset
            assert (theta.eta_series(eq, n)
                    == Series.monomial(offset, n) * expand(eq, n)[1])
        assert lengths and max(lengths) <= n

    def test_eta_series_refuses_a_pole(self):
        eq = EtaQuotient.from_dict(2, {1: 24, 2: -24})
        with pytest.raises(ValueError) as info:
            theta.eta_series(eq, 10)
        assert str(info.value) == (
            "quotient eta{1:24,2:-24} has a pole at infinity (offset -1)")

    def test_rejects_nonintegral_offset(self):
        with pytest.raises(ValueError):
            expand_eta_quotient(EtaQuotient.from_dict(2, {1: 1, 2: -1}), 10)

    def test_leading_unit(self):
        eq = EtaQuotient.from_dict(84, LEVEL84_QUOTIENTS[0][0])
        offset, s = expand_eta_quotient(eq, 16)
        assert offset == 0 and s.coeffs[0] == 1

    def test_q_prefactor_multiplier_series(self):
        # q^2 E(q^28) E(q^14) E(q^2)^2 / (E(q^7) E(q^4)^2 E(q)): the explicit
        # q^2 is part of the definition (the bare product is not 24-normalized,
        # so expand_eta_quotient rejects it)
        n = 100
        with pytest.raises(ValueError):
            expand_eta_quotient(
                EtaQuotient.from_dict(28, {28: 1, 14: 1, 2: 2, 7: -1, 4: -2, 1: -1}),
                n)
        num = euler_power(28, n) * euler_power(14, n) * euler_power(2, n) ** 2
        den = euler_power(7, n) * euler_power(4, n) ** 2 * euler_power(1, n)
        c_series = Series.monomial(2, n) * num * invert(den)
        assert c_series.coeffs[2] == 1 and not any(c_series.coeffs[:2])

    @pytest.mark.parametrize("index", range(len(LEVEL84_QUOTIENTS)))
    def test_level84_quotients_match_theta_terms(self, index):
        exps, theta_term, expected_offset = LEVEL84_QUOTIENTS[index]
        n = 120
        offset, s = expand_eta_quotient(EtaQuotient.from_dict(84, exps), n)
        assert offset == expected_offset
        base = named_function("psi", n) * named_function("phi", n) ** 2
        assert s * base == theta_term(n)

    @pytest.mark.parametrize("index", range(len(LEVEL360_QUOTIENTS)))
    def test_level360_quotients_match_theta_terms(self, index):
        exps, theta_term, expected_offset = LEVEL360_QUOTIENTS[index]
        n = 120
        offset, s = expand_eta_quotient(EtaQuotient.from_dict(360, exps), n)
        assert offset == expected_offset
        base = named_function("psi", n) * named_function("phi", n) ** 2
        assert s * base == theta_term(n)
