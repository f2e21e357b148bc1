"""End-to-end acceptance suite.

Each test covers one shipping criterion at its full stated scale and prints
a single summary line; run with ``pytest tests/test_acceptance.py -s`` to
see them.  Expansions are exact everywhere, so every comparison below is
equality, not tolerance.
"""

import time

import pytest

from thetaforms.arith import divisors
from thetaforms.forms import TernaryForm, aut_count
from thetaforms.genus import (build_sgenus, genus_partition,
                              mass_direct, mass_formula, orthogonality_check,
                              sgenus_mass)
from thetaforms.identities import (_eta_combination, load_default_registry,
                                   verify_eta, verify_modeq3,
                                   verify_positivity, verify_series,
                                   verify_ternary)
from thetaforms.prover import cusp_reps, ligozat_order
from thetaforms.series import is_nonnegative
from thetaforms.theta import named_function


@pytest.fixture(scope="module")
def registry():
    return load_default_registry()


def report(num, text):
    print(f"[criterion {num}] {text}: PASS")


# per-cusp data for the level-84 identity: denominator -> (O1..O4, bound)
TABLE_LEVEL84 = {
    1: (0, 0, 0, 0, 0),
    2: (-9, -12, -12, -12, -12),
    3: (0, 0, 0, 5, 0),
    4: (0, 3, -1, -1, -1),
    6: (-3, -4, -1, -4, -4),
    7: (0, 0, 0, 0, 0),
    12: (0, 1, 2, 0, 0),
    14: (9, 6, 0, 0, 0),
    21: (0, 0, 0, 3, 0),
    28: (0, 3, 5, 5, 0),
    42: (3, 2, 5, 0, 0),
}

# per-cusp bounds for the level-360 identity, keyed by denominator
TABLE_LEVEL360 = {
    1: 0, 2: -54, 3: 0, 4: -5, 5: 0, 6: -6, 8: -5, 9: 0, 10: -6, 12: 0,
    15: 0, 18: -6, 20: -1, 24: 0, 30: 0, 36: 0, 40: -1, 45: 0, 60: 0,
    72: 0, 90: 0, 120: 0, 180: 0,
}

SERIES_IDS = [
    "1.7", "1.8", "1.9", "1.10", "1.11", "1.14", "1.15",
    "2.4", "2.5", "2.9", "2.10", "2.29", "2.32", "2.d1", "2.d2",
    "3.5", "3.6", "3.13", "3.u1", "3.u2", "3.u3", "3.u4",
    "4.2", "4.3", "4.13", "4.14", "4.u1", "4.u2", "4.u3", "4.u4",
    "5.3", "5.6", "5.7", "5.8",
]

SIFT_IDS = [
    "2.14", "2.15", "2.16", "2.17", "2.19a", "2.19b",
    "2.22", "2.23", "2.24", "2.25", "2.26", "2.27", "2.s24",
    "3.4", "3.4a", "3.4b", "3.4c", "3.4d", "3.s40",
    "4.12", "4.15", "4.16", "4.17", "4.s56a", "4.s56b", "4.s56c", "4.s56d",
]

TERNARY_IDS = [
    "1.16", "1.17", "c1.3a", "c1.3b", "c1.4a", "c1.4b",
    "2.18", "2.20", "2.21", "2.30", "2.33", "2.34", "2.35a", "2.35b",
    "2.36", "2.37",
    "3.2", "3.3", "3.14", "3.15",
    "4.18", "4.19", "4.w1", "4.w2",
    "5.1", "5.2", "5.9", "5.10", "5.11",
    "5.12.w1", "5.12.w3", "5.12.w5", "5.12.w15",
    "5.13.w1", "5.13.w3", "5.13.w5", "5.13.w15",
    "6.8.s3", "6.8.s5", "6.8.s7", "6.8.s15",
    "6.9.s3.w3", "6.9.s5.w5", "6.9.s7.w7",
    "6.9.s15.w3", "6.9.s15.w5", "6.9.s15.w15",
]

MODEQ_IDS = ["2.7", "2.28", "2.31", "2.m1", "2.m2"]

MASS_SHIFTS = (3, 5, 7, 11, 13, 15, 21, 33, 35)


def test_criterion_1_level84_proof(registry):
    start = time.perf_counter()
    cert = verify_eta(registry["4.1"]).detail
    elapsed = time.perf_counter() - start
    assert cert.level == 84
    assert len(cusp_reps(84)) == 12
    comb = _eta_combination(registry["4.1"])
    quotients = [eq for _, eq in comb.terms]
    assert len(cert.cusp_bounds) == 11
    for cusp, bound in cert.cusp_bounds:
        o_cols = TABLE_LEVEL84[cusp.denominator]
        for eq, expected in zip(quotients, o_cols[:4]):
            assert ligozat_order(eq, cusp) == expected
        assert bound == o_cols[4]
    assert cert.valence_bound == 17
    assert cert.coefficients_checked == 18
    assert cert.verdict == "proved"
    report(1, f"level 84 certificate (B=17, 18 coefficients, {elapsed:.2f}s)")


def test_criterion_2_level360_proof(registry):
    start = time.perf_counter()
    cert = verify_eta(registry["5.4"]).detail
    elapsed = time.perf_counter() - start
    assert cert.level == 360
    assert len(cusp_reps(360)) == 32
    assert len(cert.cusp_bounds) == 31
    for cusp, bound in cert.cusp_bounds:
        assert bound == TABLE_LEVEL360[cusp.denominator], str(cusp)
    assert cert.valence_bound == 90
    assert cert.coefficients_checked == 91
    assert cert.verdict == "proved"
    report(2, f"level 360 certificate (B=90, 91 coefficients, {elapsed:.2f}s)")


def test_criterion_3_series_suite(registry):
    start = time.perf_counter()
    for name in SERIES_IDS:
        result = verify_series(registry[name], 500)
        assert result.passed, f"{name}: {result.witness}"
    elapsed = time.perf_counter() - start
    report(3, f"{len(SERIES_IDS)} series identities at 500 terms "
              f"({elapsed:.1f}s)")


def test_criterion_4_sift_suite(registry):
    start = time.perf_counter()
    for name in SIFT_IDS:
        result = verify_series(registry[name], 500)
        assert result.passed, f"{name}: {result.witness}"
    elapsed = time.perf_counter() - start
    report(4, f"{len(SIFT_IDS)} sift identities at 500 terms ({elapsed:.1f}s)")


def test_criterion_5_ternary_suite(registry):
    start = time.perf_counter()
    for name in TERNARY_IDS:
        result = verify_ternary(registry[name], 10000)
        assert result.passed, f"{name}: {result.witness}"
    elapsed = time.perf_counter() - start
    report(5, f"{len(TERNARY_IDS)} counting identities for M <= 10^4 "
              f"({elapsed:.1f}s)")


def test_criterion_6_positivity(registry):
    for name in ("2.11", "3.1", "1.13", "5.p1"):
        result = verify_positivity(registry[name], 1000)
        assert result.passed, name
    # direct construction for each shift
    for s in (3, 5, 7, 15):
        n = 1000
        psi = named_function("psi", n)
        phi = named_function("phi", n)
        phis = named_function("phi", n, s)
        ok, _ = is_nonnegative(psi * (phi * phi - phis * phis))
        assert ok, s
    neg1 = verify_positivity(registry["ctl.phi7"], 1000)
    assert neg1.passed and "exponent 7" in neg1.witness
    neg2 = verify_positivity(registry["ctl.psi6"], 1000)
    assert neg2.passed and "exponent 1" in neg2.witness
    report(6, "four positivity scans to 1000 terms plus both negative "
              "controls with witnesses 7 and 1")


def test_criterion_7_genus_structure():
    def cells(disc):
        return {tuple(sorted(f.sextuple() for f in rec.classes))
                for rec in genus_partition(disc)}

    c144 = cells(144)
    assert ((1, 6, 6, 0, 0, 0),) in c144
    assert ((2, 3, 6, 0, 0, 0),) in c144
    c400 = cells(400)
    assert ((1, 10, 10, 0, 0, 0), (4, 5, 6, 0, 4, 0)) in c400
    assert ((2, 5, 10, 0, 0, 0),) in c400
    c784 = cells(784)
    assert ((1, 14, 14, 0, 0, 0), (2, 7, 14, 0, 0, 0)) in c784
    assert ((3, 5, 14, 0, 0, 2),) in c784

    expected_orders = {
        (1, 6, 6, 0, 0, 0): 16, (2, 3, 6, 0, 0, 0): 8,
        (1, 10, 10, 0, 0, 0): 16, (4, 5, 6, 0, 4, 0): 8,
        (2, 5, 10, 0, 0, 0): 8,
        (1, 14, 14, 0, 0, 0): 16, (2, 7, 14, 0, 0, 0): 8,
        (3, 5, 14, 0, 0, 2): 4,
        (1, 30, 30, 0, 0, 0): 16, (6, 10, 15, 0, 0, 0): 8,
        (3, 10, 30, 0, 0, 0): 8, (5, 6, 30, 0, 0, 0): 8,
        (2, 15, 30, 0, 0, 0): 8, (5, 12, 18, 12, 0, 0): 8,
        (9, 11, 11, 2, 6, 6): 4,
    }
    for sextuple, order in expected_orders.items():
        assert aut_count(TernaryForm(*sextuple)) == order, sextuple

    sg = build_sgenus(15)
    got = {tuple(sorted(f.sextuple() for f in tg.classes)) for tg in sg.tg}
    assert got == {
        ((1, 30, 30, 0, 0, 0), (6, 10, 15, 0, 0, 0)),
        ((3, 10, 30, 0, 0, 0),),
        ((5, 6, 30, 0, 0, 0), (9, 11, 11, 2, 6, 6)),
        ((2, 15, 30, 0, 0, 0), (5, 12, 18, 12, 0, 0)),
    }
    report(7, "genus contents at 144/400/784/3600, automorph orders, and "
              "the four lifted cells for S=15")


def test_criterion_8_masses():
    for s in MASS_SHIFTS:
        sg = build_sgenus(s)
        for tg in sg.tg:
            direct = mass_direct(tg)
            predicted = mass_formula(tg, s)
            assert direct == predicted, (s, str(tg), direct, predicted)
        assert sgenus_mass(sg) == s
        for w in divisors(s):
            if w >= 2:
                assert orthogonality_check(sg, w), (s, w)
    report(8, f"mass agreement, union mass = S, and character orthogonality "
              f"for S in {MASS_SHIFTS}")


def test_criterion_9_degree3_equations(registry):
    for name in MODEQ_IDS:
        assert verify_modeq3(registry[name]).passed, name
        companion = registry[name].conditions.theta_ref
        assert companion, name
        assert verify_series(registry[companion], 300).passed, companion
    report(9, "five rational-function identities plus their series "
              "companions at 300 terms")
