"""Records are NamedTuples: immutable, hashed and ordered by their fields,
and the validating ones still check their fields on construction."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thetaforms.forms import BinaryForm, TernaryForm
from thetaforms.genus import GenusRecord
from thetaforms.identities import Conditions, Num, QPow, VerifyResult
from thetaforms.prover import Cusp, EtaCombination
from thetaforms.theta import EtaQuotient

ROOT = Path(__file__).resolve().parents[1]

FORM = TernaryForm(1, 1, 1, 0, 0, 0)
QUOTIENT = EtaQuotient(4, ((1, -2), (2, 5), (4, -2)))
RECORDS = [
    FORM,
    BinaryForm(1, 1, 2),
    Cusp(4, 1),
    QUOTIENT,
    EtaCombination(4, ((Fraction(1), QUOTIENT),)),
    GenusRecord(4, (FORM,)),
    Conditions(residues=(1,), modulus=4),
    Num(3),
    VerifyResult("x", "series", True, "terms=10"),
]


def test_import_path_leaves_out_dataclasses():
    # pytest itself imports dataclasses, so only a fresh interpreter can tell
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, thetaforms, thetaforms.cli; "
         "print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(record):
    copy = type(record)(*record)
    assert copy == record
    assert hash(copy) == hash(record) == hash(tuple(record))


def test_repr_reads_like_the_fields():
    assert repr(FORM) == "TernaryForm(a=1, b=1, c=1, d=0, e=0, f=0)"
    assert repr(Cusp(4, 1)) == "Cusp(denominator=4, numerator=1)"
    assert str(FORM) == "1,1,1,0,0,0"


def test_records_are_tuples_of_their_fields():
    assert FORM == (1, 1, 1, 0, 0, 0)
    assert len(FORM) == 6
    # records of one shape but two types compare as tuples do; no cache or
    # set mixes them
    assert Num(0) == QPow(0)
    assert TernaryForm(1, 1, 1, 0, 0, 0) != BinaryForm(1, 1, 1)


def test_forms_and_cusps_sort_in_field_order():
    forms = [TernaryForm(2, 2, 3, 2, 2, 2), TernaryForm(1, 2, 3, 0, 0, 0),
             TernaryForm(1, 1, 5, 0, 1, 1), TernaryForm(1, 1, 5, 0, 0, 1),
             TernaryForm(1, 1, 1, 0, 0, 0)]
    assert sorted(forms) == sorted(forms, key=lambda f: f.sextuple())
    assert [f.sextuple() for f in sorted(forms)] == [
        (1, 1, 1, 0, 0, 0), (1, 1, 5, 0, 0, 1), (1, 1, 5, 0, 1, 1),
        (1, 2, 3, 0, 0, 0), (2, 2, 3, 2, 2, 2)]
    cusps = [Cusp(4, 3), Cusp(2, 1), Cusp(4, 1), Cusp(1, 0)]
    assert sorted(cusps) == [Cusp(1, 0), Cusp(2, 1), Cusp(4, 1), Cusp(4, 3)]
    assert sorted([BinaryForm(2, 1, 3), BinaryForm(1, 1, 6),
                   BinaryForm(1, 0, 6)]) == [
        BinaryForm(1, 0, 6), BinaryForm(1, 1, 6), BinaryForm(2, 1, 3)]


def test_verify_result_defaults_and_replace():
    result = VerifyResult("x", "series", True, "terms=10")
    assert (result.witness, result.elapsed_ms, result.detail) == ("", 0.0, None)
    later = result._replace(elapsed_ms=2.5)
    assert later.elapsed_ms == 2.5 and result.elapsed_ms == 0.0
    assert later.row() == ("x", "series", "terms=10", "pass", "", "2")


@pytest.mark.parametrize("build, error, text", [
    (lambda: TernaryForm(1, 1, -1, 0, 0, 0), ValueError,
     "not positive definite"),
    (lambda: TernaryForm(1, 1, 1, 0, 0, 2), ValueError,
     "not positive definite"),
    (lambda: TernaryForm(1, 1, 1.0, 0, 0, 0), TypeError, "integers"),
    (lambda: BinaryForm(1, 2, 1), ValueError, "not positive definite"),
    (lambda: Cusp(6, 4), ValueError, "not a reduced cusp"),
    (lambda: Cusp(0, 1), ValueError, "not a reduced cusp"),
    (lambda: EtaQuotient(0, ()), ValueError, "level must be >= 1"),
    (lambda: EtaQuotient(4, ((3, 1),)), ValueError,
     "3 does not divide the level 4"),
    (lambda: EtaQuotient(4, ((2, 1), (2, -1))), ValueError,
     "duplicate divisor 2"),
    (lambda: EtaCombination(4, ()), ValueError, "at least one quotient"),
    (lambda: EtaCombination(8, ((Fraction(1), QUOTIENT),)), ValueError,
     "share the combination level"),
    (lambda: GenusRecord(4, ()), ValueError, "at least one class"),
])
def test_validating_constructors_raise(build, error, text):
    with pytest.raises(error, match=text):
        build()


def test_keyword_construction_validates():
    assert TernaryForm(a=1, b=1, c=1, d=0, e=0, f=0) == FORM
    comb = EtaCombination(level=4, terms=((Fraction(1), QUOTIENT),))
    assert comb.constant == 0
    with pytest.raises(ValueError):
        Cusp(denominator=2, numerator=2)
