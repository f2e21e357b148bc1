"""Every name in the ``__all__`` of a ``thetaforms`` module exists.

A stale entry makes ``from thetaforms.<module> import *`` raise
AttributeError, which no other test would notice.
"""

import importlib
from pathlib import Path

import pytest

import thetaforms

MODULES = sorted(f"thetaforms.{path.stem}"
                 for path in Path(thetaforms.__file__).parent.glob("*.py"))


def test_modules_found():
    assert {"thetaforms.genus", "thetaforms.prover"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
