"""Every name in the ``__all__`` of a ``thetaforms`` module exists, and no
module imports another's private names.

A stale entry makes ``from thetaforms.<module> import *`` raise
AttributeError, which no other test would notice.  A private name, one
with a leading underscore that is not a dunder, stays in its module: a
relative ``from .module import _name`` fails the second test, so a detail
such as the packed series codec has one owner.  Attribute use such as
``Series._raw`` is not an import and is not checked.
"""

import ast
import importlib
from pathlib import Path

import pytest

import thetaforms

SOURCES = sorted(Path(thetaforms.__file__).parent.glob("*.py"))
MODULES = [f"thetaforms.{path.stem}" for path in SOURCES]


def test_modules_found():
    assert {"thetaforms.genus", "thetaforms.prover"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def private_imports(source: str) -> list[str]:
    """The private names that source imports relatively, as module.name."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not (
                alias.name.startswith("__") and alias.name.endswith("__"))]


def test_no_private_names_cross_a_module():
    found = {path.name: names for path in SOURCES
             if (names := private_imports(path.read_text()))}
    assert found == {}


def test_scan_sees_each_private_import():
    source = ("from .series import Series, _pack, __version__\n"
              "from .forms import _tally as tally\n"
              "from series import _layout\n"
              "from . import __all__\n")
    assert private_imports(source) == ["series._pack", "forms._tally"]
