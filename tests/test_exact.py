"""The package computes with integers and fractions only.

Every module of ``thetaforms`` is parsed, and the test fails on a float
literal, a ``float(...)`` call, a true division ``/`` or ``/=``, or a use
of ``math.log``, ``math.sqrt``, ``math.exp`` or ``math.pow``.  The one
exception is the timing of ``VerifyResult.elapsed_ms``, which no verdict
reads.
"""

import ast
from pathlib import Path

import thetaforms

SOURCES = sorted(Path(thetaforms.__file__).parent.glob("*.py"))
FLOAT_MATH = {"log", "sqrt", "exp", "pow"}

# elapsed_ms: its 0.0 default and the seconds-to-ms scale
ALLOWED = [("identities.py", "float literal 0.0"),
           ("identities.py", "float literal 1000.0")]


def inexact(node: ast.AST) -> str | None:
    """What makes node a floating-point construct, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value,
                                                     (float, complex)):
        return f"float literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op,
                                                                   ast.Div):
        return "true division"
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id == "float":
            return "float()"
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id == "math" and f.attr in FLOAT_MATH):
            return f"math.{f.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted(FLOAT_MATH & {alias.name for alias in node.names})
        if names:
            return f"from math import {', '.join(names)}"
    return None


def findings(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(path.name, what) for node in ast.walk(tree)
            if (what := inexact(node))]


def test_sources_found():
    assert {"series.py", "identities.py", "prover.py"} <= {
        p.name for p in SOURCES}


def test_no_floating_point_in_the_package():
    found = [f for path in SOURCES for f in findings(path)]
    assert sorted(found) == sorted(ALLOWED)


def test_scan_sees_each_construct():
    source = ("import math\nfrom math import sqrt, gcd\n"
              "x = 0.5\ny = float(2)\nz = 1 / 2\nz /= 3\n"
              "w = math.log(2)\nv = 1 // 2\n")
    tree = ast.parse(source)
    assert sorted(filter(None, map(inexact, ast.walk(tree)))) == sorted([
        "from math import sqrt", "float literal 0.5", "float()",
        "true division", "true division", "math.log"])
