"""The library computes in exact rationals: no source file uses floating point."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "simulgame").glob("*.py"))
MATH_ALLOWED = {"gcd", "lcm"}


def _float_uses(tree: ast.AST) -> list[str]:
    """Float literals, calls to ``float`` and ``math`` imports beyond gcd and lcm."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: floating-point literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: call to float")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"line {node.lineno}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            extra = {a.name for a in node.names} - MATH_ALLOWED
            if extra:
                found.append(f"line {node.lineno}: from math import {', '.join(sorted(extra))}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert _float_uses(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_each_kind():
    text = "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(1)\nz = 2j\n"
    assert len(_float_uses(ast.parse(text))) == 5
