"""The library computes in exact rationals: no source file uses floating
point.  Nor does any raise the recursion limit to get a deep game through,
or make an interned position anywhere but in ``position._interned``."""

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


def _recursion_limit_calls(tree: ast.AST) -> list[str]:
    """Calls to ``setrecursionlimit``, as ``sys.setrecursionlimit`` or imported."""
    return [
        f"line {node.lineno}: call to setrecursionlimit"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "setrecursionlimit" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]


def _object_new_calls(tree: ast.AST, module: str) -> list[str]:
    """Calls to ``object.__new__`` outside ``position._interned``, the one
    maker of strips, sums and explicit games."""
    maker = [
        node for node in ast.walk(tree)
        if module == "position" and isinstance(node, ast.FunctionDef) and node.name == "_interned"
    ]
    inside = {id(node) for root in maker for node in ast.walk(root)}
    return [
        f"line {node.lineno}: call to object.__new__"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in inside
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert _float_uses(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_each_kind():
    text = "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(1)\nz = 2j\n"
    assert len(_float_uses(ast.parse(text))) == 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursion_limit_change(path):
    assert _recursion_limit_calls(ast.parse(path.read_text(), str(path))) == []


def test_recursion_limit_guard_catches_both_spellings():
    text = "import sys\nsys.setrecursionlimit(10**6)\nfrom sys import setrecursionlimit\nsetrecursionlimit(5)\n"
    assert len(_recursion_limit_calls(ast.parse(text))) == 2


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_interned_makes_positions(path):
    assert _object_new_calls(ast.parse(path.read_text(), str(path)), path.stem) == []


def test_object_new_guard_spares_only_interned():
    text = "def _interned(cls):\n    return object.__new__(cls)\n\n\ndef make(cls):\n    return object.__new__(cls)\n"
    assert _object_new_calls(ast.parse(text), "position") == ["line 6: call to object.__new__"]
    assert len(_object_new_calls(ast.parse(text), "sums")) == 2
