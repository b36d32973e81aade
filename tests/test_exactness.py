"""The library computes in exact rationals: no source file uses floating
point.  Nor does any raise the recursion limit to get a deep game through,
or make an interned position anywhere but in ``position._interned``.  Only
``Position._kept`` and ``Position.move_matrix`` build option lists, and only
``Position._kept`` writes a kept part (``position._KEPT``), but for the
mobility reading, which ``Position.move_matrix`` also records."""

import ast
from pathlib import Path

import pytest

from simulgame.position import _KEPT

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "simulgame").glob("*.py"))
MATH_ALLOWED = {"gcd", "lcm"}
# The attributes of ``position._KEPT``, spelled here too so that the guard
# does not shrink with the table.
KEPT_NAMES = ("_key", "_reading", "_left_kept", "_right_kept", "_matrix_kept")


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


def _outside(tree: ast.AST, module: str, owners: set[str], what: str, matches) -> list[str]:
    """Nodes that ``matches`` outside the ``position`` functions and
    methods named in ``owners`` (``function`` or ``Class.method``)."""
    spared = set()
    for top in tree.body if module == "position" else ():
        prefix, defs = (f"{top.name}.", top.body) if isinstance(top, ast.ClassDef) else ("", [top])
        for node in defs:
            if isinstance(node, ast.FunctionDef) and prefix + node.name in owners:
                spared.update(id(inner) for inner in ast.walk(node))
    return [f"line {node.lineno}: {what}" for node in ast.walk(tree) if id(node) not in spared and matches(node)]


def _object_new_calls(tree: ast.AST, module: str) -> list[str]:
    """Calls to ``object.__new__`` outside ``position._interned``, the one
    maker of strips, sums and explicit games."""
    return _outside(tree, module, {"_interned"}, "call to object.__new__", lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ))


def _options_calls(tree: ast.AST, module: str) -> list[str]:
    """Calls to ``.options(`` outside ``Position._kept``, which keeps what it
    builds, and ``Position.move_matrix``, which builds what is not kept."""
    return _outside(tree, module, {"Position._kept", "Position.move_matrix"}, "call to options", lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "options"
    ))


def _kept_writes(tree: ast.AST, module: str) -> list[str]:
    """Writes of an attribute of ``position._KEPT`` (an attribute store, or
    ``setattr`` or ``object.__setattr__`` of the name) outside
    ``Position._kept``, or, for ``_reading``, ``Position.move_matrix``."""
    def writes(name):
        def match(node):
            if isinstance(node, ast.Attribute):
                return node.attr == name and isinstance(node.ctx, ast.Store)
            return (
                isinstance(node, ast.Call)
                and (getattr(node.func, "attr", None) == "__setattr__" or getattr(node.func, "id", None) == "setattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == name
            )
        return match

    found = []
    for name in KEPT_NAMES:
        owners = {"Position._kept", "Position.move_matrix"} if name == "_reading" else {"Position._kept"}
        found += _outside(tree, module, owners, f"write of {name}", writes(name))
    return found


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_kept_and_move_matrix_build_options(path):
    assert _options_calls(ast.parse(path.read_text(), str(path)), path.stem) == []


def test_options_guard_spares_only_kept_and_move_matrix():
    text = (
        "class Position:\n"
        "    def _kept(self):\n        return self.options(True)\n\n"
        "    def move_matrix(self):\n        return self.options(False)\n\n"
        "    def _read_mobility(self):\n        return self.options(True)\n\n\n"
        "def v_a(p):\n    return p.options(True)\n"
    )
    assert set(_options_calls(ast.parse(text), "position")) == {"line 9: call to options", "line 13: call to options"}
    assert len(_options_calls(ast.parse(text), "sums")) == 4


# The names predate the guard's widening from ``_key`` to every kept part.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_canonical_key_writes_keys(path):
    assert _kept_writes(ast.parse(path.read_text(), str(path)), path.stem) == []


def test_key_guard_catches_each_spelling():
    text = (
        "class Position:\n"
        "    _key = None\n\n"
        "    def _kept(self, name):\n        object.__setattr__(self, '_key', 'k')\n\n"
        "    def move_matrix(self):\n"
        "        object.__setattr__(self, '_reading', 'r')\n        object.__setattr__(self, '_key', 'k')\n\n"
        "    def canonical_key(self):\n        object.__setattr__(self, '_key', 'k')\n\n\n"
        "def spell(g):\n"
        "    object.__setattr__(g, '_matrix_kept', 'm')\n"
        "    setattr(g, '_left_kept', ())\n"
        "    g._reading = 'r'\n"
        "    object.__setattr__(g, '_parts', None)\n"
    )
    found = {
        "line 9: write of _key", "line 12: write of _key", "line 16: write of _matrix_kept",
        "line 17: write of _left_kept", "line 18: write of _reading",
    }
    assert set(_kept_writes(ast.parse(text), "position")) == found
    assert len(_kept_writes(ast.parse(text), "sums")) == 7
    assert sorted(_KEPT.values()) == sorted(KEPT_NAMES)
