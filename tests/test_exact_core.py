"""Exactness guard: there is no floating point anywhere in the core.

No module of the package may hold a float literal, a ``float(...)`` call,
or ``math.inf`` / ``math.nan`` (as an attribute or an import).  The one
exception is ``cli.py``, whose ``lv_decimal_display`` decimal is for
display only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_dm"
DISPLAY_ONLY = "cli.py"
MATH_FLOATS = {"inf", "nan"}


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...)"
        elif (isinstance(node, ast.Attribute) and node.attr in MATH_FLOATS
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"from math import {a.name}")
                        for a in node.names if a.name in MATH_FLOATS)


def test_no_floating_point_in_the_core():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != DISPLAY_ONLY
             for line, what in _floats(ast.parse(path.read_text(), str(path)))]
    assert not found, "floating point in the core:\n" + "\n".join(found)


def test_the_guard_sees_each_form():
    src = ("import math\nfrom math import inf\n"
           "a = 0.5\nb = float(1)\nc = math.nan\n")
    assert [w for _, w in _floats(ast.parse(src))] == [
        "from math import inf", "0.5", "float(...)", "math.nan"]
