"""Report-owner guards: ``cli`` is the one module that gives the library's
values a JSON form.

No module of the package defines a ``to_jsonable``, and the report keys
below appear as string constants in ``cli.py`` only, so a change to the
report schema (or to the printed-digit rule beside it) edits one module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_dm"
OWNER = "cli.py"
REPORT_KEYS = {"lv_decimal_display", "advisory_ok", "boundary_clipped",
               "residual_lv", "spectral_estimate", "dims_ok"}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_no_library_type_renders_itself():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "to_jsonable"]
    assert not found, "to_jsonable defined at " + ", ".join(found)


def test_report_keys_are_spelled_only_by_the_cli():
    found = [f"{name}:{node.lineno}: {node.value!r}"
             for name, tree in _trees() if name != OWNER
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in REPORT_KEYS]
    assert not found, "report keys outside cli.py:\n" + "\n".join(found)
