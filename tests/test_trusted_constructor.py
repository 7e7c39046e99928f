"""Constructor guards.

``precision._from_capped`` builds a value without the degree test of
``ApproxScalar(...)``, so it is called only inside ``precision``, on
arithmetic results whose digits are within the cap.  Values from raw
digits go through the public constructor, which cuts them; the
normal-form helper of ``test_precision`` checks the cap on every
arithmetic result.

``DiffModule(..., _checked=True)`` skips the integrability check, so only
``DiffModule.mapped`` passes it: it builds every module derived from
another, whose actions commute when the source's do.  Every other module
is checked on construction; a companion presentation carries one
derivation, so its check has no pair to compare.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_dm"
TRUSTED = "_from_capped"
OWNER = "precision.py"


def test_the_trusted_constructor_is_called_only_in_precision():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == OWNER:
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == TRUSTED)
                  or (isinstance(node, ast.Attribute)
                      and node.attr == TRUSTED)
                  or (isinstance(node, ast.alias) and node.name == TRUSTED)]
    assert not found, f"{TRUSTED} outside {OWNER} at " + ", ".join(found)


def test_the_owner_defines_and_calls_it():
    tree = ast.parse((PACKAGE / OWNER).read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == TRUSTED
               for node in tree.body)
    assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == TRUSTED for node in ast.walk(tree))


def test_only_diffmod_trusts_integrability():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg == "_checked"]
    tree = ast.parse((PACKAGE / "diffmod.py").read_text())
    mapped, = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "mapped"]
    assert len(found) == 1, f"_checked passed {len(found)} times: {found}"
    (name, line), = found
    assert name == "diffmod.py" and \
        mapped.lineno <= line <= mapped.end_lineno, \
        f"_checked passed outside DiffModule.mapped at {name}:{line}"
