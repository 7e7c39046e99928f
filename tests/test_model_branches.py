"""Model guards: the ``gauss`` and ``laurent`` models differ, for truncated
digits, only in the uniformizer pi, which ``FieldSpec.pi_shift`` and
``FieldSpec.pi_trunc`` hold beside ``FieldSpec.poly_val``.  The degree cap
is no part of that rule: ``precision._digits_to`` cuts the digits of both
models at a total degree, and ``pi_trunc`` knows no degrees.

No module of the package other than ``scalarfield`` (which defines the
models) and ``precision`` (whose digit rings differ) may import ``GAUSS``
or ``LAURENT``.  ``precision`` may read a field's ``kind`` at most
``MAX_PRECISION_BRANCHES`` times: the start of ``inverse``, ``derive``, the
centring in ``lift`` and the Laurent window.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_dm"
MODEL_NAMES = {"GAUSS", "LAURENT"}
MAY_IMPORT = {"scalarfield.py", "precision.py"}
MAX_PRECISION_BRANCHES = 4


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _model_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if a.name in MODEL_NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in MODEL_NAMES:
            yield node.attr


def test_only_the_digit_layers_name_a_model():
    named = [f"{path.name}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in MAY_IMPORT
             for name in _model_imports(_tree(path))]
    assert not named, "model names outside scalarfield and precision:\n" + \
        "\n".join(named)


def test_precision_branches_only_where_the_digit_rings_differ():
    tree = _tree(PACKAGE / "precision.py")
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert len(reads) <= MAX_PRECISION_BRANCHES, \
        f"precision.py tests the model on lines {sorted(reads)}"
