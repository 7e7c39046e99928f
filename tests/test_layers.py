"""Layer guard: every module of the package except ``__init__`` imports
from the package only modules that come before it in ``LAYERS``.

So the digit layer (``precision``) cannot come to depend on the
factorization, which owns the working precision of a split, and a new
module must be given its place in the order.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_dm"
LAYERS = ["errors", "logval", "polys", "scalarfield", "precision", "linalg",
          "twisted", "diffmod", "radii", "taylor", "factorize", "grammar",
          "cli"]


def _package_imports(tree):
    """Names of the package modules a module imports, relative or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                yield from (a.name for a in node.names)
            elif node.level == 1:
                yield node.module.split(".")[0]
            elif node.module and node.module.split(".")[0] == "padic_dm":
                parts = node.module.split(".")
                yield from (parts[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "padic_dm":
                    yield from parts[1:2] or ["__init__"]


def _modules():
    return sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_has_a_layer():
    assert _modules() == sorted(LAYERS)


def test_modules_import_only_lower_layers():
    upward = []
    for name in _modules():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(), name)
        rank = LAYERS.index(name)
        upward += [f"{name} imports {dep}"
                   for dep in sorted(set(_package_imports(tree)))
                   if dep not in LAYERS[:rank]]
    assert not upward, "imports against the layer order:\n" + \
        "\n".join(upward)
