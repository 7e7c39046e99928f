"""Oracle-tolerance guard: ``radii.check_profile`` is the one place that
judges a radius against a brute-force estimate.

The tolerance reads the estimate's ``spread``, so no module of the package
other than ``radii`` (``check_profile``) and ``cli`` (which prints the
estimate) reads an attribute named ``spread``: a second tolerance, like the
purity certificate's former ``spread + 1``, fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_dm"
MAY_READ = {"radii.py", "cli.py"}


def test_only_check_profile_and_the_report_read_the_spread():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in MAY_READ
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "spread"
             and isinstance(node.ctx, ast.Load)]
    assert not found, "spread read outside radii.py and cli.py at " + \
        ", ".join(found)
