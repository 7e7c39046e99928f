"""Precision-carrier guards: in ``factorize``, a ``PrecisionCtx`` is taken
only where an operator is first brought to its working precision.

The public entry points hand ctx to ``_with_retry`` (through
``_decompose_from_cyclic`` for each cyclic candidate), which sizes the
working domain with ``reduce_operator``; everything past that reads its
precision from the values it works on, the certificate quotient's linear
algebra included (no function takes a domain ``adom``: ``_intersect`` and
``_restrict`` read ceil(N) from their columns), and the watermark of the
certificate quotient is written in one place.
"""

import ast
from pathlib import Path

FACTORIZE = (Path(__file__).resolve().parent.parent / "src" / "padic_dm"
             / "factorize.py")
CARRIERS = {"decompose", "multi_decompose", "slope_factorize",
            "factor_by_radii", "reduce_operator", "_with_retry",
            "_decompose_from_cyclic"}


def _tree():
    return ast.parse(FACTORIZE.read_text(), str(FACTORIZE))


def _params():
    """(function, parameter) for every parameter of a def in factorize."""
    for node in ast.walk(_tree()):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs):
                yield node, arg


def test_only_the_entry_points_take_a_precision_ctx():
    found = [f"{node.name}:{node.lineno}" for node, arg in _params()
             if node.name not in CARRIERS
             and arg.annotation is not None
             and "PrecisionCtx" in ast.unparse(arg.annotation)]
    assert not found, "PrecisionCtx parameters at " + ", ".join(found)


def test_the_quotient_takes_no_domain():
    found = [f"{node.name}:{node.lineno}" for node, arg in _params()
             if arg.arg == "adom"]
    assert not found, "adom parameters at " + ", ".join(found)


def test_the_watermark_is_written_once():
    found = [node.lineno for node in ast.walk(_tree())
             if isinstance(node, ast.BinOp)
             and ast.unparse(node) == "2 * n + 10"]
    assert len(found) == 1, f"2 * n + 10 at lines {found}"
