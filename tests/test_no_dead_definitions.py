"""Dead-definition guards: every function and class defined in the package
is referred to somewhere in ``src/``, ``tests/`` or ``perfbench/``, every
annotated class field (a dataclass field) is read as an attribute there,
every parameter of a package function is read in its body, and every
module-level import of the package is used.

A reference is a name, an attribute, an imported name, or a string
constant spelling an identifier (the benchmark tracer names the functions
it wraps as strings).  Dunder methods are called by Python itself and are
not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "perfbench")


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _definitions(tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node.name, node.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_every_definition_is_referenced():
    used = {name for _path, tree in _trees(*SEARCHED)
            for name in _references(tree)}
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for path, tree in _trees("src/padic_dm")
            for name, line in _definitions(tree) if name not in used]
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def _fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id, stmt.lineno


def test_every_field_is_read():
    """A field that nothing reads is state the package builds for no one.
    Reads are matched by attribute name alone, so a field sharing its name
    with an attribute read elsewhere passes."""
    read = {node.attr for _path, tree in _trees(*SEARCHED)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
              for path, tree in _trees("src/padic_dm")
              for cls, name, line in _fields(tree) if name not in read]
    assert not unread, "fields never read:\n" + "\n".join(unread)


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or (node.name.startswith("__") and node.name.endswith("__"))):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for arg in params:
            name = arg.arg
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name not in read:
                yield node.name, name, node.lineno


def test_every_parameter_is_read():
    unread = [f"{path.relative_to(ROOT)}:{line} {func}({name})"
              for path, tree in _trees("src/padic_dm")
              for func, name, line in _unread_parameters(tree)]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def _unused_imports(tree):
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used and name not in exported:
                yield name, node.lineno


def test_every_import_is_used():
    """The project runs no linter, so this stands in for an unused-import
    check: a module-level import must be read in its module or exported
    in its ``__all__``."""
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in _trees("src/padic_dm")
              for name, line in _unused_imports(tree)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
