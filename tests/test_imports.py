"""Every name a package module imports is used in that module, and every
function or class a package module defines, and every public method of
such a class, is used by the package or by the benchmark, not by the
tests alone."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "circlegc")
BENCH = os.path.join(ROOT, "perfbench")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _imported(tree):
    """(name bound, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = _parse(os.path.join(PACKAGE, module))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = ["%s:%d %s" % (module, line, name)
              for name, line in _imported(tree) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def _definitions(tree):
    """Each module-level function and class, and each public method of a
    module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, DEFINITIONS):
            yield stmt
            if isinstance(stmt, ast.ClassDef):
                yield from (f for f in stmt.body
                            if isinstance(f, FUNCTIONS)
                            and not f.name.startswith("_"))


def _references(path):
    """(name, owners) for each name a file reads: a variable, an
    attribute, or a string equal to a name (``perfbench/spans.py`` names
    its targets by string).  The owners are the names of the definitions
    the reference sits in."""
    tree = _parse(path)
    owners = {}
    for definition in _definitions(tree):
        for node in ast.walk(definition):
            owners.setdefault(id(node), set()).add(definition.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        yield name, owners.get(id(node), ())


def _sources():
    for folder in (PACKAGE, BENCH):
        for f in sorted(os.listdir(folder)):
            if f.endswith(".py"):
                yield os.path.join(folder, f)


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_used_outside_the_tests(module):
    path = os.path.join(PACKAGE, module)
    defined = [d.name for d in _definitions(_parse(path))]
    used = set()
    for source in _sources():
        for name, owners in _references(source):
            # a definition's own body does not count as a use of it
            if source != path or name not in owners:
                used.add(name)
    unused = ["%s %s" % (module, name) for name in defined
              if name not in used]
    assert not unused, "defined but used by tests only: " + ", ".join(unused)
