"""Every name a package module imports is used in that module, and every
function or class a package module defines is used by the package or by
the benchmark, not by the tests alone."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "circlegc")
BENCH = os.path.join(ROOT, "perfbench")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _references(path):
    """(name, owner) for each name a file reads: a variable, an attribute,
    or a string equal to a name (``perfbench/spans.py`` names its targets
    by string).  The owner is the module-level definition the reference
    sits in, or None."""
    for stmt in _parse(path).body:
        owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                yield node.value, owner


def _sources():
    for folder in (PACKAGE, BENCH):
        for f in sorted(os.listdir(folder)):
            if f.endswith(".py"):
                yield os.path.join(folder, f)


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_used_outside_the_tests(module):
    path = os.path.join(PACKAGE, module)
    defined = [stmt.name for stmt in _parse(path).body
               if isinstance(stmt, DEFINITIONS)]
    used = set()
    for source in _sources():
        for name, owner in _references(source):
            # a definition's own body does not count as a use of it
            if source != path or owner != name:
                used.add(name)
    unused = ["%s %s" % (module, name) for name in defined
              if name not in used]
    assert not unused, "defined but used by tests only: " + ", ".join(unused)
