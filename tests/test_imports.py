"""Every name a package module imports is used in that module."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "circlegc")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


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
    with open(os.path.join(PACKAGE, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = ["%s:%d %s" % (module, line, name)
              for name, line in _imported(tree) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)
