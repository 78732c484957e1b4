"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import permres.perm

MODULES = sorted(Path(permres.perm.__file__).parent.glob("*.py"))


def _imported_names(tree):
    """Names bound by the module's top-level imports, with their lines."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"perm.py", "stabchain.py", "fq.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
