"""No module under src/ or tests/ imports a name it never uses.

A package `__init__.py` re-exports what it imports, and `from __future__`
imports switch on features rather than bind names, so both are skipped. A
name counts as used if the module reads it anywhere outside a string, so a
name that only a quoted annotation mentions counts as unused.
"""

import ast

import pytest

from conftest import REPO_ROOT, SRC_DIR

MODULES = sorted(
    path
    for root in (SRC_DIR, REPO_ROOT / "tests")
    for path in root.rglob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree: ast.Module):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(REPO_ROOT)) for p in MODULES]
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert unused == [], f"{path.relative_to(REPO_ROOT)} never uses: {', '.join(unused)}"
