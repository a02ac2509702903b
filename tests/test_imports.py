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


#: The submodules a caller that maps points or runs the dynamics loads.
LEAN = ["errors", "linalg2", "frames", "dynamics", "_backend", "scenario"]

#: Submodules only `verify` and the command line need.
HEAVY = {"propcheck", "_rng", "cli"}


def _module_level_imports(tree: ast.Module):
    """Every import statement that runs when the module is imported: those
    outside function bodies."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        nodes.extend(ast.iter_child_nodes(node))


def _package_imports(name: str) -> set[str]:
    """The cellstage submodules that submodule `name` imports at module level."""
    path = SRC_DIR / "cellstage" / f"{name}.py"
    found = set()
    for node in _module_level_imports(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif node.level == 0:
            dotted = [node.module]
        elif node.module is None:
            # from . import a, b
            dotted = [f"cellstage.{alias.name}" for alias in node.names]
        else:
            dotted = [f"cellstage.{node.module}"]
        found.update(d.split(".")[1] for d in dotted if d.startswith("cellstage."))
    return found


@pytest.mark.parametrize("name", LEAN)
def test_lean_modules_never_load_the_harness(name):
    # Follow the imports, so a new module in between cannot hide one.
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module))
    assert seen & HEAVY == set(), f"cellstage.{name} loads {sorted(seen & HEAVY)}"


def test_the_guard_sees_an_import_of_the_harness():
    assert _package_imports("cli") >= {"propcheck", "dynamics", "frames"}
    assert "_rng" in _package_imports("propcheck")
