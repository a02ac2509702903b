"""Every module of the package parses as the oldest Python it declares.

`ast.parse` with `feature_version` rejects syntax newer than that version
(such as `except*` or a `type` statement before 3.12), so the check runs
on any newer interpreter. It does not see library calls added after the
floor, except one: every `dataclass(...)` call may use only the keywords
the floor's `dataclasses.dataclass` takes (no `weakref_slot` before 3.11).
"""

import ast
import dataclasses
import inspect
import re

import pytest

from conftest import REPO_ROOT, SRC_DIR

PACKAGE = sorted((SRC_DIR / "cellstage").rglob("*.py"))


def _floor() -> tuple[int, int]:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[str(p.relative_to(REPO_ROOT)) for p in PACKAGE]
)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_floor())


#: The keywords `dataclasses.dataclass` takes, by the version that added them.
DATACLASS_KEYWORDS = {
    (3, 7): {"init", "repr", "eq", "order", "unsafe_hash", "frozen"},
    (3, 10): {"match_args", "kw_only", "slots"},
    (3, 11): {"weakref_slot"},
}


def _dataclass_keywords(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, keyword) of every keyword of a `dataclass(...)` or
    `dataclasses.dataclass(...)` call in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "dataclass":
                found += [(node.lineno, keyword.arg) for keyword in node.keywords]
    return found


def test_keyword_table_covers_this_interpreter():
    known = set().union(*DATACLASS_KEYWORDS.values())
    assert set(inspect.signature(dataclasses.dataclass).parameters) - {"cls"} <= known


def test_a_newer_keyword_is_found():
    tree = ast.parse("@dataclass(frozen=True, weakref_slot=True)\nclass A:\n    x: int\n")
    assert _dataclass_keywords(tree) == [(1, "frozen"), (1, "weakref_slot")]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[str(p.relative_to(REPO_ROOT)) for p in PACKAGE]
)
def test_dataclass_keywords_exist_at_the_floor(path):
    accepted = set().union(
        *(names for version, names in DATACLASS_KEYWORDS.items() if version <= _floor())
    )
    keywords = _dataclass_keywords(ast.parse(path.read_text(), filename=str(path)))
    assert [(line, k) for line, k in keywords if k not in accepted] == []
