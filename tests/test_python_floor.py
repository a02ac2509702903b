"""Every module of the package parses as the oldest Python it declares.

`ast.parse` with `feature_version` rejects syntax newer than that version
(such as `except*` or a `type` statement before 3.12), so the check runs
on any newer interpreter. It does not see library calls added after the
floor.
"""

import ast
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
