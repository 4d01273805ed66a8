"""Every Python file of the project parses as the oldest Python that pyproject.toml allows."""

import ast
import re

import pytest

from conftest import REPO

FLOOR = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (REPO / "pyproject.toml").read_text(encoding="utf-8")).groups())
SOURCES = sorted(path for folder in ("src", "tests", "benchmarks", "scripts") for path in (REPO / folder).rglob("*.py"))


def test_the_floor_is_read():
    assert FLOOR == (3, 10) and len(SOURCES) > 30


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(REPO).as_posix())
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
