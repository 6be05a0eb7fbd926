"""Helpers for the analyzer's tests: write fixture packages to disk,
run the lock rules over them, and locate marker lines."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.model import load_source_tree
from repro.analysis.report import run_rules


class FixtureTree:
    """A scratch package the analyzer runs over."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, rel_path: str, source: str) -> str:
        """Write a module; returns the dedented source for line lookups."""
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        text = textwrap.dedent(source)
        path.write_text(text, encoding="utf-8")
        return text

    def load(self):
        return load_source_tree(self.root)

    def findings(self, rule: str | None = None):
        found = run_rules(self.load())
        if rule is not None:
            found = [f for f in found if f.rule == rule]
        return found


@pytest.fixture
def tree(tmp_path) -> FixtureTree:
    return FixtureTree(tmp_path / "fixt")


def _line_of(source: str, needle: str) -> int:
    """1-based line of the first line containing ``needle``."""
    for number, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return number
    raise AssertionError(f"marker {needle!r} not in fixture source")


@pytest.fixture
def line_of():
    return _line_of
