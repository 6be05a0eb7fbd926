"""The ``repro lint`` verb end to end through the real CLI."""

import io
import json
import textwrap

import pytest

from repro.cli import main


@pytest.fixture
def dirty_tree(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "store.py").write_text(
        textwrap.dedent(
            """\
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def persist(self):
                    with self._lock:
                        with open("state", "w") as fh:
                            fh.write("x")
            """
        ),
        encoding="utf-8",
    )
    return root


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestLintVerb:
    def test_clean_tree_exits_zero(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "mod.py").write_text("x = 1\n", encoding="utf-8")
        code, text = run_cli("lint", str(root))
        assert code == 0
        assert "lint clean" in text

    def test_dirty_tree_exits_one_with_location(self, dirty_tree):
        code, text = run_cli("lint", str(dirty_tree))
        assert code == 1
        assert "LK002" in text
        assert "store.py:10" in text
        assert "hint:" in text

    def test_json_report(self, dirty_tree):
        code, text = run_cli("lint", "--json", str(dirty_tree))
        assert code == 1
        report = json.loads(text)
        assert report["ok"] is False
        assert report["findings"][0]["rule"] == "LK002"
        assert report["findings"][0]["symbol"] == "Store.persist"
        assert report["findings"][0]["fingerprint"].startswith("LK002:")

    def test_rule_filter(self, dirty_tree):
        code, _ = run_cli("lint", "--rule", "LK001", str(dirty_tree))
        assert code == 0
        code, _ = run_cli("lint", "--rule", "LK002", str(dirty_tree))
        assert code == 1

    def test_unknown_rule_is_an_error(self, dirty_tree):
        code, text = run_cli("lint", "--rule", "XX999", str(dirty_tree))
        assert code == 2
        assert "unknown rule" in text

    def test_write_baseline_then_clean(self, dirty_tree, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, text = run_cli(
            "lint", "--write-baseline", "--baseline", str(baseline), str(dirty_tree)
        )
        assert code == 0
        assert "wrote 1 finding(s)" in text
        code, text = run_cli("lint", "--baseline", str(baseline), str(dirty_tree))
        assert code == 0
        assert "1 baselined" in text
        # --no-baseline resurfaces it
        code, _ = run_cli(
            "lint", "--baseline", str(baseline), "--no-baseline", str(dirty_tree)
        )
        assert code == 1

    def test_list_rules(self):
        code, text = run_cli("lint", "--list-rules")
        assert code == 0
        # Lock discipline only: the protocol and telemetry contracts are
        # refused where they are declared (docs/invariants.md).
        assert [line.split()[0] for line in text.splitlines()] == [
            "LK001", "LK002", "LK003", "LK004",
        ]

    def test_missing_directory_is_an_error(self, tmp_path):
        code, text = run_cli("lint", str(tmp_path / "nope"))
        assert code == 2
        assert "not a directory" in text
