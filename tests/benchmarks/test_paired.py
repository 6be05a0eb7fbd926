"""The paired-run comparator (`benchmarks/paired.py`): win counts and the
IQR test follow each metric's declared direction."""

import importlib.util
import json
import os

import pytest

PAIRED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, os.pardir, "benchmarks", "paired.py",
)


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired", PAIRED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_directions_come_from_the_benchmark_declaration(paired):
    better = paired.directions()
    assert better["step_p50_ms"] == "lower"
    assert better["reads_per_s"] == "higher"
    assert better["client.executor.component_s"] == "lower"


def test_a_lower_is_better_gain_clears_the_parent_iqr(paired):
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
    change = [p - 20.0 for p in parent]
    change[3] = parent[3]  # a tie is not a win
    summary = paired.summarize(parent, change, "lower")
    assert summary["wins"] == 9
    assert summary["parent_median"] == 100.0
    assert summary["change_median"] == 80.0
    assert 0 < summary["parent_iqr"] < 20.0
    assert summary["clears_iqr"]


def test_the_direction_decides_what_a_win_is(paired):
    parent, change = [10.0, 11.0, 12.0, 13.0], [20.0, 21.0, 22.0, 23.0]
    assert paired.summarize(parent, change, "higher")["wins"] == 4
    assert paired.summarize(parent, change, "higher")["clears_iqr"]
    assert paired.summarize(parent, change, "lower")["wins"] == 0
    assert not paired.summarize(parent, change, "lower")["clears_iqr"]


def run_line(values: dict) -> dict:
    """A ``run.py`` result line carrying ``values`` as its metrics."""
    return {"correct": True, "failed": 0,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()}}


def test_a_history_line_round_trips(paired, tmp_path):
    runs = [
        run_line({"step_p50_ms": step, "setup_s": 0.3, "merge_s": merge, "not_declared": 1.0})
        for step, merge in ((100.0, 0.5), (90.0, 0.7), (120.0, 0.6))
    ]
    records = [
        paired.history_record("WORKTREE", "change", "local_evolve_merge", 7, trace, runs)
        for trace in (0, 1)
    ]
    path = tmp_path / "history.jsonl"
    paired.append_history(str(path), records[:1])
    paired.append_history(str(path), records[1:])
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records
    untraced, traced = records
    assert untraced == {
        "commit": "WORKTREE", "side": "change", "workload": "local_evolve_merge",
        "seed": 7, "trace": 0, "pairs": 3,
        "end_to_end": {"step_p50_ms": 100.0, "setup_s": 0.3},
    }
    assert traced["layers"] == {"merge_s": 0.6}
    assert traced["end_to_end"] == untraced["end_to_end"]


def test_the_committed_history_is_one_record_per_line(paired):
    path = os.path.join(os.path.dirname(PAIRED), "results", "history.jsonl")
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    assert records
    for record in records:
        assert {"commit", "side", "workload", "seed", "trace", "pairs", "end_to_end"} <= record.keys()
        assert record["side"] in ("parent", "change")


def test_a_gap_inside_the_parent_spread_does_not_clear(paired):
    parent = [100.0, 80.0, 120.0, 90.0, 110.0]
    summary = paired.summarize(parent, [p - 5.0 for p in parent], "lower")
    assert summary["wins"] == 5
    assert not summary["clears_iqr"]


def test_a_missing_workdir_is_created(paired, monkeypatch, tmp_path, capsys):
    checkouts = []

    def checkout(rev, dest):
        os.makedirs(dest)
        checkouts.append(dest)
        return rev

    monkeypatch.setattr(paired, "checkout", checkout)
    monkeypatch.setattr(paired, "run_budget", lambda *args: run_line({"step_p50_ms": 1.0}))
    workdir = tmp_path / "not" / "yet"
    assert paired.main(["--workload", "collab_cycle", "--pairs", "1",
                        "--workdir", str(workdir)]) == 0
    assert [os.path.dirname(os.path.dirname(path)) for path in checkouts] == [str(workdir)] * 2
    assert os.listdir(workdir) == []  # the run's checkouts are removed again
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["pairs"] == 1
