"""The paired-run comparator (`benchmarks/paired.py`): win counts and the
IQR test follow each metric's declared direction."""

import importlib.util
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


def test_a_gap_inside_the_parent_spread_does_not_clear(paired):
    parent = [100.0, 80.0, 120.0, 90.0, 110.0]
    summary = paired.summarize(parent, [p - 5.0 for p in parent], "lower")
    assert summary["wins"] == 5
    assert not summary["clears_iqr"]
