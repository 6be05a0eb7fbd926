"""BENCHMARK.json, metrics.py and what run.py prints are one list."""

import json
import os
import re

import metrics
from conftest import ROOT
from workloads import BASE_SECONDS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_keys_counts_and_names():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(s["workloads"]) <= 8
    assert 1 <= len(s["end_to_end"]) <= 16
    assert 1 <= len(s["per_layer"]) <= 128
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer") for e in s[k]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in s["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in s["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in s["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        e for e in s["end_to_end"] if e["name"] == "setup_s"
    ).items()
    assert s["paths"] == ["benchmarks/budget"]
    assert s["command"] == ["python3", "benchmarks/budget/run.py"]
    assert s["run_seconds"] == BASE_SECONDS


def test_the_file_lists_exactly_what_the_code_defines():
    assert spec() == metrics.benchmark_spec()
    assert len(WORKLOADS) == 4


def test_run_emits_exactly_the_declared_names(quick_results):
    s = spec()
    declared = {0: s["end_to_end"], 1: s["per_layer"]}
    for (workload, trace), result in quick_results.items():
        assert set(result) >= {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], result["details"]["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [e["name"] for e in declared[trace]]
        for entry in declared[trace]:
            emitted = result["metrics"][entry["name"]]
            assert emitted["unit"] == entry["unit"]
            assert isinstance(emitted["value"], (int, float))
        if trace == 0:
            assert all(e["value"] > 0 for e in result["metrics"].values())
