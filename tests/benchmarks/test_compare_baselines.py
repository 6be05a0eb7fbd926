"""The CI baseline gate (`benchmarks/compare_baselines.py`): every
`exact` leaf equal to the committed smoke baseline, no `timing` leaf
gated, and a missing or mismatched record a failure, not a skip."""

import importlib.util
import json
import os

import pytest

from repro.experiments.figures import FIGURES

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "benchmarks"
)
COMPARATOR = os.path.join(BENCH_DIR, "compare_baselines.py")


@pytest.fixture(scope="module")
def comparator():
    spec = importlib.util.spec_from_file_location("compare_baselines", COMPARATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = {
    "exact": {"executed": {"dpm": {"mlcask": 6, "modeldb": 14}}, "ranks": [1, 2]},
    "timing": {"seconds": {"dpm": 0.25}},
}


def write_record(directory, name, record, smoke=True):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"BENCH_{name}.json"), "w") as fh:
        json.dump({**record, "smoke": smoke}, fh)


def edited(path, value):
    """A copy of ``RECORD`` with the leaf at ``half/key/...`` set to ``value``."""
    record = json.loads(json.dumps(RECORD))
    *parents, leaf = path.split("/")
    node = record
    for key in parents:
        node = node[key]
    node[leaf] = value
    return record


@pytest.fixture
def sandbox(comparator, tmp_path, monkeypatch):
    """The comparator pointed at throwaway dirs holding one baseline."""
    results = str(tmp_path / "smoke")
    baselines = str(tmp_path / "baselines")
    monkeypatch.setattr(comparator, "RESULTS_DIR", results)
    monkeypatch.setattr(comparator, "BASELINE_DIR", baselines)
    write_record(baselines, "demo", RECORD)
    os.makedirs(results, exist_ok=True)
    return results


def test_leaves_walk_dicts_and_keep_lists_whole(comparator):
    assert comparator.leaves(RECORD["exact"]) == {
        "executed/dpm/mlcask": 6, "executed/dpm/modeldb": 14, "ranks": [1, 2],
    }


def test_an_equal_record_passes(comparator, sandbox, capsys):
    write_record(sandbox, "demo", RECORD)
    assert comparator.main() == 0
    assert "all 3 exact leaves equal their baselines" in capsys.readouterr().out


@pytest.mark.parametrize("path,value", [
    ("exact/executed/dpm/mlcask", 7),
    ("exact/ranks", [2, 1]),
    ("exact/executed/dpm/mlcask", 6.000001),
])
def test_a_changed_exact_leaf_fails_by_its_path(comparator, sandbox, capsys, path, value):
    write_record(sandbox, "demo", edited(path, value))
    assert comparator.main() == 1
    leaf = path.removeprefix("exact/")
    assert f"FAIL demo:{leaf}:" in capsys.readouterr().out


def test_a_changed_timing_leaf_passes(comparator, sandbox):
    write_record(sandbox, "demo", edited("timing/seconds/dpm", 99.0))
    assert comparator.main() == 0


def test_a_missing_or_new_exact_leaf_fails(comparator, sandbox, capsys):
    record = edited("exact/executed/dpm/mlflow", 7)
    del record["exact"]["ranks"]
    write_record(sandbox, "demo", record)
    assert comparator.main() == 1
    out = capsys.readouterr().out
    assert "demo:executed/dpm/mlflow: not in the baseline" in out
    assert "demo:ranks: missing from the current record" in out


def test_a_missing_current_record_fails(comparator, sandbox, capsys):
    assert comparator.main() == 1
    assert "did the bench run?" in capsys.readouterr().out


def test_a_missing_results_directory_fails_each_figure(comparator, sandbox, capsys):
    """A bench that crashed before writing any record leaves no
    ``results/smoke/``: each figure fails by name, without a traceback."""
    os.rmdir(sandbox)
    assert comparator.main() == 1
    assert "FAIL demo: no current record" in capsys.readouterr().out


def test_a_full_size_current_record_fails(comparator, sandbox, capsys):
    write_record(sandbox, "demo", RECORD, smoke=False)
    assert comparator.main() == 1
    assert "not a smoke run" in capsys.readouterr().out


def test_a_smoke_record_without_a_baseline_fails(comparator, sandbox, capsys):
    write_record(sandbox, "demo", RECORD)
    write_record(sandbox, "newfig", RECORD)
    assert comparator.main() == 1
    assert "newfig: no committed baseline" in capsys.readouterr().out


def test_committed_baselines_are_the_figures_smoke_records(comparator):
    """One smoke baseline per registered figure, and none for a figure
    that is gone: the gate then covers every figure CI runs."""
    assert comparator.record_names(comparator.BASELINE_DIR) == set(FIGURES)
    for name in FIGURES:
        record = comparator.load_record(comparator.BASELINE_DIR, name)
        assert record["smoke"] is True and record["sizes"] == FIGURES[name].sizes["smoke"]
        assert {"exact", "timing"} <= set(record), name
