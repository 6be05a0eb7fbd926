"""The CI baseline comparator (`benchmarks/compare_baselines.py`):
path resolution, per-direction verdicts, and the skip/fail policy for
missing or mismatched records."""

import importlib.util
import json
import os

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "benchmarks"
)
COMPARATOR = os.path.join(BENCH_DIR, "compare_baselines.py")


@pytest.fixture(scope="module")
def comparator():
    spec = importlib.util.spec_from_file_location(
        "compare_baselines", COMPARATOR
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResolve:
    def test_walks_nested_dicts(self, comparator):
        metrics = {"byte CDC (buzhash)": {"insert_dedup": 0.9}}
        assert comparator.resolve(
            metrics, "byte CDC (buzhash)/insert_dedup"
        ) == 0.9

    def test_missing_leg_is_none(self, comparator):
        assert comparator.resolve({"a": {"b": 1}}, "a/c") is None
        assert comparator.resolve({"a": 1}, "a/b") is None


class TestCompareMetric:
    def verdict(self, comparator, direction, current, baseline, tol=0.25):
        ok, line = comparator.compare_metric(
            "bench", "metric", direction, tol, current, baseline
        )
        return ok, line

    def test_higher_tolerates_bounded_slide(self, comparator):
        assert self.verdict(comparator, "higher", 0.80, 1.0)[0] is True
        ok, line = self.verdict(comparator, "higher", 0.70, 1.0)
        assert ok is False and "REGRESSION" in line

    def test_lower_tolerates_bounded_rise(self, comparator):
        assert self.verdict(comparator, "lower", 1.20, 1.0)[0] is True
        assert self.verdict(comparator, "lower", 1.30, 1.0)[0] is False

    def test_exact_rejects_any_drift(self, comparator):
        assert self.verdict(comparator, "exact", 2, 2)[0] is True
        ok, line = self.verdict(comparator, "exact", 3, 2)
        assert ok is False and "exact match required" in line
        # Exact works for non-numerics too (bit-equivalence flags).
        assert self.verdict(comparator, "exact", True, True)[0] is True

    def test_non_numeric_fails_closed(self, comparator):
        assert self.verdict(comparator, "higher", "fast", 1.0)[0] is False
        assert self.verdict(comparator, "higher", 1.0, None)[0] is False
        # Booleans are not numbers here, despite being ints in Python.
        assert self.verdict(comparator, "higher", True, 1.0)[0] is False


def write_record(directory, name, metrics, smoke=True):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"BENCH_{name}.json"), "w") as fh:
        json.dump({"smoke": smoke, "metrics": metrics}, fh)


@pytest.fixture
def sandbox(comparator, tmp_path, monkeypatch):
    """Point the comparator at throwaway dirs with a one-entry manifest."""
    results = str(tmp_path / "results")
    baselines = str(tmp_path / "results" / "baselines")
    monkeypatch.setattr(comparator, "RESULTS_DIR", results)
    monkeypatch.setattr(comparator, "BASELINE_DIR", baselines)
    monkeypatch.setattr(
        comparator, "MANIFEST", {"demo": [("ratio", "higher")]}
    )
    return results, baselines


class TestMainPolicy:
    def test_within_tolerance_passes(self, comparator, sandbox, capsys):
        results, baselines = sandbox
        write_record(baselines, "demo", {"ratio": 1.0})
        write_record(results, "demo", {"ratio": 0.9})
        assert comparator.main() == 0
        assert "all asserted metrics within tolerance" in capsys.readouterr().out

    def test_regression_fails(self, comparator, sandbox, capsys):
        results, baselines = sandbox
        write_record(baselines, "demo", {"ratio": 1.0})
        write_record(results, "demo", {"ratio": 0.5})
        assert comparator.main() == 1
        assert "refresh the baseline" in capsys.readouterr().out

    def test_missing_baseline_skips(self, comparator, sandbox, capsys):
        results, _ = sandbox
        write_record(results, "demo", {"ratio": 0.1})
        assert comparator.main() == 0
        assert "no baseline committed yet" in capsys.readouterr().out

    def test_missing_current_record_fails(self, comparator, sandbox, capsys):
        _, baselines = sandbox
        write_record(baselines, "demo", {"ratio": 1.0})
        assert comparator.main() == 1
        assert "did the bench run?" in capsys.readouterr().out

    def test_smoke_flag_mismatch_skips(self, comparator, sandbox, capsys):
        results, baselines = sandbox
        write_record(baselines, "demo", {"ratio": 1.0}, smoke=True)
        write_record(results, "demo", {"ratio": 0.1}, smoke=False)
        assert comparator.main() == 0
        assert "different experiment" in capsys.readouterr().out

    def test_metric_missing_from_current_fails(
        self, comparator, sandbox, capsys
    ):
        results, baselines = sandbox
        write_record(baselines, "demo", {"ratio": 1.0})
        write_record(results, "demo", {"other": 1.0})
        assert comparator.main() == 1
        assert "missing from current record" in capsys.readouterr().out

    def test_manifest_names_only_committed_shapes(self, comparator):
        """Every manifest row names a bench that exists and a metric its
        committed baseline holds — a half-deleted bench or a renamed
        metric key would otherwise skip forever."""
        for name, entries in comparator.MANIFEST.items():
            assert os.path.isfile(os.path.join(BENCH_DIR, f"bench_{name}.py")), name
            record = comparator.load_record(comparator.BASELINE_DIR, name)
            assert record is not None, f"{name}: no committed baseline"
            for path, _ in entries:
                assert comparator.resolve(
                    record.get("metrics", {}), path
                ) is not None, f"{name}:{path} not in committed baseline"

    def test_every_committed_baseline_has_its_bench(self, comparator):
        for record in os.listdir(comparator.BASELINE_DIR):
            name = record.removeprefix("BENCH_").removesuffix(".json")
            assert os.path.isfile(os.path.join(BENCH_DIR, f"bench_{name}.py")), record
