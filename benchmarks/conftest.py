"""Benchmark harness configuration.

Every bench regenerates one of the paper's tables or figures at full
scale, printing the series/rows and writing them under
``benchmarks/results/`` (pytest captures stdout, so the files are the
durable record).

Heavy experiments are shared through session-scoped fixtures so each
figure of a family (e.g. Figs. 5/6/7 share one linear-versioning run)
costs one execution.
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "10"))
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "100"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
# Smoke mode (CI): tiny sizes, exercising every benchmark end to end to
# catch bit-rot, with performance-ratio assertions relaxed.
BENCH_SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))


def write_result(name: str, text: str) -> None:
    """Persist a rendered figure/table and echo it to stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n[written {path}]\n{text}")


def _git_commit() -> str | None:
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(__file__),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return probe.stdout.strip() or None if probe.returncode == 0 else None


def write_bench_record(name: str, metrics: dict) -> None:
    """Persist one benchmark's machine-readable record as
    ``results/BENCH_<name>.json``: the key metrics next to the run's
    configuration (smoke flag, scale, seed, commit), so CI artifacts are
    comparable across commits without parsing rendered tables."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = {
        "benchmark": name,
        "metrics": metrics,
        "smoke": BENCH_SMOKE,
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "commit": _git_commit(),
    }
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench-record {path}]")


@pytest.fixture(scope="session")
def linear_result():
    from repro.experiments import run_linear_experiment

    return run_linear_experiment(
        n_iterations=BENCH_ITERATIONS, scale=BENCH_SCALE, seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def merge_result():
    from repro.experiments import run_merge_experiment

    return run_merge_experiment(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def search_result():
    from repro.experiments import run_search_experiment

    return run_search_experiment(
        n_trials=BENCH_TRIALS, scale=BENCH_SCALE, seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def distributed_result():
    from repro.experiments import run_distributed_experiment

    return run_distributed_experiment(n_steps=150, n_samples=800, seed=BENCH_SEED)
