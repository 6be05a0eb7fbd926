"""Gate the paper benchmark's smoke records against committed baselines.

CI runs ``benchmarks/bench_paper.py`` under ``REPRO_BENCH_SMOKE=1``,
which leaves one ``BENCH_<name>.json`` per figure in
``benchmarks/results/smoke/``. Every leaf of a record's ``exact`` half — a
count, byte total, score or simulated time, each a function of the
figure's sizes and seed; a list is one leaf — must equal the committed
smoke baseline in ``benchmarks/results/baselines/``. The ``timing``
half is wall clock and never gated. The script exits 1 naming each leaf
that changed, went missing or is new, and each figure whose current
record is missing, is not a smoke run, or has no baseline.

Refreshing a baseline is a deliberate, reviewable act, made in the
change that moved the leaves::

    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_paper.py -q
    cp benchmarks/results/smoke/BENCH_*.json benchmarks/results/baselines/
"""

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results", "smoke")
BASELINE_DIR = os.path.join(os.path.dirname(RESULTS_DIR), "baselines")


def leaves(node: dict, prefix: str = "") -> dict:
    """``/``-joined path -> value for every non-dict under ``node``."""
    found = {}
    for key, value in node.items():
        path = f"{prefix}/{key}" if prefix else key
        if isinstance(value, dict):
            found.update(leaves(value, path))
        else:
            found[path] = value
    return found


def load_record(directory: str, name: str):
    path = os.path.join(directory, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_names(directory: str) -> set:
    """Figure names with a record in ``directory``; none if it is absent."""
    entries = os.listdir(directory) if os.path.isdir(directory) else []
    return {
        entry.removeprefix("BENCH_").removesuffix(".json")
        for entry in entries
        if entry.startswith("BENCH_") and entry.endswith(".json")
    }


def compare(name: str, current, baseline) -> list[str]:
    """One line per failure of figure ``name``; empty when it passes."""
    if baseline is None:
        return [f"{name}: no committed baseline (benchmarks/results/baselines/)"]
    if current is None:
        return [f"{name}: no current record in results/smoke/ — did the bench run?"]
    if current.get("smoke") is not True:
        return [f"{name}: current record is not a smoke run; the baselines are"]
    now, then = leaves(current["exact"]), leaves(baseline["exact"])
    failures = []
    for path in sorted(now.keys() | then.keys()):
        if path not in now:
            failures.append(f"{name}:{path}: missing from the current record")
        elif path not in then:
            failures.append(f"{name}:{path}: not in the baseline")
        elif now[path] != then[path]:
            failures.append(f"{name}:{path}: {now[path]!r} != baseline {then[path]!r}")
    return failures


def main() -> int:
    failures, gated = [], 0
    for name in sorted(record_names(BASELINE_DIR) | record_names(RESULTS_DIR)):
        baseline = load_record(BASELINE_DIR, name)
        lines = compare(name, load_record(RESULTS_DIR, name), baseline)
        failures += lines
        if baseline is not None:
            gated += len(leaves(baseline["exact"]))
        print("FAIL " + "\nFAIL ".join(lines) if lines else f"ok   {name}")
    if failures:
        print(
            f"\n{len(failures)} failure(s) — if the change is intended, "
            "refresh the baselines (see module docstring) in the same change."
        )
        return 1
    print(f"\nall {gated} exact leaves equal their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
