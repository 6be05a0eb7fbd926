"""Compare smoke-mode bench records against committed baselines.

CI runs every ``bench_*.py`` in smoke mode, which drops one
``BENCH_<name>.json`` record per benchmark into ``benchmarks/results/``
(see ``conftest.write_bench_record``). This script diffs those records
against the committed history in ``benchmarks/results/baselines/`` and
fails (exit 1) when an *asserted* metric regresses by more than
``DEFAULT_TOLERANCE`` — so a perf- or correctness-ratio slide shows up
in the PR that caused it, not three releases later.

Only metrics named in :data:`MANIFEST` are compared, and the manifest
deliberately sticks to ratios and counts that are deterministic (or
near-deterministic) at smoke sizes: dedup fractions, byte savings,
span/retry counts. Raw wall-clock numbers are recorded in the same
files but never asserted here — shared CI runners make them noise.

Metric paths are ``/``-separated (metric keys themselves contain dots
and spaces, e.g. ``byte CDC (buzhash)/insert_dedup``). Directions:

* ``higher`` — regression when current < baseline x (1 - tolerance);
* ``lower``  — regression when current > baseline x (1 + tolerance);
* ``exact``  — regression on any inequality (deterministic contracts).

Records carry their ``smoke`` flag; a record pair whose flags disagree
is skipped with a warning rather than diffed — full-mode numbers are a
different experiment, not a regression.

Refreshing a baseline is a deliberate, reviewable act::

    REPRO_BENCH_SMOKE=1 REPRO_BENCH_SCALE=0.2 REPRO_BENCH_ITERATIONS=3 \
        REPRO_BENCH_TRIALS=3 python -m pytest benchmarks/bench_*.py -q
    cp benchmarks/results/BENCH_<name>.json benchmarks/results/baselines/
"""

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
BASELINE_DIR = os.path.join(RESULTS_DIR, "baselines")

DEFAULT_TOLERANCE = 0.25

#: bench name -> list of (metric path, direction[, tolerance]).
MANIFEST = {
    "ablation_chunking": [
        # Dedup fractions are pure functions of the chunker and the
        # synthetic edit script — deterministic at fixed seed/scale.
        ("byte CDC (buzhash)/insert_dedup", "higher"),
        ("byte CDC (buzhash)/append_dedup", "higher"),
        ("fixed 4KiB/append_dedup", "higher"),
        # The default chunker, held exactly: every stored recipe was cut
        # by it, so one moved boundary is lost dedup against all of them.
        ("word CDC (default)/value_edit_dedup", "exact"),
        ("word CDC (default)/append_dedup", "exact"),
        ("word CDC (default)/insert_dedup", "exact"),
    ],
    "remote_sync": [
        # Wire-transfer byte counts: the delta-sync saving ratios.
        ("saving_vs_naive", "higher"),
        ("saving_vs_clone", "higher"),
    ],
    "hub_multitenant": [
        # Shared-backend dedup across tenants (physical bytes ratio).
        ("physical_saving", "higher"),
    ],
    "fig8_merge_perf": [
        # Storage saving is a byte ratio; the timing speedup is not
        # asserted here.
        ("storage_saving/readmission", "higher"),
        ("storage_saving/sa", "higher"),
    ],
    "obs_telemetry": [
        # Span counts for one traced push are a protocol contract.
        ("push_trace_spans", "exact"),
        # Overhead ratios compare two in-process runs of the same work,
        # so runner speed divides out; keep a little extra headroom.
        ("lineage_overhead_ratio", "higher", 0.30),
        ("profiler_overhead_ratio", "higher", 0.30),
    ],
    "overload_shedding": [
        # Remote's shed-retry loop: retries per overloaded call.
        ("backoff_retries", "exact"),
    ],
    "chunk_store_io": [
        # os-level calls per chunk on the file-backed paths: the
        # per-chunk contract of docs/invariants.md, held across commits.
        # (The microseconds beside them are recorded, never compared.)
        ("file/syscalls/novel_write", "exact"),
        ("file/syscalls/dedup_hit", "exact"),
        ("file/syscalls/read", "exact"),
        ("file/syscalls/miss", "exact"),
        ("view-file/syscalls/novel_write", "exact"),
        ("view-file/syscalls/dedup_hit", "exact"),
        ("view-file/syscalls/read", "exact"),
        ("view-file/syscalls/miss", "exact"),
    ],
    "fig11_distributed": [
        # Analytic speedup grid — deterministic.
        ("speedup_grid/p=0.9,k=8", "higher"),
    ],
    "cold_start": [
        # The import tiers (docs/invariants.md) seen from outside: what a
        # fresh process of each kind loaded. (Its milliseconds, megabytes
        # and module counts are recorded beside these, never compared.)
        (f"{entry}/loads/{what}", "exact")
        for entry in (
            "import repro.cli", "repro --help", "hub serve until ready",
            "repro stats URL", "import repro.workloads",
        )
        for what in ("numpy", "scipy", "repro.ml")
    ],
}


def resolve(metrics: dict, path: str):
    """Walk a ``/``-separated path through nested metric dicts."""
    node = metrics
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_metric(name, path, direction, tolerance, current, baseline):
    """One metric's verdict: (ok, human line)."""
    label = f"{name}:{path}"
    if direction == "exact":
        ok = current == baseline
        return ok, (
            f"{label}: {current!r} vs baseline {baseline!r}"
            + ("" if ok else "  << REGRESSION (exact match required)")
        )
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        return False, f"{label}: current value {current!r} is not numeric"
    if not isinstance(baseline, (int, float)) or isinstance(baseline, bool):
        return False, f"{label}: baseline value {baseline!r} is not numeric"
    if direction == "higher":
        floor = baseline * (1.0 - tolerance)
        ok = current >= floor
        bound = f">= {floor:.4g}"
    else:
        ceiling = baseline * (1.0 + tolerance)
        ok = current <= ceiling
        bound = f"<= {ceiling:.4g}"
    return ok, (
        f"{label}: {current:.4g} vs baseline {baseline:.4g} "
        f"(need {bound})" + ("" if ok else "  << REGRESSION")
    )


def load_record(directory: str, name: str):
    path = os.path.join(directory, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    failures = []
    warnings = []
    for name, entries in sorted(MANIFEST.items()):
        current = load_record(RESULTS_DIR, name)
        baseline = load_record(BASELINE_DIR, name)
        if baseline is None:
            warnings.append(
                f"{name}: no baseline committed yet "
                f"(benchmarks/results/baselines/BENCH_{name}.json) — skipped"
            )
            continue
        if current is None:
            # The bench never produced a record this run: that is itself
            # a regression (bit-rot), not a skip.
            line = f"{name}: no current record in results/ — did the bench run?"
            print(f"FAIL {line}")
            failures.append(line)
            continue
        if current.get("smoke") != baseline.get("smoke"):
            warnings.append(
                f"{name}: smoke flags differ (current "
                f"{current.get('smoke')}, baseline {baseline.get('smoke')}) "
                "— different experiment, skipped"
            )
            continue
        for entry in entries:
            path, direction = entry[0], entry[1]
            tolerance = entry[2] if len(entry) > 2 else DEFAULT_TOLERANCE
            current_value = resolve(current.get("metrics", {}), path)
            baseline_value = resolve(baseline.get("metrics", {}), path)
            if baseline_value is None:
                warnings.append(f"{name}:{path}: not in baseline — skipped")
                continue
            if current_value is None:
                line = f"{name}:{path}: missing from current record"
                print(f"FAIL {line}")
                failures.append(line)
                continue
            ok, line = compare_metric(
                name, path, direction, tolerance, current_value, baseline_value
            )
            print(("ok   " if ok else "FAIL ") + line)
            if not ok:
                failures.append(line)
    for warning in warnings:
        print(f"warn {warning}")
    if failures:
        print(
            f"\n{len(failures)} asserted metric(s) regressed past "
            f"tolerance — if intentional, refresh the baseline record "
            "(see module docstring) in the same PR."
        )
        return 1
    print(f"\nall asserted metrics within tolerance ({len(warnings)} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
