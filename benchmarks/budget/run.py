"""The performance budget: one command, every metric by name, outputs checked.

    python3 benchmarks/budget/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--quick]

Without ``--workload`` every workload runs; without ``--trace`` each runs
untraced (end-to-end metrics) and then traced (per-layer metrics). The last
line of standard output is one JSON object — ``correct``, ``attempted``,
``failed``, ``metrics`` — and the exit code is non-zero when a check failed.

Topology: the driver is this one process; the hub is a real ``repro hub
serve`` subprocess on a disk root inside the checkout, default flags,
reached over loopback HTTP by closed-loop clients. The OS page cache is
warm and nothing in the tree calls ``fsync`` (flush policy: none), so the
latencies are this sandbox's, not a device's.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit(f"run.py: no repro package under {SRC}: nothing to measure")
sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]

import metrics  # noqa: E402 - the benchmark's own modules need the path entries
from hubproc import HubProcess, peak_rss_mb  # noqa: E402
from layers import Tracer  # noqa: E402
from stats import median, tail  # noqa: E402
from workloads import BASE_SECONDS, WORKLOADS  # noqa: E402

SETUPS = 3  # set-ups per untraced run; setup_s is their median

# Byte totals carry JSON-encoded float timings (checkpoint records, ledger
# rows), whose digit count wobbles between runs: equal to within this share.
BYTES_TOLERANCE = 1e-3
EXACT_COUNTS = (
    "steps", "stages_executed", "stages_reused", "candidates_total",
    "candidates_evaluated", "chunks_sent", "hub_new_bytes", "logical_bytes",
    "ledger_records",
)
NEAR_COUNTS = ("wire_bytes", "stored_bytes")


@contextlib.contextmanager
def work_directory():
    """A scratch root inside the checkout, removed however the run ends."""
    path = os.path.join(WORK, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it


def reset_own_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS, so the reading
    after a section is that section's peak, not an earlier workload's."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")


def scrape(text: str) -> dict[str, float]:
    """Prometheus text -> ``{family: sum over label sets}``, plus one entry
    per ``family{reason="..."}`` for the admission-denial reasons."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        family, _, labels = series.partition("{")
        try:
            number = float(value)
        except ValueError:
            continue
        totals[family] = totals.get(family, 0.0) + number
        if family == "repro_admission_denied_total":
            for label in labels.rstrip("}").split(","):
                if label.startswith("reason="):
                    key = f"{family}{{{label}}}"
                    totals[key] = totals.get(key, 0.0) + number
    return totals


class Session:
    """One environment: work directory, hub (if the workload has one),
    the workload set up on it. Always closed, whatever happens."""

    def __init__(self, cls, args, root: str, traced: bool):
        self.traced = traced
        self.workload = cls(args.seed, args.seconds, quick=args.quick)
        self.hub = None
        self.root = root
        os.makedirs(root)

    def setup(self) -> float:
        start = time.perf_counter()
        if self.workload.uses_hub:
            hub_root = os.path.join(self.root, "hub")
            os.makedirs(hub_root)
            self.hub = HubProcess(hub_root, traced=self.traced).start()
        self.workload.setup(self.hub, self.root)
        return time.perf_counter() - start

    def measure(self) -> dict:
        """The timed section plus the readings taken around it."""
        workload, hub = self.workload, self.hub
        before = scrape(hub.metrics_text()) if hub and self.traced else {}
        hub_cpu = hub.cpu_seconds() if hub else 0.0
        if hub is None:
            reset_own_peak_rss()
        cpu = time.process_time()
        opened = time.perf_counter()
        ops = workload.run()
        closed = time.perf_counter()
        run = {
            "workload": workload,
            "ops": ops,
            "counts": dict(workload.counts),
            "wall_s": workload.wall_s,
            "window": (opened, closed),
            "client_cpu_s": time.process_time() - cpu,
            "hub_cpu_s": hub.cpu_seconds() - hub_cpu if hub else 0.0,
            "peak_rss_mb": hub.peak_rss_mb() if hub else peak_rss_mb(),
            "bytes_sent": sum(t.bytes_sent for t in workload.transports),
            "bytes_received": sum(t.bytes_received for t in workload.transports),
            "reconnects": sum(getattr(t, "reconnects", 0) for t in workload.transports),
        }
        if before:
            after = scrape(hub.metrics_text())
            run["hub_metrics"] = {k: v - before.get(k, 0.0) for k, v in after.items()}
        return run

    def hub_spans(self, window) -> dict:
        """Stop the traced hub and read the span summary it leaves."""
        if self.hub is None:
            return {"rows": {}, "root_s": 0.0, "spans": 0}
        with open(self.hub.trace_path + ".window", "w") as fh:
            json.dump(list(window), fh)
        trace_path = self.hub.trace_path
        self.hub.stop()
        with open(trace_path) as fh:
            return json.load(fh)

    def close(self) -> None:
        try:
            self.workload.close()
        finally:
            if self.hub is not None:
                self.hub.stop()


def untraced_pass(cls, args, root: str, setups: int):
    """Set up ``setups`` times (keeping the last), run, verify."""
    setup_times = []
    session = None
    try:
        for index in range(setups):
            if session is not None:
                session.close()
            session = Session(cls, args, os.path.join(root, f"plain-{index}"), False)
            setup_times.append(session.setup())
        run = session.measure()
        session.workload.verify()
        run["failures"] = list(session.workload.failures)
    finally:
        if session is not None:
            session.close()
    return median(setup_times), run


def traced_pass(cls, args, root: str):
    session = Session(cls, args, os.path.join(root, "traced"), True)
    tracer = Tracer()
    try:
        with tracer:
            session.setup()
            run = session.measure()
            session.workload.verify()
        run["failures"] = list(session.workload.failures)
        run["client_spans"] = tracer.summary(run["window"])
        run["hub_spans"] = session.hub_spans(run["window"])
        run.setdefault("hub_metrics", {})
    finally:
        session.close()
    return run


def repeat_failures(first: dict, second: dict) -> list[str]:
    """Counts that must be identical between two runs at one seed."""
    failures = []
    for key in EXACT_COUNTS:
        if first.get(key, 0) != second.get(key, 0):
            failures.append(f"{key} differs between two same-seed runs: "
                            f"{first.get(key, 0)} vs {second.get(key, 0)}")
    for key in NEAR_COUNTS:
        a, b = first.get(key, 0), second.get(key, 0)
        if abs(a - b) > BYTES_TOLERANCE * max(a, b, 1):
            failures.append(f"{key} differs between two same-seed runs: {a} vs {b}")
    return failures


def run_one(name: str, args, trace: int) -> dict:
    """One ``(workload, trace)`` measurement -> the driver's result object
    (plus ``details`` for the report and ``--out``)."""
    cls = WORKLOADS[name]
    with work_directory() as root:
        if trace == 0:
            setup_s, run = untraced_pass(cls, args, root, SETUPS)
            values = metrics.end_to_end(setup_s, run)
            units = {n: u for n, u, *_ in metrics.END_TO_END}
            runs = [run]
        else:
            _, plain = untraced_pass(cls, args, root, 1)
            traced = traced_pass(cls, args, root)
            traced["failures"] += repeat_failures(plain["counts"], traced["counts"])
            values = {**metrics.per_op(plain), **metrics.layer_table(traced, plain)}
            units = {n: u for n, u, *_ in metrics.PER_LAYER}
            runs = [plain, traced]
    failures = [f for run in runs for f in run["failures"]]
    errors = [e for run in runs for e in run["ops"].errors]
    attempted = sum(run["ops"].attempted for run in runs)
    failed = sum(run["ops"].failed for run in runs)
    details = {
        "steps": len(runs[0]["ops"].steps),
        "samples": {k: len(v) for k, v in runs[0]["ops"].samples.items()},
        "tails": {
            kind: found
            for kind, samples in runs[0]["ops"].samples.items()
            if (found := tail(samples))
        },
        "counts": runs[-1]["counts"],
        "wall_s": [run["wall_s"] for run in runs],
        "failures": failures,
        "op_errors": errors[:20],
    }
    if trace == 1:
        details["spans"] = {"client": traced["client_spans"]["spans"], "hub": traced["hub_spans"]["spans"]}
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "details": details,
    }


def environment(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    filesystem = "unknown"
    best = -1
    with open("/proc/mounts") as fh:
        for line in fh:
            _, mount, kind, *_ = line.split()
            if HERE.startswith(mount.rstrip("/") + "/") and len(mount) > best:
                filesystem, best = kind, len(mount)
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "work_filesystem": filesystem,
        "transport": "loopback HTTP, closed-loop clients",
        "page_cache": "warm",
        "flush_policy": "none (no fsync anywhere in the tree)",
    }


def report(name: str, trace: int, result: dict) -> None:
    details = result["details"]
    kind = "traced: per-layer" if trace else "untraced: end-to-end"
    print(f"== {name} ({kind}; {details['steps']} steps, "
          f"timed section {', '.join(f'{w:.1f} s' for w in details['wall_s'])})")
    print(f"   ops attempted {result['attempted']}, failed {result['failed']}; "
          f"samples {details['samples']}")
    for kind, (pct, value) in sorted(details["tails"].items()):
        print(f"   {kind}: p{pct:g} = {value * 1e3:.3f} ms")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:40s} {entry['value']:16.6f} {entry['unit']}")
    for failure in details["failures"] + details["op_errors"]:
        print(f"   FAILED CHECK: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=None, help="write the full JSON record here")
    parser.add_argument("--quick", action="store_true", help="tenth-size pass (tests)")
    args = parser.parse_args(argv)
    # A terminated run must unwind like an interrupted one: the finally
    # blocks stop the hub and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds is None:
        args.seconds = float(BASE_SECONDS)
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]

    stamp = environment(args)
    print(f"environment: {json.dumps(stamp, sort_keys=True)}")
    results = {}
    for name in names:
        for trace in traces:
            result = run_one(name, args, trace)
            report(name, trace, result)
            results[f"{name}/trace={trace}"] = result
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": stamp, "results": results}, fh, indent=1)

    # The driver's line: one workload, one pass -> that result; otherwise
    # the metrics of every pass, keyed by pass.
    if len(results) == 1:
        (last,) = results.values()
        line = {k: last[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {key: r["metrics"] for key, r in results.items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
