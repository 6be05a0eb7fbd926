"""Paired budget runs: a parent and a change, alternating, on one machine.

    python3 benchmarks/paired.py --workload NAME [--seed N] [--pairs K]
        [--base REV] [--head REV|WORKTREE] [--trace 0|1] [--workdir DIR]
        [--history FILE]

Both sides are checked out into fresh directories beside each other
(``git archive`` of a revision; ``WORKTREE`` copies this checkout's tracked
and untracked-but-not-ignored files as they are on disk, so an uncommitted
change can be measured). Then ``benchmarks/budget/run.py --trace T
--workload W --seed S`` runs in each, alternately, for ``K`` pairs; the
side that goes first swaps every pair (ABBA), so a drift in the machine's
load does not favour one side. The budget is only ever run as a
subprocess, never imported or edited.

The last line of standard output is one JSON object: per metric the
per-pair values of both sides, their medians and quartiles, the change's win count (a
pair the change is strictly better in, by the metric's ``better``
direction in ``BENCHMARK.json``), the parent's inter-quartile distance,
and ``clears_iqr`` — whether the change's median is better than the
parent's by more than that distance. ``failed`` counts the failed
operations of each side, and ``incorrect`` the runs whose checks failed.
A gain is claimed when the change wins at least nine pairs in ten and
clears the IQR, at each of the seeds it is claimed for.

With ``--history FILE`` the run is also remembered: one JSON line per side
is appended to FILE (``benchmarks/results/history.jsonl`` is the committed
one) with the side's commit id (or ``WORKTREE``), the workload, seed,
trace flag and pair count, and the median of every end-to-end metric in
``BENCHMARK.json``; a traced run adds the medians of the per-layer rows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKTREE = "WORKTREE"


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True).stdout


def checkout(rev: str, dest: str) -> str:
    """Put ``rev``'s files (or the working tree's) under ``dest``; return
    what was checked out, as a commit id or ``WORKTREE``."""
    os.makedirs(dest)
    if rev == WORKTREE:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            source = os.path.join(ROOT, name)
            if os.path.isfile(source):  # skips deleted-but-tracked files
                os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
                shutil.copy2(source, os.path.join(dest, name))
        return WORKTREE
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"paired.py: git archive {commit} failed")
    return commit


def run_budget(checkout_dir: str, workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` pass -> its result line (``correct``, ``failed``,
    ``metrics``)."""
    done = subprocess.run(
        [sys.executable, "benchmarks/budget/run.py", "--trace", str(trace),
         "--workload", workload, "--seed", str(seed)],
        cwd=checkout_dir, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"paired.py: run.py in {checkout_dir} printed no result line "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        ) from None


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def directions() -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"``, from ``BENCHMARK.json``."""
    metrics = declared()
    return {m["name"]: m["better"] for m in metrics["end_to_end"] + metrics["per_layer"]}


def history_record(commit: str, side: str, workload: str, seed: int, trace: int,
                   runs: list[dict]) -> dict:
    """One side of a paired run as a ``history.jsonl`` line: the medians of
    its end-to-end metrics and, when traced, of its per-layer rows."""
    metrics = declared()

    def medians(group: str) -> dict[str, float]:
        return {
            m["name"]: statistics.median([r["metrics"][m["name"]]["value"] for r in runs])
            for m in metrics[group] if m["name"] in runs[0]["metrics"]
        }

    record = {"commit": commit, "side": side, "workload": workload, "seed": seed,
              "trace": trace, "pairs": len(runs), "end_to_end": medians("end_to_end")}
    if trace:
        record["layers"] = medians("per_layer")
    return record


def append_history(path: str, records: list[dict]) -> None:
    with open(path, "a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Per-pair values, quartiles, the change's wins and the IQR test."""
    sign = -1.0 if better == "lower" else 1.0
    parent_q, change_q = quartiles(parent), quartiles(change)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    parent_iqr = parent_q[2] - parent_q[0]
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": parent_q,
        "change_quartiles": change_q,
        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_iqr": parent_iqr,
        "clears_iqr": sign * (change_median - parent_median) > parent_iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--head", default=WORKTREE, help=f"the change: a revision or {WORKTREE} (default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None,
                        help="where the checkouts go, created if missing (default: a temp dir)")
    parser.add_argument("--history", default=None, metavar="FILE",
                        help="append one JSON line of medians per side to FILE")
    args = parser.parse_args(argv)

    if args.workdir is not None:
        os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="paired-", dir=args.workdir)
    try:
        sides = {}
        for side, rev in (("parent", args.base), ("change", args.head)):
            path = os.path.join(workdir, side)
            sides[side] = {"rev": checkout(rev, path), "path": path, "runs": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_budget(sides[side]["path"], args.workload, args.seed, args.trace)
                sides[side]["runs"].append(result)
                print(f"pair {pair + 1}/{args.pairs} {side}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.history:
        append_history(args.history, [
            history_record(s["rev"], side, args.workload, args.seed, args.trace, s["runs"])
            for side, s in sides.items()
        ])
    better = directions()
    parent_runs, change_runs = sides["parent"]["runs"], sides["change"]["runs"]
    names = [n for n in parent_runs[0]["metrics"] if n in better]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pairs": args.pairs,
        "parent": sides["parent"]["rev"],
        "change": sides["change"]["rev"],
        "failed": {side: sum(r["failed"] for r in s["runs"]) for side, s in sides.items()},
        "incorrect": {side: sum(not r["correct"] for r in s["runs"]) for side, s in sides.items()},
        "metrics": {
            name: summarize(
                [r["metrics"][name]["value"] for r in parent_runs],
                [r["metrics"][name]["value"] for r in change_runs],
                better[name],
            )
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
