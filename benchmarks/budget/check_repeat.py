"""Is the benchmark steady enough to gate on?  Run it again and compare.

    python3 benchmarks/budget/check_repeat.py            # 2 runs at one seed + 1 at another
    python3 benchmarks/budget/check_repeat.py --spread 10  # the driver's test: ten seeds

Default mode runs every workload untraced twice at ``--seed`` and once at
``--seed + 1`` and prints, per end-to-end metric, how far the two
same-seed runs disagree (as a share of the better one) against the
metric's bound from ``BENCHMARK.json``; the third run shows what a change
of seed alone moves. ``--spread N`` runs N different seeds and prints the
inter-quartile distance over the median — the figure the driver accepts or
rejects the benchmark on. Exit code 1 when any end-to-end metric is
outside its bound (``setup_s`` is reported but, as in the driver's spread
test, not gated), or when a run fails its own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

from stats import median, spread  # noqa: E402 - needs the path entry above

RUN_TIMEOUT = 600  # seconds; the driver allows 180, a loaded box gets slack


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float | None) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run N seeds and report IQR/median instead")
    args = parser.parse_args(argv)
    spec = benchmark()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worse = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    outside = 0
    for workload in workloads:
        if args.spread:
            seeds = [args.seed + i for i in range(args.spread)]
        else:
            seeds = [args.seed, args.seed, args.seed + 1]
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"  ran {workload} seed {seed}", file=sys.stderr, flush=True)
        print(f"== {workload}")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            if args.spread:
                figure = spread(values)
                note = f"median {median(values):.6g}, IQR/median {figure:.4f}"
            else:
                first, second, other = values
                figure = abs(first - second) / min(first, second)
                drift = worse[name] * (other - first) / first
                note = (f"{first:.6g} vs {second:.6g}: apart {figure:.4f}; "
                        f"other seed {other:.6g} ({drift:+.4f})")
            verdict = "ok"
            if figure > bound:
                verdict = "OUTSIDE" if name != "setup_s" else "outside (not gated)"
                outside += name != "setup_s"
            elif figure > bound / 3:
                verdict = "ok (above a third of the bound)"
            print(f"   {name:32s} bound {bound:.2f}  {note}  {verdict}")
    return 1 if outside else 0


if __name__ == "__main__":
    raise SystemExit(main())
