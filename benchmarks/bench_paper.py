"""The paper's evaluation (section VII): every figure of
``repro.experiments.figures.FIGURES``, and every claim its record owes.

    python -m pytest benchmarks/bench_paper.py -q                       # full sizes
    REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_paper.py -q   # CI sizes

``test_figure[<name>]`` runs a figure at its ``full`` sizes (``smoke``
under ``REPRO_BENCH_SMOKE=1``), seed 0, and writes two files under
``benchmarks/results/`` (``benchmarks/results/smoke/`` for a smoke run,
so it never overwrites the committed full-size records):
``BENCH_<name>.json`` (the record's ``exact`` and ``timing`` halves,
stamped with the smoke flag, sizes, seed and commit) and ``<name>.txt``
(the rendered figure). ``test_claim[<name>:<claim>]`` checks one claim
of the paper against that record; a claim marked ``xfail`` in the
registry is a strict expected failure, so the fix that makes it hold
must also drop the mark.
"""

import functools
import json
import os
import subprocess

import pytest

from repro.experiments.figures import FIGURES

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZE = "smoke" if SMOKE else "full"
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
if SMOKE:
    RESULTS_DIR = os.path.join(RESULTS_DIR, "smoke")
SEED = 0


@functools.cache
def record(name: str) -> dict:
    figure = FIGURES[name]
    return figure.run(figure.sizes[SIZE], SEED)


def _git_commit() -> str | None:
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=RESULTS_DIR,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return probe.stdout.strip() or None if probe.returncode == 0 else None


@pytest.mark.parametrize("name", FIGURES)
def test_figure(name):
    result = record(name)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(result["table"] + "\n")
    stamped = {
        "benchmark": name,
        "exact": result["exact"],
        "timing": result["timing"],
        "smoke": SMOKE,
        "sizes": FIGURES[name].sizes[SIZE],
        "seed": SEED,
        "commit": _git_commit(),
    }
    with open(os.path.join(RESULTS_DIR, f"BENCH_{name}.json"), "w") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n[{name}]\n{result['table']}")


@pytest.mark.parametrize("name,claim", [
    pytest.param(
        name, claim, id=f"{name}:{claim.name}",
        marks=[pytest.mark.xfail(strict=True, reason=claim.xfail)] if claim.xfail else [],
    )
    for name, figure in FIGURES.items()
    for claim in figure.claims_at(SIZE)
])
def test_claim(name, claim):
    assert claim.holds(record(name)), f"{name}:{claim.name} fails: {claim.statement}"
