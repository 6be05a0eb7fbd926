"""Tests of the benchmark itself: ``python -m pytest benchmarks/budget/tests``.

The quick pass (tenth-size sections) is shared per session, so the whole
directory stays around half a minute.
"""

import argparse
import os
import sys

import pytest

BUDGET = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.normpath(os.path.join(BUDGET, "..", ".."))
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BUDGET) if p not in sys.path]

QUICK = argparse.Namespace(seed=3, seconds=14.0, quick=True)


@pytest.fixture(scope="session")
def quick_results():
    """``{(workload, trace): result}`` for the passes the tests read."""
    import run

    wanted = [
        ("collab_cycle", 0),
        ("read_storm", 1),
        ("local_evolve_merge", 1),
    ]
    return {key: run.run_one(key[0], QUICK, key[1]) for key in wanted}
