"""Smoke tests: every example script runs to completion in-process."""

import os
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "storage_dedup.py",
    "linear_evolution.py",
    "retrospective_audit.py",
    "readmission_collaboration.py",
    "remote_collaboration.py",
    "hub_multitenant.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = os.path.join(EXAMPLES_DIR, script)
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} printed nothing"


def test_quickstart_tells_the_story(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "master.0.0" in output
    assert "merge result" in output
    assert "dedup" in output


def test_collaboration_shows_naive_failure(capsys):
    runpy.run_path(
        os.path.join(EXAMPLES_DIR, "readmission_collaboration.py"),
        run_name="__main__",
    )
    output = capsys.readouterr().out
    assert "naive latest-components merge fails" in output
    assert "metric-driven merge" in output


def test_all_examples_present():
    scripts = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
    assert len(scripts) >= 3  # the deliverable floor
    assert "quickstart.py" in scripts
