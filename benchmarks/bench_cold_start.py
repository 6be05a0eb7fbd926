"""What a fresh process costs before it does anything: the import tiers.

Five entry points, each started ``RUNS`` times as a fresh interpreter:

* ``import repro.cli`` — what every verb pays first;
* ``repro --help`` — the cheapest complete command;
* ``hub serve until ready`` — ``repro hub serve ROOT --port 0`` up to its
  ``hub.ready`` event (what an operator waits for on a restart, and what
  the budget's ``setup_s`` contains);
* ``repro stats URL`` — a sync verb against a live hub, connect to answer;
* ``import repro.workloads`` — the ML tier, for scale.

Recorded per entry point: the median wall of the whole process in
milliseconds (for the hub: until the ready line), its peak resident set
(``VmHWM``; ``ru_maxrss`` would report the forking parent's),
``len(sys.modules)`` at exit (the probe's own ``json`` included), and
``loads`` — whether numpy, scipy and the ``repro.ml`` stack were imported.
``compare_baselines`` holds ``loads`` ``exact``: a serving process that
starts loading numpy again shows up in the PR that does it.
The milliseconds and megabytes are this machine's; they are recorded for
the next PR to diff, never gated.
"""

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import pytest
from conftest import BENCH_SMOKE, write_bench_record, write_result

from repro.experiments.report import format_table
from repro.hub import RepositoryHub

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))
ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
RUNS = 3 if BENCH_SMOKE else 7
TENANT, REPO, TOKEN = "bench", "cold", "bench-token"

#: Runs ``{statement}`` in a fresh interpreter, then reports on itself.
PROBE = """
import json, sys
try:
    {statement}
    status = 0
except SystemExit as stop:
    status = stop.code or 0
stack = ("repro.ml", "repro.workloads", "repro.experiments", "repro.baselines")
with open("/proc/self/status") as status_file:
    hwm_kb = next(int(line.split()[1]) for line in status_file if line.startswith("VmHWM:"))
print(json.dumps({{
    "probe": True,
    "status": status,
    "modules": len(sys.modules),
    "peak_rss_mb": hwm_kb / 1024.0,
    "loads": {{
        "numpy": "numpy" in sys.modules,
        "scipy": "scipy" in sys.modules,
        "repro.ml": any(m.startswith(stack) for m in sys.modules),
    }},
}}))
"""

SERVING = {"numpy": False, "scipy": False, "repro.ml": False}
ML = {"numpy": True, "scipy": True, "repro.ml": True}


def run_probe(statement: str, until_event: str | None = None) -> dict:
    """One fresh process: its self-report plus ``wall_ms`` — to exit, or
    to the first ``until_event`` line on its standard output."""
    start = perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", PROBE.format(statement=statement)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=ENV,
    )
    report, wall = None, None
    for line in process.stdout:
        try:
            event = json.loads(line)
        except ValueError:
            continue  # banners, help text, a verb's own multi-line output
        if not isinstance(event, dict):
            continue
        if until_event is not None and event.get("event") == until_event and wall is None:
            wall = perf_counter() - start
        if event.get("probe"):
            report = event
    process.wait(timeout=60)
    if until_event is None:
        wall = perf_counter() - start
    assert report is not None and report["status"] == 0 and wall is not None, statement
    report["wall_ms"] = wall * 1000.0
    return report


def cli(argv: list[str]) -> str:
    return f"from repro.cli import main; sys.exit(main({argv!r}))"


def measure(statement: str, until_event: str | None = None) -> dict:
    reports = [run_probe(statement, until_event) for _ in range(RUNS)]
    loads = reports[0]["loads"]
    assert all(r["loads"] == loads for r in reports)
    return {
        "wall_ms": statistics.median(r["wall_ms"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "modules": reports[0]["modules"],
        "loads": loads,
    }


def start_hub(root: str):
    """A live ``repro hub serve`` for the ``stats`` probes: ``(process, url)``."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "hub", "serve", root, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=ENV,
    )
    for line in process.stdout:
        event = json.loads(line) if line.startswith("{") else {}
        if event.get("event") == "hub.ready":
            return process, event["endpoint"].split("/t/")[0]
    process.wait(timeout=60)
    raise AssertionError(f"hub exited with {process.returncode} before hub.ready")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cold_start(tmp_path):
    root = str(tmp_path / "hub")
    hub = RepositoryHub(root)
    hub.add_tenant(TENANT, tokens=[TOKEN])
    hub.create_repo(TENANT, REPO)
    serve = ["hub", "serve", root, "--port", "0", "--requests", "0"]

    record = {
        "import repro.cli": measure("import repro.cli"),
        "repro --help": measure(cli(["--help"])),
        "hub serve until ready": measure(cli(serve), until_event="hub.ready"),
        "import repro.workloads": measure("import repro.workloads"),
    }
    process, url = start_hub(root)
    try:
        stats = ["stats", url, "--tenant", f"{TENANT}/{REPO}", "--token", TOKEN, "--json"]
        record["repro stats URL"] = measure(cli(stats))
    finally:
        process.terminate()
        process.wait(timeout=30)
        process.stdout.close()
    record["runs"] = RUNS

    entries = [name for name in record if name != "runs"]
    rows = [
        [
            name,
            f"{record[name]['wall_ms']:.0f}",
            f"{record[name]['peak_rss_mb']:.1f}",
            str(record[name]["modules"]),
            ", ".join(k for k, loaded in record[name]["loads"].items() if loaded) or "-",
        ]
        for name in entries
    ]
    text = format_table(
        ["fresh process", "wall ms", "peak RSS MB", "modules", "loads"],
        rows,
        title=f"Cold start per entry point (median of {RUNS} fresh processes)",
    )
    write_result("cold_start.txt", text)
    write_bench_record("cold_start", record)

    # the tiers of docs/invariants.md, as observed from outside
    for name in entries:
        expected = ML if name == "import repro.workloads" else SERVING
        assert record[name]["loads"] == expected, name
