"""The hub under test: a real ``repro hub serve`` subprocess on a disk root.

The benchmark never imports the hub into the driver to serve requests:
every hub workload talks HTTP over loopback to a child process started
exactly as an operator would start it (``python -m repro.cli hub serve
<root> --port 0``, shipped default flags — instrumentation, shedding and
SLOs on), rooted on disk so chunks live in ``FileChunkStore``. The traced
pass starts the same server through ``traced_hub.py`` instead, which
installs the layer wrappers first and dumps its span summary on SIGTERM.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from repro.hub import RepositoryHub
from repro.remote import HttpTransport

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

TENANT = "bench"
TOKEN = "bench-token"
READY_TIMEOUT = 30.0
STOP_TIMEOUT = 20.0


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise KeyError("VmHWM")


class HubStartError(RuntimeError):
    pass


class HubProcess:
    """Start, address, measure and always stop one hub subprocess."""

    def __init__(self, root: str, traced: bool = False):
        self.root = root
        self.traced = traced
        self.trace_path = os.path.join(root, "hub-trace.json") if traced else None
        self.process: subprocess.Popen | None = None
        self.url = ""
        self._lines: queue.Queue = queue.Queue()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "HubProcess":
        # The tenant registry is written through the public API before the
        # server starts, the way `repro hub add-tenant` does it.
        RepositoryHub(self.root).add_tenant(TENANT, tokens=[TOKEN])
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        if self.traced:
            command = [
                sys.executable,
                os.path.join(HERE, "traced_hub.py"),
                self.trace_path,
            ]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        command += ["hub", "serve", self.root, "--port", "0"]
        self._log = open(os.path.join(self.root, "hub.stderr"), "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        # stdout is drained for the whole life of the child so it can
        # never block on a full pipe; the ready line is picked out of it.
        threading.Thread(target=self._drain, daemon=True).start()
        self.url = self._await_ready()
        return self

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(remaining, 0.01))
            except queue.Empty:
                line = None
                remaining = -1.0
            if line is None or remaining <= 0:
                self.stop()
                raise HubStartError(
                    "hub subprocess did not report hub.ready within "
                    f"{READY_TIMEOUT:.0f} s (see {self.root}/hub.stderr)"
                )
            try:
                event = json.loads(line)
            except ValueError:
                continue  # the human-readable banner line
            if isinstance(event, dict) and event.get("event") == "hub.ready":
                return event["endpoint"].split("/t/")[0]

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL if it lingers; safe to call repeatedly."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            process.stdout.close()
            self._log.close()

    # ------------------------------------------------------------ addressing
    def transport(self, repo: str, timeout: float = 30.0) -> HttpTransport:
        """A fresh connection to ``bench/<repo>``; ``timeout`` bounds every
        request on it, so a stuck hub fails the op instead of hanging."""
        return HttpTransport(
            f"{self.url}/t/{TENANT}/{repo}", timeout=timeout, token=TOKEN
        )

    # ----------------------------------------------------------- readouts
    def metrics_text(self) -> str:
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10) as response:
            return response.read().decode("utf-8")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def disk_bytes(self, subdir: str) -> int:
        total = 0
        for directory, _, files in os.walk(os.path.join(self.root, subdir)):
            for name in files:
                total += os.path.getsize(os.path.join(directory, name))
        return total

    def stored_bytes(self) -> int:
        """Everything the hub keeps for its repositories: chunk files plus
        per-repository metadata (not its own log or trace file)."""
        return self.disk_bytes("chunks") + self.disk_bytes("tenants")
