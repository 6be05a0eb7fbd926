"""The health surface on the CLI: `repro health` (human + JSON) against
a directory and a served repository, and `repro stats --watch`."""

import io
import json
import socket
import threading
import time

from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def init_repo(path):
    code, text = run_cli([
        "init", str(path), "--workload", "readmission",
        "--scale", "0.3", "--seed", "0", "--commits", "1",
    ])
    assert code == 0, text


class TestHealthVerb:
    def test_health_against_directory_target(self, tmp_path):
        init_repo(tmp_path / "A")
        code, text = run_cli(["health", str(tmp_path / "A")])
        assert code == 0, text
        assert text.startswith("ready")
        assert "error budget: 99.00% availability target" in text
        assert "shedding: idle, 0 shed" in text

    def test_health_json_is_the_raw_report(self, tmp_path):
        init_repo(tmp_path / "A")
        code, text = run_cli(["health", str(tmp_path / "A"), "--json"])
        assert code == 0, text
        report = json.loads(text)
        assert report["alive"] is True
        assert report["ready"] is True
        assert "burn" in report and "slo" not in report


class TestServedPolicy:
    def test_serve_reports_the_fixed_policy(self, tmp_path):
        init_repo(tmp_path / "A")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server_out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=([
                "serve", str(tmp_path / "A"), "--port", str(port),
                "--requests", "1",
            ],),
            kwargs={"out": server_out},
        )
        thread.start()
        url = f"http://127.0.0.1:{port}"
        code, text = None, ""
        for _ in range(50):
            code, text = run_cli(["health", url])
            if code == 0:
                break
            time.sleep(0.1)
        thread.join(timeout=10)
        assert code == 0, text
        assert "error budget: 99.00% availability target" in text
        assert "shedding: idle, 0 shed" in text


class TestStatsWatch:
    def test_watch_rerenders_until_interrupted(self, tmp_path, monkeypatch):
        init_repo(tmp_path / "A")
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) >= 3:
                raise KeyboardInterrupt

        monkeypatch.setattr("time.sleep", fake_sleep)
        code, text = run_cli(["stats", str(tmp_path / "A"), "--watch", "2"])
        # Ctrl-C is the documented exit path and must exit cleanly.
        assert code == 0, text
        assert sleeps == [2.0, 2.0, 2.0]
        # One stamped render per iteration: 3 sleeps = 3 renders.
        assert text.count("--- ") == 3
        assert text.count("requests handled:") == 3

    def test_watch_floor_clamps_interval(self, tmp_path, monkeypatch):
        init_repo(tmp_path / "A")
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            raise KeyboardInterrupt

        monkeypatch.setattr("time.sleep", fake_sleep)
        code, _ = run_cli(["stats", str(tmp_path / "A"), "--watch", "0.0001"])
        assert code == 0
        assert sleeps == [0.1]
