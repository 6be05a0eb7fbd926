"""The health surface on the CLI: `repro health` (human + JSON),
`--slo-config` on the serve path, and `repro stats --watch`."""

import io
import json
import socket
import threading

import pytest

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
        assert "error budget" in text
        assert "shedding: on" in text

    def test_health_json_is_the_raw_report(self, tmp_path):
        init_repo(tmp_path / "A")
        code, text = run_cli(["health", str(tmp_path / "A"), "--json"])
        assert code == 0, text
        report = json.loads(text)
        assert report["alive"] is True
        assert report["ready"] is True
        assert "slo" in report and "burn" in report


class TestSLOConfigFlag:
    def test_serve_applies_slo_config_file(self, tmp_path):
        init_repo(tmp_path / "A")
        slo_file = tmp_path / "slo.json"
        slo_file.write_text(json.dumps({
            "objectives": {"put_chunks": 7.5},
            "availability": 0.95,
            "shed_enabled": False,
        }))
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server_out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=([
                "serve", str(tmp_path / "A"), "--port", str(port),
                "--requests", "1", "--slo-config", str(slo_file),
            ],),
            kwargs={"out": server_out},
        )
        thread.start()
        url = f"http://127.0.0.1:{port}"
        code, text = None, ""
        for _ in range(50):
            code, text = run_cli(["health", url, "--json"])
            if code == 0:
                break
            import time

            time.sleep(0.1)
        thread.join(timeout=10)
        assert code == 0, text
        report = json.loads(text)
        # The served health report echoes the file's SLO, not defaults.
        assert report["slo"]["objectives"]["put_chunks"] == 7.5
        assert report["slo"]["availability"] == 0.95
        assert report["shedding"]["enabled"] is False

    @pytest.mark.timeout(60)  # an accepted config would bind and block
    @pytest.mark.parametrize("config, named", [
        ({"objectives": {"push": "fast"}}, "positive seconds"),
        ({"objectives": {"psuh": 2.0}}, "psuh"),
        ({"shed_enabld": False}, "shed_enabld"),
        ({"objectives": {"trace": 1.0}}, "unknown op 'trace'"),
    ])
    def test_bad_slo_config_fails_before_binding(self, tmp_path, config, named):
        init_repo(tmp_path / "A")
        bad = tmp_path / "slo.json"
        bad.write_text(json.dumps(config))
        code, text = run_cli([
            "serve", str(tmp_path / "A"), "--port", "0",
            "--requests", "1", "--slo-config", str(bad),
        ])
        assert code != 0
        assert named in text


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
