"""Telemetry end to end: /metrics over HTTP, the stats op, transport
reconnect accounting, and the CLI surface."""

import io
import json
import pathlib
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.errors import AuthenticationError, QuotaExceededError
from repro.hub import RepositoryHub, serve_hub
from repro.obs import metrics as obs_metrics
from repro.remote import HttpTransport, clone_repository, serve
from repro.remote.client import Remote
from repro.remote.protocol import decode_message, encode_message

from helpers import fresh_toy_repo


def scrape(url: str) -> tuple[str, str]:
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
        assert resp.status == 200
        return resp.read().decode("utf-8"), resp.headers.get("Content-Type")


class TestMetricsEndpoint:
    def test_serve_exposes_prometheus_text(self, http_server, server_repo):
        clone_repository(
            HttpTransport(http_server.url), registry=server_repo.registry
        )
        body, content_type = scrape(http_server.url)
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_requests_total counter" in body
        # A clone is manifest + fetch + get_chunks, each counted per op.
        for op in ("manifest", "fetch", "get_chunks"):
            assert f'repro_requests_total{{op="{op}",tenant="-",repo="-"}} 1' in body
        # Latency histogram scraped alongside, _count matching +Inf.
        assert 'repro_request_seconds_bucket{op="fetch",tenant="-",repo="-",le="+Inf"} 1' in body

    @pytest.mark.parametrize("path", ["/nope", "/debug/profile", "/debug/slow"])
    def test_unknown_get_path_is_404(self, http_server, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{http_server.url}{path}", timeout=10)
        assert err.value.code == 404

    def test_hub_endpoint_reports_admission_outcomes(self, tmp_path):
        hub = RepositoryHub()
        hub.add_tenant("ana", tokens=["tok"])
        server = serve_hub(hub)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            bad = HttpTransport(server.repo_url("ana", "proj"), token="wrong")
            # Denials travel as typed error bodies over HTTP 200; the
            # client layer maps them back onto the exception hierarchy.
            meta, _ = decode_message(bad.call(encode_message({"op": "manifest"})))
            assert meta["error"]["type"] == "AuthenticationError"
            bad.close()
            body, _ = scrape(server.url)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert 'repro_admission_total{tenant="ana",outcome="denied"} 1' in body
        assert 'repro_admission_denied_total{tenant="ana",reason="auth"} 1' in body


def series_total(body: str, series: str) -> float:
    """Sum of every sample whose name and labels start with ``series``."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in body.splitlines()
        if line.startswith((series + " ", series + "{", series + ","))
    )


#: The metric table of the observability reference: every family a
#: deployment can expose, one ``| `repro_...` |`` row each.
OBSERVABILITY_DOC = pathlib.Path(__file__).parents[2] / "docs" / "observability.md"

#: Documented families only a client process registers; a hub's scrape
#: never carries them.
CLIENT_FAMILIES = {"repro_transport_reconnects_total"}


def documented_families() -> set[str]:
    text = OBSERVABILITY_DOC.read_text(encoding="utf-8")
    return set(re.findall(r"^\| `(repro_[a-z0-9_]+)` \|", text, re.MULTILINE))


def scraped_families(body: str) -> set[str]:
    return set(re.findall(r"^# TYPE (repro_[a-z0-9_]+) ", body, re.MULTILINE))


class TestLiveHub:
    """One in-process hub on port 0, driven the way a deployment is: a
    client pushes real lineage over HTTP, three clones read it back (the
    third from the response cache: a response is stored on its second
    request), one request is refused for its token and one push for its
    quota, and ``GET /metrics`` is scraped. The client and the hub share
    nothing but the wire."""

    @pytest.fixture(scope="class")
    def deployment(self):
        hub = RepositoryHub()
        hub.add_tenant("ana", tokens=["tok"])
        hub.add_tenant("cramped", tokens=["tok-c"], quota_bytes=64)
        server = serve_hub(hub, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        alice = fresh_toy_repo()

        def transport(tenant, token):
            return HttpTransport(server.repo_url(tenant, "proj"), token=token)

        try:
            pusher = transport("ana", "tok")
            Remote(alice, pusher, name="hub").push("toy")
            pusher.close()
            for _ in range(3):
                reader = transport("ana", "tok")
                clone_repository(reader, registry=alice.registry)
                reader.close()
            for tenant, token, error in (
                ("ana", "wrong", AuthenticationError),
                ("cramped", "tok-c", QuotaExceededError),
            ):
                refused = transport(tenant, token)
                with pytest.raises(error):
                    Remote(alice, refused, name=tenant).push("toy")
                refused.close()
            body, _ = scrape(server.url)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        return body

    def test_the_scrape_carries_the_vital_signs(self, deployment):
        body = deployment
        for series in (
            "repro_requests_total", "repro_request_seconds_bucket",
            "repro_cache_hits_total", "repro_lineage_records_total",
            'repro_chunk_written_bytes_total{tenant="ana"',
        ):
            assert series_total(body, series) > 0, series
        # each refusal is counted once, under its own reason
        assert series_total(
            body, 'repro_admission_denied_total{tenant="ana",reason="auth"}'
        ) == 1
        assert series_total(
            body, 'repro_admission_denied_total{tenant="cramped",reason="quota"}'
        ) == 1
        # admission denials are not handler failures: nothing burned
        assert series_total(body, "repro_request_errors_total") == 0

    def test_the_scrape_is_the_documented_metric_table(self, deployment):
        scraped = scraped_families(deployment)
        documented = documented_families()
        assert CLIENT_FAMILIES <= documented
        assert scraped - documented == set(), "families missing from the docs"
        assert documented - CLIENT_FAMILIES - scraped == set(), (
            "documented families a live hub does not expose"
        )


class TestStatsOp:
    def test_remote_stats_readout(self, http_server, server_repo):
        transport = HttpTransport(http_server.url)
        clone_repository(transport, registry=server_repo.registry)
        stats = Remote(repo=None, transport=transport).stats()
        transport.close()
        assert stats["requests_handled"] >= 3  # clone is three ops
        assert stats["repository"]["commits"] == len(server_repo.graph)
        assert set(stats["cache"]) >= {"hits", "misses", "hit_rate"}
        assert stats["storage"]["physical_bytes"] > 0

    def test_repeated_reads_show_up_as_cache_hits(self, http_server, server_repo):
        transport = HttpTransport(http_server.url)
        request = encode_message({"op": "manifest"})
        for _ in range(4):  # stored on the second, served on the rest
            transport.call(request)
        stats = Remote(repo=None, transport=transport).stats()
        transport.close()
        assert stats["cache"]["hits"] >= 2
        assert stats["cache"]["hit_rate"] > 0


class TestTransportReconnect:
    @pytest.mark.timeout(60)
    def test_stale_socket_replay_is_counted_and_announced(
        self, server_repo, capsys
    ):
        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            server = serve(server_repo, host="127.0.0.1", port=0,
                           idle_timeout=0.3)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            # The counter child resolves at construction: the transport
            # must be built while the registry is installed.
            transport = HttpTransport(server.url)
            try:
                transport.call(encode_message({"op": "manifest"}))
                time.sleep(0.8)  # let the server idle-close the socket
                transport.call(encode_message({"op": "manifest"}))
            finally:
                transport.close()
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
            assert transport.reconnects == 1
            host = f"{transport.host}:{transport.port}"
            assert registry.value(
                "repro_transport_reconnects_total", host=host
            ) == 1
        finally:
            obs_metrics.uninstall()
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if '"transport.reconnect"' in line
        ]
        assert len(events) == 1
        assert events[0]["host"] == transport.host
        assert events[0]["reconnects"] == 1


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def init_repo(path):
    code, _ = run_cli([
        "init", str(path), "--workload", "readmission",
        "--scale", "0.3", "--commits", "1",
    ])
    assert code == 0


class TestStatsVerb:
    def test_stats_against_a_directory(self, tmp_path):
        init_repo(tmp_path / "repo")
        code, text = run_cli(["stats", str(tmp_path / "repo")])
        assert code == 0, text
        assert "requests handled:" in text
        assert "cache:" in text and "storage:" in text
        assert "repository: 2 commits" in text

    def test_stats_json(self, tmp_path):
        init_repo(tmp_path / "repo")
        code, text = run_cli(["stats", str(tmp_path / "repo"), "--json"])
        assert code == 0, text
        stats = json.loads(text)
        assert stats["repository"]["commits"] == 2
        assert "cache" in stats and "storage" in stats

    def test_stats_against_a_dead_server_fails_cleanly(self):
        code, text = run_cli(["stats", "http://127.0.0.1:1"])
        assert code == 1
        assert "error:" in text


class TestStartupEvents:
    def ready_event(self, text, name):
        events = [
            json.loads(line)
            for line in text.splitlines()
            if line.startswith("{")
        ]
        matches = [e for e in events if e.get("event") == name]
        assert len(matches) == 1, text
        return matches[0]

    def test_serve_emits_a_ready_event(self, tmp_path):
        init_repo(tmp_path / "repo")
        # --requests 0: bind, announce, exit — the event line is the test.
        code, text = run_cli([
            "serve", str(tmp_path / "repo"), "--port", "0", "--requests", "0",
        ])
        assert code == 0, text
        assert "serving" in text  # the human line survives
        event = self.ready_event(text, "serve.ready")
        assert event["endpoint"].endswith("/rpc")
        assert event["commits"] == 2
        assert event["request_budget"] == 0

    def test_hub_serve_emits_a_ready_event(self, tmp_path):
        root = str(tmp_path / "hub")
        assert run_cli(["hub", "init", root])[0] == 0
        assert run_cli([
            "hub", "add-tenant", root, "ana", "--token", "s",
        ])[0] == 0
        code, text = run_cli([
            "hub", "serve", root, "--port", "0", "--requests", "0",
        ])
        assert code == 0, text
        assert "serving hub" in text
        event = self.ready_event(text, "hub.ready")
        assert "/t/<tenant>/<repo>/rpc" in event["endpoint"]
        assert event["tenants"] == 1
