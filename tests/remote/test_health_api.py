"""The health surface over the wire: the `health` RPC op, the
unauthenticated `/healthz` + `/readyz` probe routes, and the client's
overload-retry backoff against a canned transport."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import RemoteProtocolError, ServerOverloadedError
from repro.remote import serve
from repro.remote.client import OVERLOAD_RETRIES, Remote
from repro.remote.protocol import encode_message, error_response


class TestHealthOp:
    def test_health_op_reports_over_local_transport(self, transport):
        report = Remote(repo=None, transport=transport).health()
        assert report["alive"] is True
        assert report["ready"] is True
        assert report["reasons"] == []
        assert "ops" in report and "burn" in report and "shedding" in report
        # The policy is fixed: no config block rides along, and
        # shedding has no on/off switch to report.
        assert "slo" not in report
        assert set(report["shedding"]) == {"active", "total", "by_op"}

    def test_stats_carries_a_health_section(self, transport):
        stats = Remote(repo=None, transport=transport).stats()
        assert stats["health"]["ready"] is True
        assert stats["health"]["reasons"] == []


@pytest.fixture
def http_server(server_repo):
    server = serve(server_repo, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def probe(server, path):
    try:
        with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class _NotReady:
    def alive(self):
        return True

    def ready(self):
        return False, ["synthetic outage"]


class TestProbeRoutes:
    def test_healthz_is_liveness(self, http_server):
        status, body = probe(http_server, "/healthz")
        assert status == 200
        assert body == {"alive": True}

    def test_readyz_reports_ready(self, http_server):
        status, body = probe(http_server, "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["reasons"] == []

    def test_readyz_answers_503_with_reasons(self, http_server):
        http_server.health_monitor = _NotReady()
        status, body = probe(http_server, "/readyz")
        assert status == 503
        assert body == {"ready": False, "reasons": ["synthetic outage"]}
        # Liveness is unaffected: the process is reachable, just not
        # ready for traffic.
        assert probe(http_server, "/healthz")[0] == 200


class _OverloadedTransport:
    """Answers `error_response(ServerOverloadedError)` for the first
    `sheds` calls, then a canned success — the decoded-response path
    the retry loop actually exercises."""

    def __init__(self, sheds, retry_after=0.05):
        self.sheds = sheds
        self.retry_after = retry_after
        self.calls = 0

    def call(self, payload: bytes) -> bytes:
        self.calls += 1
        if self.calls <= self.sheds:
            return error_response(
                ServerOverloadedError(
                    "synthetic overload", retry_after=self.retry_after
                )
            )
        return encode_message({"refs": {}, "config": {}})


class TestClientBackoff:
    def test_retries_through_transient_overload(self):
        delays = []
        transport = _OverloadedTransport(sheds=2)
        remote = Remote(repo=None, transport=transport, backoff=delays.append)
        assert remote.manifest()["refs"] == {}
        assert transport.calls == 3
        # Full jitter over [0.5, 1.5) * retry_after * 2^attempt.
        assert len(delays) == 2
        assert 0.5 * 0.05 <= delays[0] < 1.5 * 0.05
        assert 0.5 * 0.10 <= delays[1] < 1.5 * 0.10

    def test_exhausted_retries_propagate_typed(self):
        delays = []
        transport = _OverloadedTransport(sheds=10)
        remote = Remote(repo=None, transport=transport, backoff=delays.append)
        with pytest.raises(ServerOverloadedError) as caught:
            remote.manifest()
        assert caught.value.retry_after == 0.05
        assert transport.calls == OVERLOAD_RETRIES + 1  # initial try + retries
        assert len(delays) == OVERLOAD_RETRIES

    @pytest.mark.parametrize("retry_after", [
        "1", None, [1], {"s": 1}, True, -1, float("inf"), float("nan"), 10**400,
    ], ids=["str", "null", "list", "object", "bool", "negative", "Infinity",
            "NaN", "int-past-float"])
    def test_a_bad_retry_after_is_a_protocol_error_and_never_sleeps(self, retry_after):
        delays = []
        transport = _OverloadedTransport(sheds=10, retry_after=retry_after)
        remote = Remote(repo=None, transport=transport, backoff=delays.append)
        with pytest.raises(RemoteProtocolError, match="'retry_after'"):
            remote.manifest()
        assert transport.calls == 1
        assert delays == []

    def test_a_retry_after_past_what_the_platform_sleeps_raises_typed(self):
        # Finite, so the protocol takes it; any jittered backoff of it is
        # past threading.TIMEOUT_MAX, where time.sleep raises
        # OverflowError. The hint is the answer, and nothing sleeps.
        delays = []
        transport = _OverloadedTransport(sheds=10, retry_after=1e12)
        remote = Remote(repo=None, transport=transport, backoff=delays.append)
        with pytest.raises(ServerOverloadedError) as caught:
            remote.manifest()
        assert caught.value.retry_after == 1e12
        assert transport.calls == 1
        assert delays == []
