"""Hub over a real socket: routing, bearer auth, concurrency, denials."""

import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    AuthenticationError,
    QuotaExceededError,
    TransportError,
)
from repro.hub import RepositoryHub, serve_hub
from repro.remote import HttpTransport, clone_repository
from repro.remote.protocol import (
    decode_message,
    encode_message,
    raise_remote_error,
)

from helpers import build_workload_repo


@pytest.fixture
def http_hub(workload):
    hub = RepositoryHub()
    hub.add_tenant("ana", tokens=["tok-ana"])
    hub.add_tenant("ben", tokens=["tok-ben"])
    server = serve_hub(hub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield hub, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def push_over_http(server, local, workload, tenant, repo, token):
    transport = HttpTransport(server.repo_url(tenant, repo), token=token)
    remote = local.add_remote(f"{tenant}-{repo}", transport)
    try:
        return remote.push(workload.name)
    finally:
        transport.close()


class TestHttpRouting:
    def test_push_and_clone_through_tenant_urls(self, http_hub, workload):
        hub, server = http_hub
        local = build_workload_repo(workload)
        result = push_over_http(server, local, workload, "ana", "proj", "tok-ana")
        assert result.commits_sent == 2
        transport = HttpTransport(
            server.repo_url("ana", "proj") + "/rpc", token="tok-ana"
        )
        clone = clone_repository(transport, registry=local.registry)
        transport.close()
        assert len(clone.graph) == 2

    def test_both_tenants_dedup_over_http(self, http_hub, workload):
        hub, server = http_hub
        local = build_workload_repo(workload)
        push_over_http(server, local, workload, "ana", "proj", "tok-ana")
        push_over_http(server, local, workload, "ben", "proj", "tok-ben")
        stats = hub.stats()
        assert stats["tenant_usage"]["ana"] == stats["tenant_usage"]["ben"]
        assert stats["physical_bytes"] == stats["tenant_usage"]["ana"]

    def test_unknown_path_is_http_404(self, http_hub):
        hub, server = http_hub
        transport = HttpTransport(server.url)  # no /t/<tenant>/<repo>
        with pytest.raises(TransportError, match="404"):
            transport.call(encode_message({"op": "manifest"}))
        transport.close()

    @pytest.mark.parametrize("token", [None, "tok-ana"])
    @pytest.mark.parametrize("path", ["/nope", "/debug/profile", "/debug/slow"])
    def test_unknown_get_path_is_http_404(self, http_hub, path, token):
        # A valid tenant token opens no GET route beyond /metrics and
        # the probes.
        hub, server = http_hub
        request = urllib.request.Request(server.url + path)
        if token is not None:
            request.add_header("Authorization", f"Bearer {token}")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 404

    def test_missing_token_is_typed_denial_not_http_error(
        self, http_hub, workload
    ):
        hub, server = http_hub
        local = build_workload_repo(workload)
        with pytest.raises(AuthenticationError):
            push_over_http(server, local, workload, "ana", "proj", None)

    def test_concurrent_tenants_push_and_read(self, http_hub, workload):
        """Four clients across two tenants storming the hub: every
        operation lands, per-tenant histories stay correct."""
        hub, server = http_hub
        local = build_workload_repo(workload, commits=2)
        push_over_http(server, local, workload, "ana", "proj", "tok-ana")
        push_over_http(server, local, workload, "ben", "proj", "tok-ben")

        errors = []
        counts = {}

        def reader(tenant, token, n=6):
            try:
                for _ in range(n):
                    transport = HttpTransport(
                        server.repo_url(tenant, "proj"), token=token
                    )
                    clone = clone_repository(transport)
                    transport.close()
                    counts.setdefault(tenant, set()).add(len(clone.graph))
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [
            threading.Thread(target=reader, args=("ana", "tok-ana")),
            threading.Thread(target=reader, args=("ana", "tok-ana")),
            threading.Thread(target=reader, args=("ben", "tok-ben")),
            threading.Thread(target=reader, args=("ben", "tok-ben")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert counts == {"ana": {3}, "ben": {3}}

    def test_quota_denial_travels_typed_over_http(self, http_hub, workload):
        hub, server = http_hub
        hub.add_tenant("tiny", tokens=["tok-t"], quota_bytes=32)
        local = build_workload_repo(workload)
        with pytest.raises(QuotaExceededError):
            push_over_http(server, local, workload, "tiny", "proj", "tok-t")
        assert hub.tenant_usage("tiny") == 0

    def test_raw_request_against_wrong_tenant(self, http_hub):
        hub, server = http_hub
        transport = HttpTransport(
            server.repo_url("ben", "proj"), token="tok-ana"
        )
        meta, _ = decode_message(transport.call(encode_message({"op": "manifest"})))
        transport.close()
        with pytest.raises(Exception) as excinfo:
            raise_remote_error(meta)
        assert "AuthorizationError" in type(excinfo.value).__name__


class TestConcurrentScrapesDuringEviction:
    def test_metrics_and_health_scrapes_survive_repo_churn(
        self, tmp_path, workload
    ):
        """GET /metrics and /healthz//readyz hammered while the hub
        LRU-evicts and reloads repos underneath them: every scrape must
        be whole (parseable text, one # TYPE per family) and readiness
        must never go stale — eviction is bookkeeping, not unhealth."""
        import re
        import urllib.request

        hub = RepositoryHub(tmp_path / "hub", max_loaded_repos=1)
        hub.add_tenant("ana", tokens=["tok-ana"])
        hub.add_tenant("ben", tokens=["tok-ben"])
        local = build_workload_repo(workload)
        server = serve_hub(hub)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            push_over_http(server, local, workload, "ana", "proj", "tok-ana")
            push_over_http(server, local, workload, "ben", "proj", "tok-ben")

            stop = threading.Event()
            failures = []

            def churn():
                # Alternating manifests with max_loaded_repos=1: every
                # request evicts one repo and reloads the other.
                pairs = [("ana", "tok-ana"), ("ben", "tok-ben")]
                while not stop.is_set():
                    for tenant, token in pairs:
                        transport = HttpTransport(
                            server.repo_url(tenant, "proj"), token=token
                        )
                        try:
                            transport.call(
                                encode_message({"op": "manifest"})
                            )
                        except Exception as error:  # noqa: BLE001
                            failures.append(("churn", error))
                            stop.set()
                        finally:
                            transport.close()

            line_re = re.compile(
                r"^[a-z_]+(\{[^}]*\})? [0-9.e+-]+(\s[0-9.e+-]+)?$"
            )

            def scrape(path, check_body):
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                            f"{server.url}{path}", timeout=10
                        ) as resp:
                            body = resp.read().decode("utf-8")
                            if resp.status != 200:
                                failures.append((path, resp.status))
                            elif check_body:
                                types = [
                                    line for line in body.splitlines()
                                    if line.startswith("# TYPE ")
                                ]
                                # A torn scrape shows as a duplicated
                                # family header or a garbled series line.
                                if len(types) != len(set(types)):
                                    failures.append((path, "dup family"))
                                for line in body.splitlines():
                                    if line.startswith("#") or not line:
                                        continue
                                    if not line_re.match(line):
                                        failures.append((path, line))
                    except Exception as error:  # noqa: BLE001
                        failures.append((path, error))
                        stop.set()

            threads = [
                threading.Thread(target=churn),
                threading.Thread(target=scrape, args=("/metrics", True)),
                threading.Thread(target=scrape, args=("/healthz", False)),
                threading.Thread(target=scrape, args=("/readyz", False)),
            ]
            for t in threads:
                t.start()
            import time

            time.sleep(1.5)
            stop.set()
            for t in threads:
                t.join(timeout=10)
            assert not failures, failures[:3]
            # The churn really exercised the lifecycle under the scrapes.
            assert hub.evictions >= 2
            assert hub.loads >= 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
