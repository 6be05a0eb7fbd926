"""Observability-driven load shedding at hub admission: the typed
denial, the pre-mutation guarantee, the denial-mix label, and the
shed-exempt instrument ops — under the fixed policy, with the hub's
monitor swapped for one on a hand-advanced clock."""

import pytest

from repro.errors import ServerOverloadedError
from repro.hub import RepositoryHub
from repro.obs.health import (
    MIN_SAMPLES,
    RETRY_AFTER_SECONDS,
    TICK_SECONDS,
    HealthMonitor,
)
from repro.ops import OP_TABLE
from repro.remote.client import OVERLOAD_RETRIES, Remote
from repro.storage import sha256_hex


class Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def breach_put_chunks(hub, n=MIN_SAMPLES):
    """Feed over-objective put_chunks observations straight into the hub
    registry (the same family the hosted servers populate), then advance
    the monitor's clock past a tick so its next window sees them."""
    child = hub.registry.histogram(
        "repro_request_seconds",
        "End-to-end request handling latency",
        ("op", "tenant", "repo"),
    ).labels(op="put_chunks", tenant="ana", repo="proj")
    for _ in range(n):
        child.observe(2 * OP_TABLE["put_chunks"].p99_seconds)
    hub.health._clock.now += 2 * TICK_SECONDS


@pytest.fixture
def shedding_hub():
    hub = RepositoryHub()
    # Before any repository loads: hosted servers answer the health op
    # from whichever monitor the hub holds when they are built.
    hub.health = HealthMonitor(registry=hub.registry, clock=Clock())
    hub.add_tenant("ana", tokens=["tok"])
    hub.create_repo("ana", "proj")
    return hub


def remote_for(hub, backoff=None):
    return Remote(
        repo=None,
        transport=hub.local_transport("ana", "proj", "tok"),
        backoff=backoff if backoff is not None else (lambda seconds: None),
    )


class TestShedDenial:
    def test_shed_is_typed_counted_and_never_mutates(self, shedding_hub):
        hub = shedding_hub
        breach_put_chunks(hub)
        blob = b"shed me" * 64
        digest = sha256_hex(blob)
        remote = remote_for(hub)
        with pytest.raises(ServerOverloadedError) as caught:
            remote._call({"op": "put_chunks", "digests": [digest]}, [blob])
        # The typed error carries the policy's backoff hint verbatim.
        assert caught.value.retry_after == RETRY_AFTER_SECONDS
        # Shed before any repository state was touched: the chunk never
        # landed, and every attempt is attributed in the admission mix.
        meta, _ = remote._call({"op": "missing_chunks", "digests": [digest]})
        assert meta["missing"] == [digest]
        assert hub.registry.value(
            "repro_admission_denied_total", tenant="ana", reason="overload"
        ) == OVERLOAD_RETRIES + 1
        assert hub.health.health()["shedding"]["total"] == OVERLOAD_RETRIES + 1

    def test_instrument_ops_answer_during_overload(self, shedding_hub):
        """health/stats must work while writes are being shed — they are
        the instruments that explain the overload."""
        hub = shedding_hub
        breach_put_chunks(hub)
        remote = remote_for(hub)
        with pytest.raises(ServerOverloadedError):
            remote._call({"op": "put_chunks", "digests": []}, [])
        report = remote.health()
        assert report["alive"] is True
        assert report["shedding"]["active"] is True
        assert report["shedding"]["by_op"] == {"put_chunks": OVERLOAD_RETRIES + 1}
        assert report["ops"]["put_chunks"]["breach"] is True
        stats = remote.stats()
        assert stats["health"]["ready"] is False
        assert "overload shedding active" in stats["health"]["reasons"]

    def test_under_min_samples_breaching_writes_are_admitted(self, shedding_hub):
        hub = shedding_hub
        breach_put_chunks(hub, n=MIN_SAMPLES - 1)
        blob = b"admitted" * 64
        meta, _ = remote_for(hub)._call(
            {"op": "put_chunks", "digests": [sha256_hex(blob)]}, [blob]
        )
        assert meta["new_chunks"] == 1
        assert hub.registry.value(
            "repro_admission_denied_total", tenant="ana", reason="overload"
        ) == 0

    def test_client_retries_with_backoff_then_propagates(self, shedding_hub):
        hub = shedding_hub
        breach_put_chunks(hub)
        delays = []
        remote = remote_for(hub, backoff=delays.append)
        blob = b"retry me" * 64
        with pytest.raises(ServerOverloadedError):
            remote._call(
                {"op": "put_chunks", "digests": [sha256_hex(blob)]}, [blob]
            )
        # One jittered delay per retry, scaled off the server's hint:
        # attempt N waits in [0.5, 1.5) * retry_after * 2^N.
        assert len(delays) == OVERLOAD_RETRIES == 2
        assert 0.5 * RETRY_AFTER_SECONDS <= delays[0] < 1.5 * RETRY_AFTER_SECONDS
        assert 1.0 * RETRY_AFTER_SECONDS <= delays[1] < 3.0 * RETRY_AFTER_SECONDS
