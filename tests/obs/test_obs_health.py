"""HealthMonitor under a fake clock: windowed percentiles, burn-driven
readiness, shed decisions, and the report shape — no sleeping; the
registry is fed by hand, or by a real in-process server. The policy is
the fixed one: each op's objective is its ``p99_seconds`` in the op
table, the rest are the module's constants."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fresh_toy_repo
from repro.cli import _build_parser
from repro.hub import RepositoryHub, TenantConfig
from repro.obs.health import (
    MIN_SAMPLES,
    RETRY_AFTER_SECONDS,
    SHED_EXEMPT_OPS,
    TICK_SECONDS,
    WINDOW_SECONDS,
    HealthMonitor,
    _percentile,
)
from repro.obs.metrics import MetricsRegistry
from repro.ops import OP_TABLE
from repro.remote import RepositoryServer, serve
from repro.remote.client import Remote
from repro.remote.protocol import decode_message, encode_message


class Clock:
    """Deterministic monotonic + wall clock the tests advance by hand."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_monitor(registry=None, clock=None):
    clock = clock if clock is not None else Clock()
    monitor = HealthMonitor(
        registry=registry if registry is not None else MetricsRegistry(),
        clock=clock,
        wallclock=clock,
    )
    return monitor, clock


def observe_requests(registry, op, seconds, n):
    child = registry.histogram(
        "repro_request_seconds", "latency", ("op", "tenant", "repo")
    ).labels(op=op, tenant="-", repo="-")
    for _ in range(n):
        child.observe(seconds)


def fail_requests(registry, op, n):
    registry.counter(
        "repro_request_errors_total", "failures", ("op", "tenant", "repo")
    ).labels(op=op, tenant="-", repo="-").inc(n)


def slide_past_the_window(clock, tick):
    """Advance past a whole window, one sub-window step at a time."""
    for _ in range(int(WINDOW_SECONDS / 1.1) + 5):
        clock.advance(1.1)
        tick()


class TestPercentileInterpolation:
    def test_interpolates_within_a_bucket(self):
        # 10 observations all in the (1, 2] bucket: p50 sits mid-bucket.
        buckets = (1.0, 2.0, 4.0)
        deltas = [0, 10, 0, 0]  # trailing +Inf entry
        assert _percentile(buckets, deltas, 0.50) == pytest.approx(1.5)
        assert _percentile(buckets, deltas, 0.99) == pytest.approx(1.99)

    def test_inf_bucket_answers_largest_finite_bound(self):
        buckets = (1.0, 2.0)
        deltas = [0, 0, 5]
        assert _percentile(buckets, deltas, 0.99) == pytest.approx(2.0)

    def test_empty_window_is_none(self):
        assert _percentile((1.0,), [0, 0], 0.5) is None


class TestWindowedPercentiles:
    def test_window_reports_only_recent_deltas(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)

        observe_requests(registry, "fetch", 0.2, 20)
        clock.advance(2.0)
        window = monitor.window()
        fetch = window["ops"]["fetch"]
        assert fetch["count"] == 20
        # All observations landed in the (0.1, 0.25] default bucket.
        assert 0.1 < fetch["p50"] <= 0.25
        assert 0.1 < fetch["p99"] <= 0.25
        assert fetch["mean_seconds"] == pytest.approx(0.2)

        # Slide everything out of the window: the op disappears.
        slide_past_the_window(clock, monitor.window)
        assert "fetch" not in monitor.window()["ops"]

    def test_tick_rate_limited_by_tick_seconds(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        observe_requests(registry, "fetch", 0.2, 5)
        clock.advance(0.5 * TICK_SECONDS)  # under a tick: no new cut yet
        assert "fetch" not in monitor.window()["ops"]
        clock.advance(0.6 * TICK_SECONDS)
        assert monitor.window()["ops"]["fetch"]["count"] == 5


#: put_chunks' objective is 5 s: 8 s lands in the (5, 10] bucket, 1 s
#: in (0.5, 1].
OVER_OBJECTIVE = 8.0
UNDER_OBJECTIVE = 1.0


class TestShedDecision:
    def test_the_objective_is_the_op_tables(self):
        assert OP_TABLE["put_chunks"].p99_seconds < OVER_OBJECTIVE
        assert OP_TABLE["put_chunks"].p99_seconds > UNDER_OBJECTIVE

    def breach(self, registry, clock, n=MIN_SAMPLES, seconds=OVER_OBJECTIVE):
        observe_requests(registry, "put_chunks", seconds, n)
        clock.advance(2 * TICK_SECONDS)

    def test_sheds_on_windowed_p99_breach(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        self.breach(registry, clock)
        assert monitor.shed_decision("put_chunks") == RETRY_AFTER_SECONDS

    def test_min_samples_guards_a_quiet_server(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        self.breach(registry, clock, n=MIN_SAMPLES - 1)
        assert monitor.shed_decision("put_chunks") is None

    def test_exempt_ops_never_shed(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        for op in SHED_EXEMPT_OPS:
            assert OP_TABLE[op].p99_seconds < OVER_OBJECTIVE
            observe_requests(registry, op, OVER_OBJECTIVE, 2 * MIN_SAMPLES)
        clock.advance(2 * TICK_SECONDS)
        for op in SHED_EXEMPT_OPS:
            assert monitor.shed_decision(op) is None

    def test_within_objective_admits(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        self.breach(registry, clock, n=2 * MIN_SAMPLES, seconds=UNDER_OBJECTIVE)
        assert monitor.shed_decision("put_chunks") is None

    def test_an_unknown_op_is_never_shed(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        observe_requests(registry, "no-such-op", OVER_OBJECTIVE, 2 * MIN_SAMPLES)
        clock.advance(2 * TICK_SECONDS)
        assert monitor.shed_decision("no-such-op") is None


def window_rule(monitor, op):
    """The decision as it was made from the whole ``window()``."""
    if op in SHED_EXEMPT_OPS:
        return None
    report = monitor.window()["ops"].get(op)
    if report is None or report["count"] < MIN_SAMPLES:
        return None
    p99 = report.get("p99")
    if p99 is not None and p99 > OP_TABLE[op].p99_seconds:
        return RETRY_AFTER_SECONDS
    return None


JUDGED_OPS = ("put_chunks", "fetch", "health")
#: latencies across the default buckets and past the last finite one
LATENCY = st.sampled_from([0.001, 0.004, 0.02, 0.07, 0.3, 1.2, 4.0, 15.0]) | st.floats(0, 20)
#: a burst of one op's requests, most at one latency and a few at
#: another (so p95 and p99 can part), then the clock advances
EVENTS = st.lists(
    st.tuples(
        st.sampled_from(JUDGED_OPS),
        st.tuples(LATENCY, st.integers(0, 2 * MIN_SAMPLES)),
        st.tuples(LATENCY, st.integers(0, 3)),
        st.floats(0.0, WINDOW_SECONDS / 2),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(events=EVENTS)
def test_shed_decision_equals_the_window_based_rule(events):
    """Judging one op's window decides as the whole window did, over
    drawn histories of bucket counts sliding through the window."""
    registry = MetricsRegistry()
    monitor, clock = make_monitor(registry=registry)
    for op, (most, n_most), (few, n_few), advance in events:
        observe_requests(registry, op, most, n_most)
        observe_requests(registry, op, few, n_few)
        clock.advance(advance)
        for judged in JUDGED_OPS:
            expected = window_rule(monitor, judged)
            assert monitor.shed_decision(judged) == expected, judged


class TestReadiness:
    def test_ready_by_default(self):
        monitor, _ = make_monitor()
        ready, reasons = monitor.ready()
        assert ready and reasons == []
        assert monitor.alive() is True

    def test_handler_failures_flip_readiness(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        # 20 served requests, 10 failed: burn = 0.5 / (1 - 0.99) = 50x.
        observe_requests(registry, "push", 0.01, 20)
        fail_requests(registry, "push", 10)
        clock.advance(2.0)
        ready, reasons = monitor.ready()
        assert not ready
        assert reasons == ["error budget burn 50.0x >= 14.4x"]
        assert monitor.health()["burn"] == pytest.approx(
            {"requests": 20, "errors": 10, "error_rate": 0.5, "burn": 50.0}
        )

    def test_burn_clears_as_the_window_slides(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        observe_requests(registry, "push", 0.01, 20)
        fail_requests(registry, "push", 10)
        clock.advance(2.0)
        assert not monitor.ready()[0]
        slide_past_the_window(clock, monitor.ready)
        ready, reasons = monitor.ready()
        assert ready, reasons

    def test_few_errors_guarded_by_min_samples(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        observe_requests(registry, "push", 0.01, MIN_SAMPLES - 1)
        fail_requests(registry, "push", MIN_SAMPLES - 1)
        clock.advance(2.0)
        ready, _ = monitor.ready()
        assert ready

    def test_shedding_flips_readiness_until_the_window_slides(self):
        monitor, clock = make_monitor()
        monitor.note_shed("put_chunks")
        ready, reasons = monitor.ready()
        assert not ready and "overload shedding active" in reasons
        clock.advance(WINDOW_SECONDS + 1.0)
        ready, reasons = monitor.ready()
        assert ready, reasons


class TestHealthReport:
    def test_report_shape_and_breach_flags(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        observe_requests(registry, "put_chunks", OVER_OBJECTIVE, 8)
        observe_requests(registry, "fetch", 0.2, 8)
        registry.counter(
            "repro_admission_denied_total", "denials", ("tenant", "reason")
        ).labels(tenant="ana", reason="auth").inc(3)
        monitor.note_shed("put_chunks")
        clock.advance(2.0)

        report = monitor.health()
        assert report["alive"] is True
        assert set(report) == {
            "alive", "ready", "reasons", "generated_at", "window_seconds",
            "ops", "denied", "lock_wait", "burn", "shedding",
        }
        put = report["ops"]["put_chunks"]
        assert put["objective_p99_seconds"] == 5.0
        assert put["breach"] is True
        assert report["ops"]["fetch"]["objective_p99_seconds"] == 2.0
        assert report["ops"]["fetch"]["breach"] is False
        assert report["denied"] == {"auth": 3}
        assert report["shedding"] == {
            "active": True, "total": 1, "by_op": {"put_chunks": 1},
        }
        assert report["burn"]["requests"] == 16
        assert report["burn"]["errors"] == 0

    @pytest.mark.parametrize("op", list(OP_TABLE))
    def test_every_op_reports_its_op_table_objective(self, op):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        observe_requests(registry, op, OP_TABLE[op].p99_seconds / 10, 1)
        clock.advance(2 * TICK_SECONDS)
        entry = monitor.health()["ops"][op]
        assert entry["objective_p99_seconds"] == OP_TABLE[op].p99_seconds
        assert entry["breach"] is False


#: Every setting the fixed policy and the rate limiter's removal took
#: away, as (what no longer takes it, the name).
REMOVED_SETTINGS = [
    (RepositoryHub, "slo"),
    (RepositoryHub, "clock"),
    (RepositoryHub.add_tenant, "rate_per_second"),
    (RepositoryHub.add_tenant, "burst"),
    (serve, "slo"),
    (HealthMonitor, "slo"),
    (TenantConfig, "rate_per_second"),
    (TenantConfig, "burst"),
    (Remote, "overload_retries"),
    (["hub", "add-tenant", "ROOT", "t", "--token", "s", "--rate", "5"], "--rate"),
    (["hub", "add-tenant", "ROOT", "t", "--token", "s", "--burst", "5"], "--burst"),
    (["serve", "REPO", "--slo-config", "slo.json"], "--slo-config"),
    (["hub", "serve", "ROOT", "--slo-config", "slo.json"], "--slo-config"),
]


def _setting_id(where, name):
    surface = " ".join(where[:2]) if isinstance(where, list) else where.__qualname__
    return f"{surface}:{name}"


@pytest.mark.parametrize(
    "where, name", REMOVED_SETTINGS,
    ids=[_setting_id(*row) for row in REMOVED_SETTINGS],
)
def test_a_removed_setting_is_accepted_nowhere(where, name, capsys):
    if isinstance(where, list):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(where)
        assert f"unrecognized arguments: {name}" in capsys.readouterr().err
    else:
        assert name not in inspect.signature(where).parameters
        assert not any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in inspect.signature(where).parameters.values()
        )


class TestServedBurn:
    """Burn from a real in-process server: the error counter moves only
    when an admitted, validated request's handler raises."""

    def serve(self):
        registry = MetricsRegistry()
        monitor, clock = make_monitor(registry=registry)
        server = RepositoryServer(
            fresh_toy_repo(), registry=registry, health_monitor=monitor
        )
        return server, monitor, clock

    def call(self, server, meta):
        return decode_message(server.handle_bytes(encode_message(meta)))[0]

    def test_handler_failures_flip_readiness(self):
        server, monitor, clock = self.serve()
        unknown = {"op": "lineage", "query": "lineage", "ref": "f" * 64}
        for _ in range(MIN_SAMPLES // 2):
            assert "error" not in self.call(server, {"op": "manifest"})
            assert "error" in self.call(server, unknown)  # the handler raised
        clock.advance(2.0)
        ready, reasons = monitor.ready()
        assert not ready
        assert any("error budget burn" in reason for reason in reasons)
        burn = monitor.health()["burn"]
        assert (burn["requests"], burn["errors"]) == (MIN_SAMPLES, MIN_SAMPLES // 2)

    def test_validation_refusals_never_burn(self):
        server, monitor, clock = self.serve()
        for _ in range(50):
            reply = self.call(server, {"op": "known_commits", "ids": "abc"})
            assert "error" in reply
        for _ in range(5):
            assert "error" in self.call(server, {"op": "no-such-op"})
        clock.advance(2.0)
        ready, reasons = monitor.ready()
        assert ready, reasons
        burn = monitor.health()["burn"]
        assert (burn["requests"], burn["errors"]) == (55, 0)

    def test_ready_cost_does_not_grow_with_requests_served(self):
        server, monitor, clock = self.serve()
        rows = []
        series = monitor.registry.series

        def counting(name):
            out = series(name)
            rows.append(len(out))
            return out

        monitor.registry.series = counting

        def rows_read_by_ready():
            rows.clear()
            clock.advance(2.0)
            monitor.ready()
            return sum(rows)

        request = encode_message({"op": "manifest"})
        server.handle_bytes(request)
        few = rows_read_by_ready()
        for _ in range(2000):
            server.handle_bytes(request)
        assert few > 0
        assert rows_read_by_ready() == few
