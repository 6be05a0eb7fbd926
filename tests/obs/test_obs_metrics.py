"""MetricsRegistry: exactness under concurrency, bounded cardinality,
tear-free scrapes, and the null default's do-nothing guarantee."""

import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    NULL_METRIC,
    NULL_REGISTRY,
    OVERFLOW_VALUE,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("repro_reqs_total", "Requests.")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert registry.value("repro_reqs_total") == 3.5

    def test_labelled_series_are_independent(self, registry):
        c = registry.counter("repro_ops_total", labels=("op",))
        c.labels(op="push").inc(3)
        c.labels(op="fetch").inc()
        assert registry.value("repro_ops_total", op="push") == 3
        assert registry.value("repro_ops_total", op="fetch") == 1
        assert registry.value("repro_ops_total", op="never") == 0

    def test_counters_only_go_up(self, registry):
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("repro_c_total").inc(-1)

    def test_wrong_label_names_raise(self, registry):
        c = registry.counter("repro_ops_total", labels=("op",))
        with pytest.raises(ValueError, match="takes labels"):
            c.labels(operation="push")

    def test_labelled_family_needs_labels_call(self, registry):
        c = registry.counter("repro_ops_total", labels=("op",))
        with pytest.raises(ValueError, match="labelled"):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_depth")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5


class TestHistogram:
    def test_observations_land_in_buckets(self, registry):
        h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        child = h._single()
        assert child.count == 4
        assert child.sum == pytest.approx(6.25)
        assert child.bucket_counts == [1, 2, 1]  # <=0.1, <=1.0, +Inf

    def test_rendered_buckets_are_cumulative(self, registry):
        h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = registry.render_prometheus()
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text


class TestDeclaration:
    def test_redeclaring_returns_the_same_family(self, registry):
        a = registry.counter("repro_x_total", "first wins")
        b = registry.counter("repro_x_total", "ignored")
        assert a is b

    def test_conflicting_kind_raises(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("repro_x_total")

    def test_conflicting_labels_raise(self, registry):
        registry.counter("repro_x_total", labels=("op",))
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("repro_x_total", labels=("tenant",))


#: Every family kind the registry can declare — read off the classes, so
#: a new kind is held to the grammar without editing these tests.
KINDS = sorted(cls.kind for cls in obs_metrics.MetricFamily.__subclasses__())


@pytest.mark.parametrize("kind", KINDS)
class TestNameGrammar:
    """``repro_<lower_snake>``, ``_total`` iff a counter, exposition
    suffixes reserved — refused by the registry, at declaration."""

    @staticmethod
    def conforming(kind):
        return "repro_events_total" if kind == "counter" else "repro_events"

    def test_conforming_name_declares(self, registry, kind):
        family = getattr(registry, kind)(self.conforming(kind))
        assert family.kind == kind

    @pytest.mark.parametrize(
        "stem", ["Bad-Name", "events", "repro_", "repro_Events", "repro_9lives"]
    )
    def test_malformed_name_raises(self, registry, kind, stem):
        name = stem + "_total" if kind == "counter" else stem
        with pytest.raises(ValueError, match="family grammar"):
            getattr(registry, kind)(name)
        assert registry.snapshot() == {}

    @pytest.mark.parametrize("suffix", ["_bucket", "_sum", "_count"])
    def test_exposition_suffix_is_reserved(self, registry, kind, suffix):
        with pytest.raises(ValueError, match="family grammar"):
            getattr(registry, kind)("repro_events" + suffix)

    def test_total_suffix_iff_counter(self, registry, kind):
        swapped = "counter" if kind != "counter" else "gauge"
        with pytest.raises(ValueError, match="family grammar"):
            getattr(registry, kind)(self.conforming(swapped))


class TestConcurrency:
    @pytest.mark.timeout(60)
    def test_hammered_counter_lands_exact_totals(self, registry):
        c = registry.counter("repro_hits_total", labels=("who",))
        children = [c.labels(who=f"t{i}") for i in range(4)]
        shared = c.labels(who="shared")
        per_thread, n_threads = 2000, 8

        def hammer(idx):
            mine = children[idx % len(children)]
            for _ in range(per_thread):
                mine.inc()
                shared.inc()

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("repro_hits_total", who="shared") == (
            per_thread * n_threads
        )
        total = sum(
            registry.value("repro_hits_total", who=f"t{i}") for i in range(4)
        )
        assert total == per_thread * n_threads

    @pytest.mark.timeout(60)
    def test_scrape_mid_storm_is_never_torn(self, registry):
        """A render racing writers must show _count == the +Inf bucket."""
        h = registry.histogram("repro_work_seconds", buckets=(0.001, 0.01, 0.1))
        stop = threading.Event()

        def writer():
            child = h._single()
            while not stop.is_set():
                child.observe(0.005)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                text = registry.render_prometheus()
                inf_bucket = count = None
                for line in text.splitlines():
                    if line.startswith('repro_work_seconds_bucket{le="+Inf"}'):
                        inf_bucket = int(line.rsplit(" ", 1)[1])
                    elif line.startswith("repro_work_seconds_count"):
                        count = int(line.rsplit(" ", 1)[1])
                assert inf_bucket is not None and count is not None
                assert inf_bucket == count, "torn scrape"
        finally:
            stop.set()
            for t in threads:
                t.join()


class TestCardinality:
    def test_new_label_sets_collapse_into_overflow(self):
        registry = MetricsRegistry(max_label_sets=4)
        c = registry.counter("repro_repos_total", labels=("repo",))
        for i in range(10):
            c.labels(repo=f"repo-{i}").inc()
        # 4 real series plus one overflow series, never 10.
        assert len(c.children()) == 5
        assert registry.value("repro_repos_total", repo=OVERFLOW_VALUE) == 6
        assert c.overflowed == 6
        # Known series keep resolving to themselves, not the overflow.
        c.labels(repo="repo-0").inc()
        assert registry.value("repro_repos_total", repo="repo-0") == 2

    def test_overflow_value_renders(self):
        registry = MetricsRegistry(max_label_sets=1)
        c = registry.counter("repro_x_total", labels=("k",))
        c.labels(k="a").inc()
        c.labels(k="b").inc()
        assert f'k="{OVERFLOW_VALUE}"' in registry.render_prometheus()


class TestExposition:
    def test_help_and_type_lines(self, registry):
        registry.counter("repro_a_total", "What a counts.")
        text = registry.render_prometheus()
        assert "# HELP repro_a_total What a counts." in text
        assert "# TYPE repro_a_total counter" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self, registry):
        c = registry.counter("repro_x_total", labels=("name",))
        c.labels(name='he said "hi"\n\\').inc()
        text = registry.render_prometheus()
        assert 'name="he said \\"hi\\"\\n\\\\"' in text

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {}

    def test_snapshot_shape(self, registry):
        registry.counter("repro_a_total", labels=("op",)).labels(op="x").inc(2)
        registry.histogram("repro_b_seconds").observe(0.5)
        snap = registry.snapshot()
        assert snap["repro_a_total"]["series"] == [
            {"labels": {"op": "x"}, "value": 2.0}
        ]
        assert snap["repro_b_seconds"]["series"][0]["count"] == 1


class TestNullDefault:
    def test_default_is_null_until_installed(self):
        assert obs_metrics.default_registry() is NULL_REGISTRY

    def test_install_uninstall_round_trip(self):
        real = MetricsRegistry()
        try:
            assert obs_metrics.install(real) is real
            assert obs_metrics.default_registry() is real
        finally:
            obs_metrics.uninstall()
        assert obs_metrics.default_registry() is NULL_REGISTRY

    def test_null_registry_absorbs_everything(self):
        c = NULL_REGISTRY.counter("repro_x_total", labels=("op",))
        assert c is NULL_METRIC
        assert c.labels(op="anything") is NULL_METRIC
        c.inc()
        NULL_REGISTRY.histogram("h").observe(1.0)
        NULL_REGISTRY.gauge("g").set(5)
        assert NULL_REGISTRY.render_prometheus() == ""
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.value("repro_x_total", op="anything") == 0.0
