"""Thread-safe metrics registry: counters, gauges, histograms with labels.

The operational-signal half of :mod:`repro.obs`. A
:class:`MetricsRegistry` holds metric *families* (one per metric name);
each family holds one child series per distinct label-value set
(``tenant``/``repo``/``op``...). Everything is guarded by a single
registry lock, so N threads hammering one counter land exact totals and
a scrape (:meth:`MetricsRegistry.render_prometheus`) observes a
consistent cut — never a torn histogram where ``_count`` disagrees with
the bucket sums.

Cardinality is bounded per family: once ``max_label_sets`` distinct
label-value sets exist, further *new* sets collapse into one overflow
series (every label valued :data:`OVERFLOW_VALUE`) instead of growing
the registry without limit — a hub must survive a client that invents a
fresh repo name per request.

Null default: instrumented library code (scheduler, single-flight,
transports, storage accounting) resolves its registry through
:func:`default_registry`, which returns :data:`NULL_REGISTRY` — whose
metrics are shared no-op singletons — unless an operator called
:func:`install`. The uninstrumented hot path therefore costs one
attribute lookup and an empty method call, nothing more. Serving layers
(``serve()``, :class:`~repro.hub.hub.RepositoryHub`) construct a real
registry by default instead: an endpoint that exposes ``GET /metrics``
should have something to say.
"""

from __future__ import annotations

import math
import re
import threading

#: Label value every overflowed series reports under (see the module
#: docstring on cardinality).
OVERFLOW_VALUE = "~overflow"

#: Latency buckets (seconds): sub-millisecond cache hits through
#: multi-second cold fetches.
DEFAULT_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size buckets (bytes): tiny metadata RPCs through full pack windows.
DEFAULT_BYTES_BUCKETS = (
    256, 1024, 4096, 16384, 65536, 262144,
    1048576, 4194304, 16777216, 67108864,
)


#: The family-name grammar, enforced by :meth:`MetricsRegistry._declare`
#: (once per family, at declaration): ``repro_`` prefix, lower-snake; a
#: counter ends ``_total`` and nothing else does; the exposition's own
#: histogram suffixes are reserved. The ``/metrics`` scrape and the
#: dashboards parse on this.
_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")
_COUNTER_SUFFIX = "_total"
_RESERVED_SUFFIXES = ("_bucket", "_sum", "_count")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Child:
    """One series: a fixed label-value set plus its state."""

    __slots__ = ("_lock", "label_values")

    def __init__(self, lock: threading.RLock, label_values: tuple[str, ...]):
        self._lock = lock
        self.label_values = label_values


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock, label_values):
        super().__init__(lock, label_values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock, label_values):
        super().__init__(lock, label_values)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class HistogramChild(_Child):
    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, lock, label_values, buckets: tuple[float, ...]):
        super().__init__(lock, label_values)
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1


class MetricFamily:
    """All series of one metric name; label-keyed child factory.

    When declared with no labels the family doubles as its own single
    child: ``registry.counter("repro_x_total").inc()`` works without a ``labels()``
    hop.
    """

    kind = "untyped"

    def __init__(self, registry, name, help_text, label_names, **child_kwargs):
        self.registry = registry
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._label_set = frozenset(self.label_names)
        self._child_kwargs = child_kwargs
        self._children: dict[tuple[str, ...], _Child] = {}
        self.overflowed = 0
        if not self.label_names:
            self.labels()  # materialize the single unlabelled series

    def labels(self, **label_values) -> _Child:
        if label_values.keys() != self._label_set:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple([str(label_values[n]) for n in self.label_names])
        # A series once made is never replaced: found, it needs no lock.
        child = self._children.get(key)
        if child is not None:
            return child
        with self.registry._lock:
            child = self._children.get(key)
            if child is None:
                if (
                    key != ()
                    and len(self._children) >= self.registry.max_label_sets
                ):
                    self.overflowed += 1
                    key = (OVERFLOW_VALUE,) * len(self.label_names)
                    child = self._children.get(key)
                    if child is not None:
                        return child
                child = self._make_child(key)
                self._children[key] = child
            return child

    def _make_child(self, key):
        raise NotImplementedError

    # Unlabelled convenience: delegate to the single child.
    def _single(self) -> _Child:
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled {self.label_names}; "
                "resolve a series with .labels(...) first"
            )
        return self._children[()]

    def children(self) -> list[_Child]:
        with self.registry._lock:
            return list(self._children.values())


class CounterFamily(MetricFamily):
    kind = "counter"

    def _make_child(self, key):
        return CounterChild(self.registry._lock, key)

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    @property
    def value(self) -> float:
        return self._single().value


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _make_child(self, key):
        return GaugeChild(self.registry._lock, key)

    def set(self, value: float) -> None:
        self._single().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._single().dec(amount)

    @property
    def value(self) -> float:
        return self._single().value


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def _make_child(self, key):
        return HistogramChild(
            self.registry._lock, key, self._child_kwargs["buckets"]
        )

    def observe(self, value: float) -> None:
        self._single().observe(value)


class MetricsRegistry:
    """Registry of metric families; the unit of exposition.

    Declaring the same name twice returns the existing family (so every
    layer can declare what it uses without coordination) — but a
    conflicting redeclaration (different kind or label names) raises,
    because two writers disagreeing about a series' shape is a bug worth
    hearing about, and so does a name outside the family grammar
    (:data:`_NAME_RE`).
    """

    def __init__(self, max_label_sets: int = 256):
        self.max_label_sets = max(1, max_label_sets)
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    def _declare(self, cls, name, help_text, label_names, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or family.label_names != tuple(
                    label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already declared as "
                        f"{family.kind} with labels {family.label_names}"
                    )
                return family
            if (
                not _NAME_RE.match(name)
                or name.endswith(_RESERVED_SUFFIXES)
                or (cls.kind == "counter") != name.endswith(_COUNTER_SUFFIX)
            ):
                raise ValueError(
                    f"{cls.kind} name {name!r} breaks the family grammar: "
                    "repro_<lower_snake>, ending _total iff a counter, "
                    "never _bucket/_sum/_count"
                )
            family = cls(self, name, help_text, label_names, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name, help_text="", labels=()) -> CounterFamily:
        return self._declare(CounterFamily, name, help_text, labels)

    def gauge(self, name, help_text="", labels=()) -> GaugeFamily:
        return self._declare(GaugeFamily, name, help_text, labels)

    def histogram(
        self, name, help_text="", labels=(), buckets=DEFAULT_SECONDS_BUCKETS
    ) -> HistogramFamily:
        return self._declare(
            HistogramFamily, name, help_text, labels, buckets=tuple(buckets)
        )

    # --------------------------------------------------------- exposition
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4).

        Rendered under the registry lock: a scrape racing a storm of
        writers sees a consistent cut, and histogram ``_count`` always
        equals the ``+Inf`` bucket.
        """
        out: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    out.append(f"# HELP {name} {family.help}")
                out.append(f"# TYPE {name} {family.kind}")
                for key in sorted(family._children):
                    child = family._children[key]
                    labels = _render_labels(family.label_names, key)
                    if family.kind == "histogram":
                        cumulative = 0
                        bounds = [*child.buckets, math.inf]
                        for bound, n in zip(bounds, child.bucket_counts):
                            cumulative += n
                            le = _render_labels(
                                (*family.label_names, "le"),
                                (*key, _format_value(float(bound))),
                            )
                            out.append(f"{name}_bucket{le} {cumulative}")
                        out.append(f"{name}_sum{labels} {child.sum:.9g}")
                        out.append(f"{name}_count{labels} {child.count}")
                    else:
                        out.append(
                            f"{name}{labels} {_format_value(child.value)}"
                        )
        return "\n".join(out) + "\n" if out else ""

    def snapshot(self) -> dict:
        """Plain-dict copy of every series (for JSON dumps and tests)."""
        result: dict[str, dict] = {}
        with self._lock:
            for name, family in self._families.items():
                series = []
                for key, child in sorted(family._children.items()):
                    labels = dict(zip(family.label_names, key))
                    if family.kind == "histogram":
                        series.append(
                            {
                                "labels": labels,
                                "count": child.count,
                                "sum": child.sum,
                            }
                        )
                    else:
                        series.append({"labels": labels, "value": child.value})
                result[name] = {"type": family.kind, "series": series}
        return result

    def value(self, name: str, **label_values) -> float:
        """The current value of one counter/gauge series (0 if absent)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            key = tuple(str(label_values[n]) for n in family.label_names)
            child = family._children.get(key)
            return child.value if child is not None else 0.0

    def series(self, name: str) -> list[dict]:
        """Every series of one family, with full per-series state.

        Unlike :meth:`snapshot`, histograms come back with their bucket
        bounds and per-bucket counts — the raw material the health model
        (:mod:`repro.obs.health`) interpolates percentiles from. Copied
        under the registry lock, so a caller never observes a torn
        histogram. Unknown families answer ``[]``.
        """
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return []
            out = []
            for key, child in family._children.items():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    out.append(
                        {
                            "labels": labels,
                            "buckets": child.buckets,
                            "bucket_counts": list(child.bucket_counts),
                            "count": child.count,
                            "sum": child.sum,
                        }
                    )
                else:
                    out.append({"labels": labels, "value": child.value})
            return out


def _render_labels(names, values) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label_value(str(v))}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


# --------------------------------------------------------------- null layer
class _NullMetric:
    """Shared no-op child/family: every mutator is a pass, ``labels()``
    returns itself. One instance serves every uninstrumented call site."""

    __slots__ = ()

    def labels(self, **label_values):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


NULL_METRIC = _NullMetric()


class NullRegistry:
    """Registry-shaped no-op; the module default until :func:`install`."""

    max_label_sets = 0

    def counter(self, name, help_text="", labels=()):
        return NULL_METRIC

    def gauge(self, name, help_text="", labels=()):
        return NULL_METRIC

    def histogram(self, name, help_text="", labels=(), buckets=()):
        return NULL_METRIC

    def render_prometheus(self) -> str:
        return ""

    def snapshot(self) -> dict:
        return {}

    def value(self, name, **label_values) -> float:
        return 0.0

    def series(self, name) -> list[dict]:
        return []


NULL_REGISTRY = NullRegistry()

_default: MetricsRegistry | NullRegistry = NULL_REGISTRY


def install(registry: MetricsRegistry):
    """Make ``registry`` the process-wide default (returns it)."""
    global _default
    _default = registry
    return registry


def uninstall() -> None:
    """Restore the no-op default."""
    global _default
    _default = NULL_REGISTRY


def default_registry():
    """The installed registry, or :data:`NULL_REGISTRY` when none is."""
    return _default
