"""Layer table and span recorder: per-layer time, measured from outside.

Nothing under ``src/repro`` knows about the benchmark. The traced pass
wraps each layer's public entry points (the :data:`LAYERS` table: layer
name -> dotted callables) at run time, records one span per call —
layer, name, thread, start, end, the same-thread span that caused it —
keeps the spans in memory, and folds them into a per-layer summary when
the section ends. The driver installs the wrappers around its traced
section; the hub gets the same wrappers through ``traced_hub.py``.

Self time of a span = its duration minus the durations of the spans it
caused on the same thread. Spans started on another thread (the parallel
merge's workers) have no parent: their time lands in their own layer, so
on a parallel section layer self-times may add up to more than the wall.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time


def _length_of_result(args, result):
    return len(result)


def _length_of_first(args, result):
    return len(args[0])  # (data)


def _length_of_data(args, result):
    return len(args[1])  # (self, data)


def _length_of_blob(args, result):
    return len(args[2])  # (self, digest, data)


def _file_size(args, result):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


#: layer -> [(dotted target, work function or None)]. ``work`` turns one
#: call into a count (bytes, mostly) that is summed per callable.
LAYERS: dict[str, list[tuple[str, object]]] = {
    # Public entry points: every timed op enters through one of these, so
    # their self time is what no layer below accounts for.
    "ops": [
        ("repro.remote.client:Remote.push", None),
        ("repro.remote.client:Remote.fetch", None),
        ("repro.remote.client:Remote.pull", None),
        ("repro.remote.client:Remote.manifest", None),
        ("repro.remote.client:clone_repository", None),
        ("repro.core.repository:MLCask.create_pipeline", None),
        ("repro.core.repository:MLCask.commit", None),
        ("repro.core.repository:MLCask.merge", None),
    ],
    "serialize": [
        ("repro.data.serialize:payload_to_bytes", _length_of_result),
        ("repro.data.serialize:payload_from_bytes", _length_of_first),
    ],
    "chunking": [
        ("repro.storage.chunking:ContentDefinedChunker.split", _length_of_data),
    ],
    "hashing": [("repro.storage.hashing:sha256_hex", None)],
    "chunk_store": [
        ("repro.storage.object_store:ObjectStore.put", None),
        ("repro.storage.object_store:ObjectStore.get", None),
        ("repro.storage.chunk_store:ChunkStore.put", _length_of_data),
        ("repro.storage.chunk_store:ChunkStore.get", _length_of_result),
        ("repro.storage.chunk_store:ChunkStore.import_chunk", _length_of_blob),
        ("repro.storage.chunk_store:ChunkStore.missing", None),
        ("repro.storage.chunk_store:FileChunkStore._write", _length_of_blob),
        ("repro.storage.chunk_store:FileChunkStore._read", _length_of_result),
        ("repro.hub.backend:SharedChunkBackend.acquire", _length_of_blob),
        ("repro.hub.backend:SharedChunkBackend.read", None),
    ],
    "checkpoint": [
        ("repro.core.checkpoint:CheckpointStore.save", None),
        ("repro.core.checkpoint:CheckpointStore.load", None),
        ("repro.core.checkpoint:CheckpointStore.lookup", None),
    ],
    "executor": [
        ("repro.core.executor:Executor.run", None),
        ("repro.engine.executor:ParallelExecutor.run", None),
    ],
    "component": [
        ("repro.core.component:LibraryComponent.run", None),
        ("repro.core.component:DatasetComponent.materialize", None),
    ],
    "merge": [("repro.core.merge.metric_merge:metric_driven_merge", None)],
    "ledger": [
        ("repro.provenance.ledger:LineageLedger.record_run", None),
        ("repro.provenance.ledger:LineageLedger.annotate_commit", None),
        ("repro.provenance.ledger:LineageLedger.import_entries", None),
        ("repro.provenance.ledger:LineageLedger.records_for_commits", None),
    ],
    "protocol": [
        ("repro.remote.protocol:encode_message", None),
        ("repro.remote.protocol:decode_message", None),
    ],
    "pack": [
        ("repro.remote.pack:commits_to_send", None),
        ("repro.remote.pack:content_of_commits", None),
        ("repro.remote.pack:pack_meta", None),
        ("repro.remote.pack:import_specs", None),
        ("repro.remote.pack:import_content", None),
        ("repro.remote.pack:import_commits", None),
    ],
    "transport": [("repro.remote.transport:Transport.call", None)],
    # Hub side. ``http`` is the root there: one span per POST.
    "http": [("repro.remote.server:BaseRPCHandler.do_POST", None)],
    "hub": [("repro.hub.hub:RepositoryHub.handle_request", None)],
    "admission": [
        ("repro.hub.auth:TokenAuthenticator.authorize", None),
        ("repro.obs.health:HealthMonitor.shed_decision", None),
    ],
    "hub_acquire": [
        ("repro.hub.hub:RepositoryHub._acquire", None),
        ("repro.hub.hub:RepositoryHub._release", None),
    ],
    "persist": [
        ("repro.hub.hub:RepositoryHub._persist_hosted", None),
        ("repro.core.persistence:write_json_atomic", _file_size),
    ],
    "server": [("repro.remote.server:RepositoryServer.handle_bytes", None)],
    "validate": [("repro.remote.server:validate_request", None)],
}

#: Layers whose parentless spans are the traced ops of a process.
ROOT_LAYERS = ("ops", "http")


def _resolve(target: str):
    """``(owner, attribute, function)`` for ``module:Name`` or
    ``module:Class.name``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


def _swap_everywhere(old, new) -> None:
    """Rebind every ``repro`` module attribute that *is* ``old`` to
    ``new``. A module-level function is imported by name all over the
    package (``from .protocol import encode_message``), so patching the
    defining module alone would miss most call sites; sweeping again on
    the way out also catches modules first imported while tracing."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


class Tracer:
    """Wrap the table's callables, record spans, restore on exit."""

    def __init__(self, layers: dict | None = None):
        self.layers = LAYERS if layers is None else layers
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._methods: list[tuple[type, str, object]] = []
        self._functions: list[tuple[object, object]] = []

    # ------------------------------------------------------------ install
    def install(self) -> "Tracer":
        for layer, targets in self.layers.items():
            for target, work in targets:
                owner, attribute, original = _resolve(target)
                wrapper = self._wrap(layer, target.partition(":")[2], original, work)
                if isinstance(owner, type):
                    self._methods.append((owner, attribute, original))
                    setattr(owner, attribute, wrapper)
                else:
                    self._functions.append((original, wrapper))
                    _swap_everywhere(original, wrapper)
        return self

    def uninstall(self) -> None:
        while self._methods:
            owner, attribute, original = self._methods.pop()
            setattr(owner, attribute, original)
        while self._functions:
            original, wrapper = self._functions.pop()
            _swap_everywhere(wrapper, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, name: str, original, work):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            amount = 0
            start = clock()
            try:
                result = original(*args, **kwargs)
                if work is not None:
                    amount = work(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, layer, name, threading.get_ident(), start, end, amount)
                )

        return wrapper

    # ------------------------------------------------------------ readout
    def summary(self, window: tuple[float, float] | None = None) -> dict:
        return summarize(self.spans, window)


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the durations of its direct children."""
    own = {span[0]: span[6] - span[5] for span in spans}
    for span_id, parent, _, _, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def summarize(spans, window: tuple[float, float] | None = None) -> dict:
    """Fold spans into ``{"layer/Class.name": {calls, total_s, self_s, work}}``
    plus ``root_s``: the summed duration of the parentless spans of the
    root layers — the traced op time the layer self-times must add up to.

    ``window`` keeps only spans that lie inside ``(start, end)`` on the
    shared monotonic clock: set-up, warm-up and verification traffic ran
    through the same wrappers and must not count.
    """
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if s[5] >= lo and s[6] <= hi]
    own = self_times(spans)
    table: dict[str, dict] = {}
    root_s = 0.0
    for span_id, parent, layer, name, _, start, end, amount in spans:
        row = table.setdefault(
            f"{layer}/{name}", {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[span_id]
        row["work"] += amount
        if layer in ROOT_LAYERS and parent not in own:
            root_s += end - start
    return {"rows": table, "root_s": root_s, "spans": len(spans)}


def layer_self(summary: dict, layer: str, *names: str) -> float:
    """Summed self time of a layer (or of the named callables in it)."""
    total = 0.0
    for key, row in summary["rows"].items():
        row_layer, _, name = key.partition("/")
        if row_layer == layer and (not names or name in names):
            total += row["self_s"]
    return total


def row(summary: dict, layer: str, name: str) -> dict:
    return summary["rows"].get(
        f"{layer}/{name}", {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
    )
