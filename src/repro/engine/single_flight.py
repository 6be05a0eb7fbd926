"""Single-flight checkpoint computation: each key computed at most once.

The PR pruning invariant (paper section VI-B) says a component whose
``(component fingerprint, input ref)`` pair was executed before "does not
need to be executed again since its output has already been saved". A
thread-safe :class:`~repro.core.checkpoint.CheckpointStore` alone cannot
uphold that under concurrency: two ready stages of one DAG run that bind
the same component to the same input both miss the lookup and both
compute. The single-flight layer closes the window — the first arrival
(the *leader*) computes and saves; later arrivals block on the in-flight
call and adopt the leader's record as a checkpoint reuse, exactly as if
the leader's stage had finished before theirs started.

Failure is shared too: component execution is deterministic given the
``(component, input)`` pair (seeded RNGs, see
:class:`~repro.core.context.ExecutionContext`), so a follower of a failed
leader re-raises the leader's exception — the same failure the follower
would have computed itself. Failed calls leave no trace: nothing was
saved, the in-flight entry is removed, and a later non-concurrent attempt
recomputes, matching the sequential executor's behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.checkpoint import CheckpointRecord, CheckpointStore, checkpoint_key
from ..core.component import Component

#: How a stage obtained its checkpoint record (the ``via`` of
#: :meth:`SingleFlight.compute_or_reuse`).
HIT = "hit"  # the store already held the record
COMPUTED = "computed"  # this caller led the computation
JOINED = "joined"  # another in-flight caller computed it; we waited


class _Call:
    """One in-flight computation: a latch plus its outcome."""

    __slots__ = ("done", "record", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.record: CheckpointRecord | None = None
        self.error: BaseException | None = None


@dataclass
class FlightStats:
    """Counters for observability and tests (guarded by the flight lock)."""

    computed: int = 0
    joined: int = 0
    hits: int = 0
    failures: int = 0


class SingleFlight:
    """Keyed in-flight deduplication over a checkpoint store.

    Each :class:`~repro.engine.ParallelExecutor` owns one, shared by the
    scheduler threads of its runs; the keys are global checkpoint keys.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[str, _Call] = {}
        self.stats = FlightStats()

    def compute_or_reuse(
        self,
        checkpoints: CheckpointStore,
        component: Component,
        input_ref: str,
        compute,
    ) -> tuple[CheckpointRecord, str]:
        """Return the checkpoint record for ``(component, input_ref)``.

        ``compute`` is a zero-argument callable that runs the component
        and saves its output, returning the new record; it is invoked by
        at most one caller per key at a time. Returns ``(record, via)``
        with ``via`` one of :data:`HIT`, :data:`COMPUTED`, :data:`JOINED`.
        Exceptions raised by ``compute`` propagate to the leader and to
        every joined caller alike.
        """
        key = checkpoint_key(component, input_ref)
        record = checkpoints.lookup(component, input_ref)
        if record is not None:
            with self._lock:
                self.stats.hits += 1
            return record, HIT

        with self._lock:
            call = self._inflight.get(key)
            leader = call is None
            if leader:
                call = _Call()
                self._inflight[key] = call

        if not leader:
            call.done.wait()
            with self._lock:
                self.stats.joined += 1
            if call.error is not None:
                raise call.error
            return call.record, JOINED

        try:
            # Re-check under flight ownership: a previous leader may have
            # finished between our miss and our registration.
            record = checkpoints.lookup(component, input_ref)
            if record is None:
                record = compute()
                via = COMPUTED
            else:
                via = HIT
            call.record = record
        except BaseException as error:
            call.error = error
            with self._lock:
                self.stats.failures += 1
            raise
        else:
            with self._lock:
                if via == COMPUTED:
                    self.stats.computed += 1
                else:
                    self.stats.hits += 1
            return record, via
        finally:
            with self._lock:
                del self._inflight[key]
            call.done.set()

    def in_flight(self) -> int:
        """Number of keys currently being computed (for tests/monitoring)."""
        with self._lock:
            return len(self._inflight)
