"""Admission throttles: per-tenant token buckets and quota arithmetic.

Both mechanisms run *before* a request reaches repository state, so a
denial is always clean — nothing was grafted, no ref moved. Rate
limiting answers "how often", quotas answer "how much":

* :class:`TokenBucket` — the classic leaky-bucket dual. Each request
  spends one token; tokens refill continuously at ``rate_per_second``
  up to ``burst``. The clock is injectable so tests are deterministic.
* :func:`incoming_new_bytes` — how much *new* tenant-logical storage a
  write request would commit if admitted, counting only blobs whose
  digest the target repository does not already hold (replays and
  within-request duplicates are free, matching the store's own dedup).
"""

from __future__ import annotations

import threading
import time


class TokenBucket:
    """Continuous-refill token bucket; thread-safe.

    ``burst`` is both the bucket capacity and the initial fill, so a
    fresh tenant can do a burst of work (a clone is several requests)
    before the steady-state rate applies.
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: float,
        clock=time.monotonic,
    ):
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate_per_second = float(rate_per_second)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate_per_second
            )
        self._stamp = now

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; False means throttled."""
        with self._lock:
            self._refill_locked()
            if self._tokens + 1e-9 < cost:
                return False
            self._tokens -= cost
            return True

    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


def incoming_new_bytes(view, digests, blobs) -> int:
    """Tenant-logical bytes a write would add to ``view`` if admitted.

    ``digests``/``blobs`` are the request's parallel chunk lists; the
    hub runs the op's validator before calling this, so the digests are
    strings paired one-to-one with the blobs. A digest the view
    already holds adds nothing; a digest repeated within the request is
    charged once. Chunks *other* tenants hold still count in full —
    quotas charge logical usage, the physical dedup is the operator's.
    """
    seen: set[str] = set()
    new_bytes = 0
    for digest, blob in zip(digests, blobs):
        if digest in seen or view.contains(digest):
            continue
        seen.add(digest)
        new_bytes += len(blob)
    return new_bytes
