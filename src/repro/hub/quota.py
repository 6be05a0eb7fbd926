"""Quota arithmetic: what a write would charge its tenant.

The quota check runs *before* a request reaches repository state, so a
denial is always clean — nothing was grafted, no ref moved.
:func:`incoming_new_bytes` is how much *new* tenant-logical storage a
write request would commit if admitted, counting only blobs whose
digest the target repository does not already hold (replays and
within-request duplicates are free, matching the store's own dedup).
"""

from __future__ import annotations


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
