"""Print the sha256 of every frame of one fixed sync cycle, one per line.

    PYTHONPATH=src:tests python tests/remote/sync_transcript.py

The cycle runs over ``LocalTransport`` against an in-process
``RepositoryServer``: clone -> commit -> push -> clone -> commit -> push
-> fetch. Clocks are frozen first, so the stage timings that ride in
checkpoint and lineage rows are zero; what is left to vary between two
runs is what the code does with the history, which is the same every
run. ``tests/remote/test_wire_determinism.py`` runs this under two hash
seeds and requires the same lines.
"""

from __future__ import annotations

import hashlib
import time

time.perf_counter = time.thread_time = time.time = lambda: 0.0

from helpers import fresh_toy_repo, toy_clean, toy_model  # noqa: E402
from repro.remote import LocalTransport, RepositoryServer, clone_repository  # noqa: E402


#: Every request and response the cycle framed, in order.
FRAMES: list[bytes] = []


class Recording(LocalTransport):
    def call(self, request: bytes) -> bytes:
        response = super().call(request)
        FRAMES.extend((request, response))
        return response


def main() -> None:
    origin = fresh_toy_repo()
    transport = Recording(RepositoryServer(origin))
    alice = clone_repository(transport, registry=origin.registry)
    alice.commit("toy", {"clean": toy_clean(1), "model": toy_model(1, 0.6)})
    alice.remote("origin").push("toy")
    bob = clone_repository(transport, registry=origin.registry)
    alice.commit("toy", {"clean": toy_clean(2), "model": toy_model(2, 0.7)})
    alice.remote("origin").push("toy")
    bob.remote("origin").fetch()
    for frame in FRAMES:
        print(hashlib.sha256(frame).hexdigest())


if __name__ == "__main__":
    main()
