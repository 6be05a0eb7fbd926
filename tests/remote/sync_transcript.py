"""Print the sha256 of every frame of one fixed sync cycle, one per line,
then of every file of the three repository directories it leaves.

    PYTHONPATH=src:tests python tests/remote/sync_transcript.py

The cycle runs over ``LocalTransport`` against an in-process
``RepositoryServer``: clone -> commit -> push -> clone -> commit -> push,
then the second clone commits without fetching: its push is refused
after one ``manifest`` frame pair, it fetches, pulls with a
metric-driven merge and pushes the merge. The three repositories (origin,
alice, bob) are then saved as repository directories, and each journal
and header is printed as ``<sha256>  <repository>/<file>``. Clocks are
frozen first, so the stage
timings that ride in checkpoint and lineage rows are zero; what is left
to vary between two runs is what the code does with the history, which
is the same every run. ``tests/remote/test_wire_determinism.py`` runs
this under two hash seeds and requires both to print
``golden_transcript.txt``; after a deliberate wire or journal change,
regenerate it
with ``PYTHONPATH=src:tests python tests/remote/sync_transcript.py >
tests/remote/golden_transcript.txt``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time

time.perf_counter = time.thread_time = time.time = lambda: 0.0

from helpers import fresh_toy_repo, toy_clean, toy_model  # noqa: E402
from repro.core.persistence import save_repository_dir  # noqa: E402
from repro.errors import PushRejectedError  # noqa: E402
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
    bob.commit("toy", {"model": toy_model(3, 0.8)})
    try:
        bob.remote("origin").push("toy")
    except PushRejectedError:
        pass
    else:
        raise AssertionError("a diverged push went through")
    bob.remote("origin").fetch()
    bob.remote("origin").pull("toy")
    bob.remote("origin").push("toy")
    for frame in FRAMES:
        print(hashlib.sha256(frame).hexdigest())
    with tempfile.TemporaryDirectory() as root:
        for name, repo in (("origin", origin), ("alice", alice), ("bob", bob)):
            path = os.path.join(root, name)
            save_repository_dir(repo, path)
            for entry in sorted(os.listdir(path)):
                if os.path.isfile(os.path.join(path, entry)):
                    with open(os.path.join(path, entry), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    print(f"{digest}  {name}/{entry}")


if __name__ == "__main__":
    main()
