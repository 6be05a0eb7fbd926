"""The bytes a sync puts on the wire and on disk are a function of its
history.

The same cycle (``sync_transcript.py``) runs in two fresh interpreters
with different hash seeds; every frame, and every journal and header of
the three repository directories it saves, must come out byte-equal to
the committed ``golden_transcript.txt``. A set that reaches the wire in its
iteration order (a ``fetch`` response's ``chunk_digests`` did) shows up
here as a frame that differs; so does any change to what a verb sends.
"""

import os
import subprocess
import sys

import repro

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SCRIPT = os.path.join(TESTS, "remote", "sync_transcript.py")
GOLDEN = os.path.join(TESTS, "remote", "golden_transcript.txt")


def transcript(hash_seed: int) -> list[str]:
    result = subprocess.run(
        [sys.executable, SCRIPT],
        env={
            **os.environ,
            "PYTHONHASHSEED": str(hash_seed),
            "PYTHONPATH": os.pathsep.join((SRC, TESTS)),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_every_frame_equals_the_golden_under_two_hash_seeds():
    with open(GOLDEN, encoding="ascii") as fh:
        golden = fh.read().splitlines()
    # clone, push, clone, push, refused push, fetch, pull, push: 19
    # requests, the refused push one ``manifest`` alone; then four
    # journals and a header for each of the three repositories
    assert len(golden) == 38 + 3 * 5
    assert transcript(1) == golden
    assert transcript(2) == golden
