"""A serving process keeps one malloc heap.

``repro serve`` and ``repro hub serve`` cap glibc malloc at one arena
(:func:`repro.remote.server.share_one_heap`) before they build what they
serve, so the frames and bodies a handler thread frees are reused by the
next request on any thread instead of staying in that thread's own heap,
and fix the mmap threshold, so multi-MB frames stay out of that heap.
"""

import ctypes
import io
import os
import subprocess
import sys

import pytest

import repro
from repro import MLCask, cli
from repro.remote import server as server_module

from helpers import fresh_toy_repo

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Four threads, alive together, each allocating and freeing 4 MiB
#: buffers; then the number of heaps ``malloc_info`` reports.
THREADS_THEN_HEAPS = """
import ctypes, sys, tempfile, threading
if sys.argv[1] == "shared":
    from repro.remote.server import share_one_heap
    assert share_one_heap()
barrier = threading.Barrier(4)
def work():
    barrier.wait()
    for _ in range(8):
        buffer = bytearray(4 << 20)
        del buffer
    barrier.wait()
threads = [threading.Thread(target=work) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
with tempfile.NamedTemporaryFile(suffix=".xml") as report:
    stream = libc.fopen(report.name.encode(), b"w")
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    print(open(report.name).read().count("<heap nr="))
"""


#: A 4 MiB buffer freed, then a 2 MiB one allocated; how many bytes that
#: second allocation mapped on its own (``mallinfo2().hblkhd``).
FREED_THEN_MAPPED = """
import ctypes, sys
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
    )]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
if sys.argv[1] == "shared":
    from repro.remote.server import share_one_heap
    assert share_one_heap()
body = bytearray(4 << 20)
del body
before = libc.mallinfo2().hblkhd
frame = bytearray(2 << 20)
print(libc.mallinfo2().hblkhd - before)
"""

def libc_has(*names) -> bool:
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return all(hasattr(libc, name) for name in names)


def fresh_process_prints(script: str, mode: str) -> int:
    done = subprocess.run(
        [sys.executable, "-c", script, mode],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", "")),
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(
    not libc_has("mallopt", "malloc_info"), reason="needs glibc's mallopt and malloc_info"
)
def test_four_threads_allocate_in_one_heap_only_with_the_helper():
    assert fresh_process_prints(THREADS_THEN_HEAPS, "own") > 1
    assert fresh_process_prints(THREADS_THEN_HEAPS, "shared") == 1


@pytest.mark.skipif(
    not libc_has("mallopt", "mallinfo2"), reason="needs glibc's mallopt and mallinfo2"
)
def test_a_freed_frame_moves_the_next_frame_into_the_heap_only_without_the_helper():
    assert fresh_process_prints(FREED_THEN_MAPPED, "own") < 2 << 20
    assert fresh_process_prints(FREED_THEN_MAPPED, "shared") >= 2 << 20


def serve_recording(monkeypatch, argv) -> list[str]:
    """Run a serving verb in-process with ``--requests 0``; the order in
    which it capped the heap, built what it serves and bound its server."""
    calls = []
    monkeypatch.setattr(server_module, "share_one_heap", lambda: calls.append("heap") or True)
    load_dir = MLCask.load_dir.__func__
    monkeypatch.setattr(MLCask, "load_dir", classmethod(
        lambda cls, *args, **kwargs: calls.append("build") or load_dir(cls, *args, **kwargs)
    ))
    hub_for = cli._hub_for
    monkeypatch.setattr(
        cli, "_hub_for", lambda *args, **kwargs: calls.append("build") or hub_for(*args, **kwargs)
    )
    bind = server_module.SyncHTTPServer.__init__

    def binding(self, *args, **kwargs):
        calls.append("bind")
        bind(self, *args, **kwargs)

    monkeypatch.setattr(server_module.SyncHTTPServer, "__init__", binding)
    assert cli.main([*argv, "--port", "0", "--requests", "0"], out=io.StringIO()) == 0
    return calls


def test_repro_serve_caps_the_heap_before_it_loads_the_repository(monkeypatch, tmp_path):
    fresh_toy_repo().save_dir(str(tmp_path / "repo"))
    assert serve_recording(monkeypatch, ["serve", str(tmp_path / "repo")]) == [
        "heap", "build", "bind",
    ]


def test_repro_hub_serve_caps_the_heap_before_it_builds_the_hub(monkeypatch, tmp_path):
    root = str(tmp_path / "hub")
    assert cli.main(["hub", "init", root], out=io.StringIO()) == 0
    assert serve_recording(monkeypatch, ["hub", "serve", root]) == ["heap", "build", "bind"]


class NoMallopt:
    """A libc without ``mallopt``: records every symbol looked up."""

    def __init__(self, name):
        self.looked_up = []

    def __getattr__(self, symbol):
        self.looked_up.append(symbol)
        raise AttributeError(symbol)


def test_without_mallopt_the_helper_changes_nothing(monkeypatch):
    libcs = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libcs.append(NoMallopt(name)) or libcs[-1])
    assert server_module.share_one_heap() is False
    (libc,) = libcs
    assert libc.looked_up == ["mallopt"]
