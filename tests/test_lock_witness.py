"""The lock witness in ``tests/conftest.py`` sees what it must.

Each case fails if the witness stops doing one of its jobs: recording
the lock orders the hub really takes, failing a session that seeds a
lock-order inversion or a write under the hub lock, flagging a wait
under a mutex, or wrapping the locks the serving layers build.
"""

import os
import shutil
import socket
import threading
from pathlib import Path

import pytest

import repro
from repro import MLCask
from repro.hub import RepositoryHub
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.remote import HttpTransport, RWLock, serve
from repro.remote.protocol import encode_message
from repro.remote.server import ResponseCache
from repro.storage.chunk_store import FileChunkStore
from repro.workloads import ALL_WORKLOADS

from helpers import build_workload_repo


def test_hub_lock_orders_are_recorded(lock_witness):
    workload = ALL_WORKLOADS["readmission"](scale=0.3, seed=0)
    hub = RepositoryHub()
    hub.add_tenant("t", tokens=["tok"], quota_bytes=10**9)
    hosted = hub.create_repo("t", "proj")
    local = build_workload_repo(workload)
    local.add_remote("hub", hub.local_transport("t", "proj", "tok")).push(workload.name)
    seen = {(outer[0], inner[0]) for outer, inner in lock_witness.edges}
    # The quota check of a write: the tenant's lock, then the hub lock.
    assert ("RepositoryHub._tenant_lock()", "RepositoryHub._lock") in seen
    # create_repo builds the hosted server under the hub lock.
    assert ("RepositoryHub._lock", "MetricsRegistry._lock") in seen
    # The static analyzer also drew hub lock -> HealthMonitor._lock, through
    # a RepositoryServer building its own monitor. A hub never lets it: it
    # hands in the one it built in its constructor, outside the lock.
    assert hosted.server.health_monitor is hub.health


SUBSESSION = """
import hashlib

from repro.hub import RepositoryHub
from repro.remote.protocol import encode_message


def test_drive_the_hub(tmp_path):
    hub = RepositoryHub(root=tmp_path / "hub")
    hub.add_tenant("t", tokens=["tok"], quota_bytes=10**6)
    hub.create_repo("t", "proj")
    blob = b"quota-charged bytes"
    meta = {"op": "put_chunks", "digests": [hashlib.sha256(blob).hexdigest()]}
    hub.handle_request("t", "proj", "tok", encode_message(meta, [blob]))
"""

#: Scratch edits of hub/hub.py: (old, new, what the witness must report).
SEEDED = {
    "clean": None,
    "inverted pair": (
        "        with self._lock:\n"
        "            self.requests_handled += 1\n",
        "        with self._lock:\n"
        '            with self._tenant_lock("scratch"):\n'
        "                self.requests_handled += 1\n",
        "LK001 lock-order cycle: RepositoryHub._tenant_lock() (repro/hub/hub.py:",
    ),
    "config write under the hub lock": (
        "with self._config_lock:",
        "with self._lock:",
        "LK002 os.replace while holding RepositoryHub._lock (repro/hub/hub.py:",
    ),
}


@pytest.mark.parametrize("seeded", list(SEEDED))
def test_a_seeded_mistake_fails_the_session(pytester, monkeypatch, seeded):
    """A sub-session over a scratch copy of the package: its one test
    passes either way, the witness alone decides the exit status."""
    scratch = pytester.path / "src" / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, scratch,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if SEEDED[seeded] is not None:
        old, new, expected = SEEDED[seeded]
        hub_py = scratch / "hub" / "hub.py"
        source = hub_py.read_text(encoding="utf-8")
        assert source.count(old) == 1, "hub.py changed; update the seeded edit"
        hub_py.write_text(source.replace(old, new), encoding="utf-8")
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyfile(SUBSESSION)
    monkeypatch.setenv("PYTHONPATH", str(scratch.parent))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1)
    output = result.stdout.str()
    if SEEDED[seeded] is None:
        assert result.ret == 0 and "lock witness" not in output
        return
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    assert expected in output
    if seeded == "inverted pair":  # both creation sites, both ways round
        assert "but RepositoryHub._lock (repro/hub/hub.py:" in output


def three_sites():
    """Locks from three distinct creation sites under src/repro."""
    return dict(zip("abc", (ResponseCache()._lock, HealthMonitor()._lock, MetricsRegistry()._lock)))


@pytest.mark.parametrize(
    "order, cycle",
    [("ab ab", False), ("ab ba", True), ("ab bc ca", True), ("ab bc ac", False)],
)
def test_lock_order_cycles(lock_witness, order, cycle):
    locks = three_sites()
    for outer, inner in order.split():
        with locks[outer], locks[inner]:
            pass
    messages = list(lock_witness.violations.values())
    assert len(messages) == cycle
    for message in messages:  # every site on the cycle is named
        assert message.startswith("LK001 lock-order cycle: ")
        assert all(locks[name].site[0] in message for name in set(order) - {" "})


def test_instances_of_one_site_are_one_rank(lock_witness):
    with ResponseCache()._lock, ResponseCache()._lock:
        pass
    assert lock_witness.edges == {} and lock_witness.violations == {}


def test_a_lock_held_elsewhere_orders_nothing_here(lock_witness):
    a, b = ResponseCache()._lock, HealthMonitor()._lock
    taker = threading.Thread(target=a.acquire)
    taker.start()
    taker.join()
    assert not a.acquire(blocking=False)  # a failed try is not held either
    with b:
        pass
    a.release()
    assert lock_witness.edges == {}


def wait_on(condition):
    with condition:
        condition.wait(timeout=0)


BLOCKING = {
    "Event.wait": "LK004", "Condition.wait": "LK004", "os.fsync": "LK002",
    "os.fdatasync": "LK002", "os.replace": "LK002", "socket.send": "LK002",
    "socket.sendall": "LK002",
}


@pytest.mark.parametrize("held", [True, False], ids=["held", "released"])
@pytest.mark.parametrize("what", list(BLOCKING))
def test_blocking_under_a_mutex_is_flagged(lock_witness, tmp_path, what, held):
    ready = threading.Event()
    ready.set()  # flagged even though this wait would return at once
    (tmp_path / "old").write_bytes(b"")
    left, right = socket.socketpair()
    with open(tmp_path / "file", "wb") as fh, left, right:
        call = {
            "Event.wait": ready.wait,
            "Condition.wait": lambda: wait_on(threading.Condition()),
            "os.fsync": lambda: os.fsync(fh.fileno()),
            "os.fdatasync": lambda: os.fdatasync(fh.fileno()),
            "os.replace": lambda: os.replace(tmp_path / "old", tmp_path / "new"),
            "socket.send": lambda: left.send(b"x"),
            "socket.sendall": lambda: left.sendall(b"x"),
        }[what]
        with ResponseCache()._lock:
            if held:
                call()
        if not held:
            call()
    messages = list(lock_witness.violations.values())
    if not held:
        assert messages == []
        return
    [message] = messages
    assert message.startswith(f"{BLOCKING[what]} {what} while holding ResponseCache._lock")


def test_an_rlock_is_held_until_its_last_release(lock_witness, tmp_path):
    lock = MetricsRegistry()._lock
    with lock, open(tmp_path / "file", "wb") as fh:
        with lock:
            pass
        os.fsync(fh.fileno())
    [message] = lock_witness.violations.values()
    assert message.startswith("LK002 os.fsync while holding MetricsRegistry._lock")


def test_condition_wait_on_the_held_condition_passes(lock_witness):
    rwlock = RWLock()
    with rwlock._cond:
        rwlock._cond.wait(timeout=0.01)
        assert lock_witness.held() == [rwlock._cond._lock]  # re-taken after the wait
    assert lock_witness.held() == []
    assert lock_witness.violations == {}


@pytest.mark.parametrize("exempt", ["tenant lock", "RWLock side"])
def test_exempt_locks_may_block(lock_witness, tmp_path, exempt):
    """Neither is a service-wide mutex; the tenant lock still ranks for LK001."""
    hub = RepositoryHub()
    held = hub._tenant_lock("t") if exempt == "tenant lock" else RWLock().write_locked()
    with held, open(tmp_path / "file", "wb") as fh:
        os.fsync(fh.fileno())
        with ResponseCache()._lock:
            pass
    assert lock_witness.violations == {}
    ranked = {outer[0] for outer, inner in lock_witness.edges if inner[0] == "ResponseCache._lock"}
    assert ranked == ({"RepositoryHub._tenant_lock()"} if exempt == "tenant lock" else set())


def one_http_call(tmp_path):
    server = serve(MLCask(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        HttpTransport(server.url).call(encode_message({"op": "manifest"}, []))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def compact_after_discard(tmp_path):
    store = FileChunkStore(tmp_path / "chunks")
    store.discard(store.put(b"dropped"))
    store.put(b"kept")
    store.compact()


#: The function each allow-list row names -> code that blocks in it.
ALLOWED_BY = {
    "RepositoryHub._save_config":
        lambda tmp_path: RepositoryHub(root=tmp_path / "hub").add_tenant("t", tokens=["tok"]),
    "FileChunkStore._write": lambda tmp_path: FileChunkStore(tmp_path / "chunks").put(b"x"),
    "FileChunkStore.compact": compact_after_discard,
    "HttpTransport._call": one_http_call,
}


@pytest.mark.parametrize("function", list(ALLOWED_BY))
def test_every_allowed_row_is_needed(lock_witness, monkeypatch, tmp_path, function):
    """Without its row, the code a row names is flagged: no row is stale."""
    assert {row[1] for row in lock_witness.allowed} == set(ALLOWED_BY)
    [row] = [row for row in lock_witness.allowed if row[1] == function]
    monkeypatch.setattr(
        lock_witness, "allowed", {key: why for key, why in lock_witness.allowed.items() if key != row}
    )
    ALLOWED_BY[function](tmp_path)
    assert any(
        message.startswith("LK002 ") and f" while holding {row[0]} (" in message
        for message in lock_witness.violations.values()
    )


def test_serving_locks_are_witnessed(lock_witness, tmp_path):
    hub = RepositoryHub(root=tmp_path / "hub")
    hub.add_tenant("t", tokens=["tok"])
    server = hub.create_repo("t", "proj").server
    store = FileChunkStore(tmp_path / "chunks")
    transport = HttpTransport("http://127.0.0.1:1")
    for lock in (
        hub._lock, hub._config_lock, hub._tenant_lock("t"),
        server._rwlock._cond, server._count_lock, server.cache._lock,
        store._lock, transport._lock,
    ):
        assert lock_witness.witnessed(lock)
    assert not lock_witness.witnessed(threading.Lock())  # built outside src/repro
