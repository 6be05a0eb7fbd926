"""Shared pytest configuration.

Besides making ``tests/helpers.py`` importable, this registers the
``timeout`` marker used as a deadlock guard on the engine's concurrency
tests. CI installs ``pytest-timeout``, which enforces the marker; when
the plugin is absent (minimal local environments) a SIGALRM-based
fallback below enforces it for main-thread tests on POSIX, so a
deadlocked scheduler or merge coordinator fails the test instead of
hanging the run.

It also installs the lock witness (below), which checks the lock
discipline of everything under ``src/repro`` for the whole session, and
registers the ``kernel-oracles`` hypothesis profile: the wider draw CI
gives the differential tests of the bundled apps' kernels
(``python -m pytest --hypothesis-profile kernel-oracles ...``; see
``oracle_settings`` in ``helpers.py``).
"""

import _thread
import builtins
import importlib.util
import linecache
import os
import re
import signal
import socket
import sys
import threading

import pytest
from hypothesis import settings

# Make tests/helpers.py importable as `helpers` from any test module.
sys.path.insert(0, os.path.dirname(__file__))

# A near-tie a rewritten kernel flips shows up only in some drawn inputs:
# a padded stump product flips one only where threshold counts mix.
settings.register_profile("kernel-oracles", max_examples=600, deadline=None)

pytest_plugins = ["pytester"]

try:
    import pytest_timeout  # noqa: F401

    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False


# ----------------------------------------------------------- lock witness
#
# Lock discipline is checked where the locks live, at run time. From here
# to the end of the session every Lock, RLock and Condition that code
# under src/repro creates is wrapped. Its creation site is the first frame
# outside ``threading`` and this file, so the Condition inside RWLock
# belongs to ``RWLock.__init__``. The session fails on:
#
#   LK001  a cycle in the held -> acquired order between creation sites
#          (every instance of one site is one rank: self-edges are ignored);
#   LK002  os.fsync, os.fdatasync, os.replace (the rename every atomic
#          write publishes with) or a socket send while holding a mutex;
#   LK004  Event.wait, or Condition.wait on another object, while holding one.
#
# LK003, a read -> write upgrade, is refused by RWLock itself. Two kinds of
# lock are not service-wide mutexes for LK002/LK004 but still count for
# LK001: a per-tenant lock serializes one tenant's writes only, and an
# RWLock side is never held here at all (its condition is released as soon
# as a side is taken).
NOT_MUTEXES = {"RepositoryHub._tenant_lock()"}

#: (held lock, function on the stack) -> why blocking there is the design.
ALLOWED_BLOCKING = {
    ("RepositoryHub._config_lock", "RepositoryHub._save_config"):
        "the lock orders config-file writers and guards no request-path "
        "state; the write is its whole purpose",
    ("FileChunkStore._lock", "FileChunkStore._write"):
        "the lock orders appenders of one file and nothing else (readers "
        "take none), so the file I/O under it is its whole critical section",
    ("FileChunkStore._lock", "FileChunkStore.compact"):
        "as for _write: the rewrite and its publishing rename are the "
        "critical section",
    ("HttpTransport._lock", "HttpTransport._call"):
        "one request in flight per pooled connection: the socket I/O is the "
        "lock's entire critical section, and it guards no other state",
}

_SKIP_FILES = {threading.__file__, __file__}
_REPRO_DIR = os.path.dirname(importlib.util.find_spec("repro").origin) + os.sep
_ASSIGNED = re.compile(r"self\.(\w+)\s*=(?!=)")


def _qualname(frame) -> str:
    code = frame.f_code
    if hasattr(code, "co_qualname"):  # Python >= 3.11
        return code.co_qualname
    for value in list(frame.f_globals.values()):
        if isinstance(value, type) and (
            getattr(vars(value).get(code.co_name), "__code__", None) is code
        ):
            return f"{value.__qualname__}.{code.co_name}"
    return code.co_name


def _caller():
    """The innermost frame outside ``threading`` and this file."""
    frame = sys._getframe(1)
    while frame.f_code.co_filename in _SKIP_FILES:
        frame = frame.f_back
    return frame


def _where(frame) -> str:
    path = frame.f_code.co_filename
    if path.startswith(_REPRO_DIR):
        path = "repro/" + path[len(_REPRO_DIR):]
    return f"{path}:{frame.f_lineno}"


def _creation_site():
    """``(label, path:line)`` of a lock being created under src/repro —
    ``RepositoryHub._lock`` for ``self._lock = ...`` in one of its
    methods, ``RepositoryHub._tenant_lock()`` otherwise — or None."""
    frame = _caller()
    if not frame.f_code.co_filename.startswith(_REPRO_DIR):
        return None
    qualname = _qualname(frame)
    owner = qualname.rpartition(".")[0]
    line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
    assigned = _ASSIGNED.search(line)
    label = f"{owner}.{assigned[1]}" if owner and assigned else f"{qualname}()"
    return label, _where(frame)


class LockWitness:
    """Held -> acquired edges between creation sites, and the violations."""

    def __init__(self):
        self._local = threading.local()
        self._mutex = _thread.allocate_lock()
        self.edges: dict = {}  # (outer site, inner site) -> test that first took it
        self.violations: dict = {}  # dedup key -> message
        self.allowed = ALLOWED_BLOCKING
        self.test = "(collection)"

    def held(self) -> list:
        try:
            return self._local.held
        except AttributeError:
            self._local.held = []
            return self._local.held

    def acquired(self, lock) -> None:
        held = self.held()
        for outer in held:
            if outer.site != lock.site and (outer.site, lock.site) not in self.edges:
                self._add_edge(outer.site, lock.site)
        held.append(lock)

    def released(self, lock, every: bool = False) -> int:
        held, count = self.held(), 0
        while lock in held and (every or not count):
            held.remove(lock)
            count += 1
        return count

    def _add_edge(self, outer, inner) -> None:
        with self._mutex:
            if (outer, inner) in self.edges:
                return
            back = self._path(inner, outer)
            self.edges[(outer, inner)] = self.test
        if back:
            chain = " -> ".join(f"{label} ({where})" for label, where in back)
            self._violate(
                ("LK001", outer, inner),
                f"LK001 lock-order cycle: {outer[0]} ({outer[1]}) -> {inner[0]} "
                f"({inner[1]}) in {self.test}, but {chain} first in "
                f"{self.edges[(back[0], back[1])]}",
            )

    def _path(self, start, goal) -> list:
        """Sites from ``start`` to ``goal`` along recorded edges, or []."""
        parents, frontier = {start: None}, [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                path = []
                while node is not None:
                    path.append(node)
                    node = parents[node]
                return path[::-1]
            for outer, inner in self.edges:
                if outer == node and inner not in parents:
                    parents[inner] = node
                    frontier.append(inner)
        return []

    def blocking(self, rule: str, what: str, exempt=None) -> None:
        """``what`` is about to block: no mutex may be held (LK002/LK004)."""
        mutexes = [
            lock for lock in self.held()
            if lock is not exempt and lock.site[0] not in NOT_MUTEXES
        ]
        if not mutexes:
            return
        frames, frame = [], _caller()
        while frame is not None:
            frames.append(frame)
            frame = frame.f_back
        # The call site: the innermost frame under src/repro, if any.
        in_repro = [f for f in frames if f.f_code.co_filename.startswith(_REPRO_DIR)]
        at = _where((in_repro or frames)[0])
        stack = {_qualname(f) for f in frames} if rule == "LK002" else set()
        for lock in mutexes:
            if any((lock.site[0], function) in self.allowed for function in stack):
                continue
            self._violate(
                (rule, lock.site, at),
                f"{rule} {what} while holding {lock.site[0]} ({lock.site[1]}), "
                f"at {at} in {self.test}",
            )

    def _violate(self, key, message: str) -> None:
        with self._mutex:
            self.violations.setdefault(key, message)

    @staticmethod
    def witnessed(lock) -> bool:
        """True for a Lock, RLock or Condition the witness tracks."""
        return isinstance(getattr(lock, "_lock", lock), _WitnessedLock)


_WITNESS = LockWitness()


class _WitnessedLock:
    """A Lock that reports its acquisitions and releases to the witness."""

    def __init__(self, real, site):
        self._real = real
        self.site = site

    def __getattr__(self, name):  # locked(), _at_fork_reinit(), _is_owned()
        return getattr(self._real, name)

    def acquire(self, blocking=True, timeout=-1):
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            _WITNESS.acquired(self)
        return acquired

    __enter__ = acquire

    def release(self):
        self._real.release()
        _WITNESS.released(self)

    def __exit__(self, *exc_info):
        self.release()


class _WitnessedRLock(_WitnessedLock):
    # Condition.wait releases and re-takes an RLock through these two
    # (and asks it _is_owned, forwarded above): the held set follows.
    def _release_save(self):
        return self._real._release_save(), _WITNESS.released(self, every=True)

    def _acquire_restore(self, state):
        self._real._acquire_restore(state[0])
        _WITNESS.held().extend([self] * state[1])


class _Condition(threading.Condition):
    def wait(self, timeout=None):
        _WITNESS.blocking("LK004", "Condition.wait", exempt=self._lock)
        return super().wait(timeout)


class _Event(threading.Event):
    def wait(self, timeout=None):
        _WITNESS.blocking("LK004", "Event.wait")
        return super().wait(timeout)


def _witnessed(create, wrapper):
    def factory(*args, **kwargs):
        site = _creation_site()
        lock = create(*args, **kwargs)
        return lock if site is None else wrapper(lock, site)

    return factory


def _checked(what, call):
    def blocking_call(*args, **kwargs):
        _WITNESS.blocking("LK002", what)
        return call(*args, **kwargs)

    return blocking_call


threading.Lock = _witnessed(threading.Lock, _WitnessedLock)
threading.RLock = _witnessed(threading.RLock, _WitnessedRLock)
threading.Condition = _Condition
threading.Event = _Event
for _name in ("fsync", "fdatasync", "replace"):
    if hasattr(os, _name):
        setattr(os, _name, _checked(f"os.{_name}", getattr(os, _name)))
for _name in ("send", "sendall"):
    setattr(socket.socket, _name, _checked(f"socket.{_name}", getattr(socket.socket, _name)))


@pytest.fixture
def lock_witness():
    """The witness, holding the edges and violations of this test only
    (the session's are set aside and restored after it), so a test can
    seed a violation and assert on it without failing the session."""
    saved = _WITNESS.edges, _WITNESS.violations
    _WITNESS.edges, _WITNESS.violations = {}, {}
    try:
        yield _WITNESS
    finally:
        _WITNESS.edges, _WITNESS.violations = saved


def pytest_runtest_logstart(nodeid):
    _WITNESS.test = nodeid


def pytest_sessionfinish(session):
    if _WITNESS.violations:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _WITNESS.violations:
        terminalreporter.section("lock witness", red=True)
        for message in _WITNESS.violations.values():
            terminalreporter.line(message)


# ----------------------------------------------------------------- fixtures
@pytest.fixture
def syscalls(monkeypatch):
    """Names of the file system calls made, in order: the ``os``
    functions listed below by bare name, the buffered ``open`` as
    ``builtins.open``. For tests that hold a per-chunk path to a count
    instead of a time; clear the list (``del syscalls[:]``) after set-up."""
    calls: list[str] = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in (
        "open", "fstat", "read", "close", "stat", "lstat",
        "pread", "write", "lseek", "replace", "fsync", "fdatasync",
        "listdir", "unlink",
    ):
        monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
    monkeypatch.setattr(builtins, "open", counted("builtins.open", builtins.open))
    return calls


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than this "
        "(deadlock guard; enforced by pytest-timeout when installed, "
        "by a SIGALRM fallback otherwise)",
    )


if not _HAVE_TIMEOUT_PLUGIN and hasattr(signal, "SIGALRM"):
    # Old-style hookwrapper protocol: works on every pluggy version, and
    # this branch only runs in minimal environments, exactly where an old
    # distro pytest is most likely.
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        if marker is None or threading.current_thread() is not threading.main_thread():
            yield
            return
        seconds = float(marker.args[0] if marker.args else marker.kwargs["seconds"])

        def on_alarm(signum, frame):
            raise TimeoutError(
                f"{item.nodeid} exceeded its {seconds:g}s timeout (deadlock guard)"
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
