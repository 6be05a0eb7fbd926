"""Shared pytest configuration.

Besides making ``tests/helpers.py`` importable, this registers the
``timeout`` marker used as a deadlock guard on the engine's concurrency
tests. CI installs ``pytest-timeout``, which enforces the marker; when
the plugin is absent (minimal local environments) a SIGALRM-based
fallback below enforces it for main-thread tests on POSIX, so a
deadlocked scheduler or merge coordinator fails the test instead of
hanging the run.
"""

import builtins
import os
import signal
import sys
import threading

import pytest

# Make tests/helpers.py importable as `helpers` from any test module.
sys.path.insert(0, os.path.dirname(__file__))

try:
    import pytest_timeout  # noqa: F401

    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False


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
