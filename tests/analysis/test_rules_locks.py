"""Lock-discipline rules over seeded fixture violations.

Each fixture is the smallest program exhibiting one bug class from the
repo's history; every test asserts the *exact* rule id and line so a
rule that drifts (fires elsewhere, or not at all) fails loudly.
"""

import pytest

from repro.analysis.model import Baseline
from repro.analysis.report import run_lint

DEADLOCK_CYCLE = """\
    import threading


    class Ledger:
        def __init__(self):
            self._lock = threading.Lock()
            self._audit_lock = threading.Lock()

        def deposit(self):
            with self._lock:
                with self._audit_lock:  # order: _lock -> _audit_lock
                    pass

        def audit(self):
            with self._audit_lock:
                with self._lock:  # MARK inverted: _audit_lock -> _lock
                    pass
"""

IO_UNDER_LOCK = """\
    import threading


    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.entries = {}

        def persist(self):
            with self._lock:
                with open("state.json", "w") as fh:  # MARK write under lock
                    fh.write(str(self.entries))
"""


class TestLK001DeadlockCycle:
    def test_fires_on_inverted_pair(self, tree, line_of):
        source = tree.write("ledger.py", DEADLOCK_CYCLE)
        findings = tree.findings("LK001")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "LK001"
        # The witness anchors on the first edge in file order: the
        # nested acquisition inside deposit().
        assert finding.line == line_of(source, "order: _lock -> _audit_lock")
        assert "Ledger._lock" in finding.message
        assert "Ledger._audit_lock" in finding.message

    def test_consistent_order_is_clean(self, tree):
        tree.write(
            "ledger.py",
            DEADLOCK_CYCLE.replace(
                "with self._audit_lock:\n                with self._lock:",
                "with self._lock:\n                with self._audit_lock:",
            ),
        )
        assert tree.findings("LK001") == []

    def test_interprocedural_cycle(self, tree, line_of):
        # The inversion hides behind a call: audit() holds _audit_lock
        # and calls a helper that takes _lock.
        source = tree.write(
            "ledger.py",
            """\
            import threading


            class Ledger:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._audit_lock = threading.Lock()

                def _locked_total(self):
                    with self._lock:
                        return 0

                def deposit(self):
                    with self._lock:
                        with self._audit_lock:
                            pass

                def audit(self):
                    with self._audit_lock:
                        return self._locked_total()  # MARK hidden inversion
            """,
        )
        findings = tree.findings("LK001")
        assert len(findings) == 1
        assert "_locked_total" in findings[0].message
        assert line_of(source, "hidden inversion") > 0  # fixture sanity

    def test_suppression_silences(self, tree):
        tree.write(
            "ledger.py",
            DEADLOCK_CYCLE.replace(
                "with self._audit_lock:  # order: _lock -> _audit_lock",
                "with self._audit_lock:  # repro-lint: disable=LK001 - test",
            ),
        )
        result = run_lint(tree.root)
        assert [f.rule for f in result.findings] == []
        assert result.suppressed == 1


class TestLK002BlockingUnderLock:
    def test_fires_on_direct_io(self, tree, line_of):
        source = tree.write("store.py", IO_UNDER_LOCK)
        findings = tree.findings("LK002")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "LK002"
        assert finding.line == line_of(source, "MARK write under lock")
        assert finding.symbol == "Store.persist"
        assert "open" in finding.message

    def test_fires_on_sleep_and_socket_verbs(self, tree, line_of):
        source = tree.write(
            "poller.py",
            """\
            import threading
            import time


            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self, connection):
                    with self._lock:
                        time.sleep(0.1)  # MARK sleep
                        connection.request("POST", "/x")  # MARK socket
            """,
        )
        lines = {f.line for f in tree.findings("LK002")}
        assert line_of(source, "MARK sleep") in lines
        assert line_of(source, "MARK socket") in lines

    @pytest.mark.parametrize(
        "call",
        [
            'append_journal("commits.0.jsonl", 0, self.rows)',
            'read_journal("commits.0.jsonl", 10)',
            "save_repository_dir(self.repo, self.root, hosted=True)",
            "restore_repository_dir(self.repo, self.root, self.header)",
            "read_holdings(self.root, self.header)",
        ],
    )
    def test_fires_on_repository_directory_io(self, tree, line_of, call):
        """The journal fsync and the header replace sit behind imported
        names: the lint sees no ``open`` or ``os.fsync`` at the call."""
        source = tree.write(
            "host.py",
            f"""\
            import threading

            from repro.core.persistence import *


            class Host:
                def __init__(self):
                    self._lock = threading.Lock()

                def persist(self):
                    with self._lock:
                        {call}  # MARK repository I/O
            """,
        )
        findings = tree.findings("LK002")
        assert [f.line for f in findings] == [line_of(source, "MARK repository I/O")]

    def test_transitive_io_reports_chain(self, tree, line_of):
        source = tree.write(
            "store.py",
            """\
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def _flush(self):
                    with open("state", "w") as fh:
                        fh.write("x")

                def update(self):
                    with self._lock:
                        self._flush()  # MARK transitive
            """,
        )
        findings = tree.findings("LK002")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK transitive")
        assert "Store.update -> Store._flush" in findings[0].message

    def test_io_outside_lock_is_clean(self, tree):
        tree.write(
            "store.py",
            """\
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.entries = {}

                def persist(self):
                    with self._lock:
                        snapshot = dict(self.entries)
                    with open("state.json", "w") as fh:
                        fh.write(str(snapshot))
            """,
        )
        assert tree.findings("LK002") == []

    def test_rwlock_side_is_exempt(self, tree):
        # Per-repo write exclusion is the *designed* place for
        # persistence (see conventions.py): no LK002 under RWLock.
        tree.write(
            "repo.py",
            """\
            class Repo:
                def __init__(self, rwlock):
                    self._rwlock = rwlock

                def persist(self):
                    with self._rwlock.write_locked():
                        with open("state", "w") as fh:
                            fh.write("x")
            """,
        )
        assert tree.findings("LK002") == []

    def test_baseline_silences(self, tree, tmp_path):
        tree.write("store.py", IO_UNDER_LOCK)
        baseline_path = tmp_path / "baseline.json"
        raw = run_lint(tree.root)
        assert len(raw.findings) == 1
        Baseline.write(baseline_path, raw.findings, justification="test")
        result = run_lint(tree.root, baseline=Baseline.load(baseline_path))
        assert result.findings == []
        assert result.baselined == 1

    def test_baseline_survives_line_drift(self, tree, tmp_path):
        tree.write("store.py", IO_UNDER_LOCK)
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, run_lint(tree.root).findings)
        # Prepend an import: every line shifts, fingerprints must not.
        tree.write("store.py", "    import os  # noqa\n" + IO_UNDER_LOCK)
        result = run_lint(tree.root, baseline=Baseline.load(baseline_path))
        assert result.findings == []
        assert result.baselined == 1


class TestLK003ExclusiveInsideShared:
    def test_fires_on_read_to_write_upgrade(self, tree, line_of):
        source = tree.write(
            "repo.py",
            """\
            class Repo:
                def __init__(self, rwlock):
                    self._rwlock = rwlock

                def read_then_mutate(self):
                    with self._rwlock.read_locked():
                        with self._rwlock.write_locked():  # MARK upgrade
                            pass
            """,
        )
        findings = tree.findings("LK003")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK upgrade")
        assert findings[0].symbol == "Repo.read_then_mutate"

    def test_write_then_read_not_flagged(self, tree):
        tree.write(
            "repo.py",
            """\
            class Repo:
                def __init__(self, rwlock):
                    self._rwlock = rwlock

                def mutate(self):
                    with self._rwlock.write_locked():
                        pass
                    with self._rwlock.read_locked():
                        pass
            """,
        )
        assert tree.findings("LK003") == []


class TestLK004WaitUnderLock:
    def test_fires_on_event_wait_under_mutex(self, tree, line_of):
        source = tree.write(
            "waiter.py",
            """\
            import threading


            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.ready = threading.Event()

                def block(self):
                    with self._lock:
                        self.ready.wait()  # MARK wait under lock
            """,
        )
        findings = tree.findings("LK004")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK wait under lock")

    def test_condition_wait_on_held_lock_is_blessed(self, tree):
        tree.write(
            "worker.py",
            """\
            import threading


            class Worker:
                def __init__(self):
                    self._work = threading.Condition()

                def take(self):
                    with self._work:
                        while True:
                            self._work.wait()
            """,
        )
        assert tree.findings("LK004") == []


class TestAgainstRealModules:
    """The rules run clean over the repo's real concurrent layers
    except the two known, documented findings (one fixed in this PR,
    one baselined)."""

    def test_engine_and_obs_are_clean(self, repo_src):
        result = run_lint(repo_src / "engine", package="repro.engine")
        assert result.findings == []
        result = run_lint(repo_src / "obs", package="repro.obs")
        assert result.findings == []


@pytest.fixture
def repo_src():
    import repro
    from pathlib import Path

    return Path(repro.__file__).resolve().parent
