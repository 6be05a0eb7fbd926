"""RWLock writer preference under contention, and its refusal of re-entry.

The lock guards every repository the hub hosts; the property that keeps
pushes from starving is that readers arriving while a writer *waits*
queue behind it — these tests drive that interleaving explicitly with
events rather than hoping a storm hits the window.
"""

import threading
import time

import pytest

from repro.remote import RWLock

WAIT = 5.0  # generous; the assertions are on ordering, not timing


def start(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


class TestSharedSide:
    def test_readers_share_concurrently(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=WAIT)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers in the critical section at once

        threads = [start(reader), start(reader)]
        for t in threads:
            t.join(timeout=WAIT)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("writer-done")

        def reader():
            writer_in.wait(WAIT)
            with lock.read_locked():
                order.append("reader")

        tw, tr = start(writer), start(reader)
        tw.join(timeout=WAIT)
        tr.join(timeout=WAIT)
        assert order == ["writer-done", "reader"]


class TestWriterPreference:
    def test_reader_arriving_behind_waiting_writer_blocks(self):
        """reader1 holds the lock; a writer waits; reader2 arrives.
        Without writer preference reader2 would join reader1 and the
        writer could starve — here reader2 must wait out the writer."""
        lock = RWLock()
        order = []
        reader1_in = threading.Event()
        writer_waiting = threading.Event()
        release_reader1 = threading.Event()
        reader2_started = threading.Event()

        def reader1():
            with lock.read_locked():
                reader1_in.set()
                release_reader1.wait(WAIT)
            order.append("reader1-out")

        def writer():
            reader1_in.wait(WAIT)
            writer_waiting.set()
            with lock.write_locked():
                order.append("writer")

        def reader2():
            writer_waiting.wait(WAIT)
            time.sleep(0.05)  # let the writer actually enqueue
            reader2_started.set()
            with lock.read_locked():
                order.append("reader2")

        threads = [start(reader1), start(writer), start(reader2)]
        reader2_started.wait(WAIT)
        time.sleep(0.05)
        # reader2 must be *blocked* while the writer waits, even though
        # the lock is currently held only by a fellow reader.
        assert "reader2" not in order
        release_reader1.set()
        for t in threads:
            t.join(timeout=WAIT)
        assert order.index("writer") < order.index("reader2")

    def test_many_readers_queue_behind_one_writer(self):
        lock = RWLock()
        results = []
        holder_in = threading.Event()
        release_holder = threading.Event()

        def holder():
            with lock.read_locked():
                holder_in.set()
                release_holder.wait(WAIT)

        def writer():
            holder_in.wait(WAIT)
            with lock.write_locked():
                results.append("writer")

        def late_reader(i):
            def run():
                holder_in.wait(WAIT)
                time.sleep(0.1)  # arrive after the writer queued
                with lock.read_locked():
                    results.append(f"reader-{i}")
            return run

        threads = [start(holder), start(writer)]
        threads += [start(late_reader(i)) for i in range(4)]
        time.sleep(0.2)
        release_holder.set()
        for t in threads:
            t.join(timeout=WAIT)
        assert results[0] == "writer"
        assert sorted(results[1:]) == [f"reader-{i}" for i in range(4)]

    def test_lock_reusable_after_contention(self):
        lock = RWLock()
        with lock.write_locked():
            pass
        with lock.read_locked():
            pass
        done = []

        def quick_writer():
            with lock.write_locked():
                done.append(True)

        t = start(quick_writer)
        t.join(timeout=WAIT)
        assert done == [True]


class TestReentryRefused:
    """A thread asking for a side while it holds one would wait on itself
    forever; the lock raises instead (the timeout catches the old hang)."""

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize(
        "held, asked",
        [("read", "write"), ("write", "read"), ("read", "read"), ("write", "write")],
    )
    def test_second_side_raises_at_once(self, held, asked):
        lock = RWLock()
        side = {"read": lock.read_locked, "write": lock.write_locked}
        with side[held]():
            with pytest.raises(RuntimeError, match=f"holds the {held} side"):
                with side[asked]():
                    pass
        # The refusal left the counters alone: another thread takes both.
        done = []

        def other():
            with lock.write_locked():
                done.append("write")
            with lock.read_locked():
                done.append("read")

        start(other).join(timeout=WAIT)
        assert done == ["write", "read"]
