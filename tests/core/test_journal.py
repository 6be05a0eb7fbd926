"""The journal helpers and the atomic JSON write they commit through."""

import json
import os
import sys
import threading
import time

import pytest

from repro.core.persistence import (
    append_journal,
    read_journal,
    write_json_atomic,
)
from repro.errors import RepositoryError


class TestJournal:
    def test_append_returns_the_length_to_commit_and_read_stops_there(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        first = append_journal(path, 0, [{"n": 1}, ["digest", 7]])
        second = append_journal(path, first, [{"n": 2}])
        assert os.path.getsize(path) == second
        assert read_journal(path, first) == [{"n": 1}, ["digest", 7]]
        assert read_journal(path, second) == [{"n": 1}, ["digest", 7], {"n": 2}]

    def test_nothing_committed_reads_no_file(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl"), 0) == []

    def test_append_cuts_off_what_lies_past_the_committed_length(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        committed = append_journal(path, 0, [{"n": 1}])
        append_journal(path, committed, [{"lost": True}])  # never committed
        with open(path, "ab") as fh:
            fh.write(b'{"torn": ')
        length = append_journal(path, committed, [{"n": 2}])
        assert os.path.getsize(path) == length
        assert read_journal(path, length) == [{"n": 1}, {"n": 2}]

    def test_a_journal_shorter_than_committed_is_an_error_not_a_guess(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        committed = append_journal(path, 0, [{"n": 1}, {"n": 2}])
        os.truncate(path, committed - 3)
        with pytest.raises(RepositoryError, match="were committed"):
            read_journal(path, committed)
        with pytest.raises(RepositoryError, match="were committed"):
            append_journal(path, committed, [{"n": 3}])

    def test_rows_are_canonical_bytes(self, tmp_path):
        one, two = str(tmp_path / "one"), str(tmp_path / "two")
        append_journal(one, 0, [{"b": 1, "a": [1.5, "x"]}])
        append_journal(two, 0, [{"a": [1.5, "x"], "b": 1}])
        with open(one, "rb") as a, open(two, "rb") as b:
            assert a.read() == b.read() == b'{"a":[1.5,"x"],"b":1}\n'


class TestWriteJsonAtomic:
    def test_failed_write_leaves_the_old_file_and_no_temp(self, tmp_path):
        path = str(tmp_path / "state.json")
        write_json_atomic(path, {"v": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"v": object()})
        with open(path) as fh:
            assert json.load(fh) == {"v": 1}
        assert os.listdir(tmp_path) == ["state.json"]

    def test_failed_rename_removes_its_temp(self, tmp_path, monkeypatch):
        path = str(tmp_path / "state.json")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("repro.storage.chunk_store.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_json_atomic(path, {"v": 1})
        assert os.listdir(tmp_path) == []

    def test_racing_writers_of_one_path_publish_whole_payloads_only(self, tmp_path):
        """More writers than cores on one file, a short switch interval:
        with a temp name shared between writers one of them truncates
        the other's temp mid-write, and a rename publishes the torn
        bytes (or finds its temp already renamed away)."""
        path = str(tmp_path / "state.json")
        payloads = [{"writer": w, "rows": [w] * 50_000} for w in range(4)]
        write_json_atomic(path, payloads[0])
        deadline = time.monotonic() + 1.0
        failures: list = []

        def write(payload):
            try:
                while time.monotonic() < deadline:
                    write_json_atomic(path, payload)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write, args=(p,)) for p in payloads
            ]
            for thread in threads:
                thread.start()
            reads = 0
            while time.monotonic() < deadline:
                with open(path) as fh:
                    assert json.load(fh) in payloads
                reads += 1
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and reads > 0
        assert os.listdir(tmp_path) == ["state.json"]
