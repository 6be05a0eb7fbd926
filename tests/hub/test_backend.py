"""SharedChunkBackend + TenantChunkStore: dedup, isolation, refcounts."""

import pytest

from repro.errors import ChunkIntegrityError, ChunkNotFoundError
from repro.hub import SharedChunkBackend, TenantChunkStore
from repro.storage import FileChunkStore, MemoryChunkStore, ObjectStore
from repro.storage import chunk_store as chunk_store_module
from repro.storage.hashing import sha256_hex


def make_views(n=2, store=None):
    backend = SharedChunkBackend(store)
    return backend, [TenantChunkStore(backend) for _ in range(n)]


class TestCrossTenantDedup:
    def test_same_chunk_two_views_stored_once(self):
        backend, (a, b) = make_views()
        payload = b"shared-bytes" * 100
        da = a.put(payload)
        db = b.put(payload)
        assert da == db
        assert backend.physical_bytes == len(payload)
        assert a.held_bytes == b.held_bytes == len(payload)
        assert backend.refcount(da) == 2

    def test_logical_usage_counts_full_per_view(self):
        backend, views = make_views(4)
        payload = b"x" * 10_000
        for view in views:
            view.put(payload)
        assert backend.physical_bytes == len(payload)
        assert sum(v.held_bytes for v in views) == 4 * len(payload)

    def test_view_dedups_against_itself_too(self):
        backend, (a,) = make_views(1)
        payload = b"y" * 500
        a.put(payload)
        a.put(payload)
        assert a.held_bytes == len(payload)
        assert backend.refcount(sha256_hex(payload)) == 1


class TestTenantIsolation:
    def test_view_cannot_read_unheld_chunk(self):
        backend, (a, b) = make_views()
        digest = a.put(b"private to a")
        assert not b.contains(digest)
        with pytest.raises(ChunkNotFoundError):
            b.get(digest)

    def test_missing_negotiation_is_per_view(self):
        """A chunk another tenant holds must still be reported missing —
        otherwise refs could point at content the tenant never sent and
        the hub would leak a cross-tenant existence oracle."""
        backend, (a, b) = make_views()
        digest = a.put(b"negotiate me")
        assert b.missing([digest]) == [digest]
        assert a.missing([digest]) == []

    def test_digests_lists_only_own_holdings(self):
        backend, (a, b) = make_views()
        da = a.put(b"a-only")
        db = b.put(b"b-only")
        assert set(a.digests()) == {da}
        assert set(b.digests()) == {db}


class TestRefcountLifecycle:
    def test_discard_releases_but_keeps_shared_bytes(self):
        backend, (a, b) = make_views()
        payload = b"z" * 2_000
        digest = a.put(payload)
        b.put(payload)
        assert a.discard(digest) == len(payload)
        # b still reads it; bytes not physically reclaimed
        assert backend.physical_bytes == len(payload)
        assert b.get(digest) == payload
        assert not a.contains(digest)

    def test_last_release_reclaims_physical_bytes(self):
        backend, (a, b) = make_views()
        payload = b"w" * 3_000
        digest = a.put(payload)
        b.put(payload)
        a.discard(digest)
        b.discard(digest)
        assert backend.physical_bytes == 0
        assert backend.refcount(digest) == 0

    def test_adopted_holdings_do_not_touch_refcounts(self):
        backend, (a,) = make_views(1)
        digest = a.put(b"persist me")
        size = a.held_bytes
        # simulate evict/reload: holdings persisted, view re-attached
        reloaded = TenantChunkStore(backend, a.holdings())
        assert backend.refcount(digest) == 1
        assert reloaded.held_bytes == size
        assert reloaded.get(digest) == b"persist me"

    def test_register_holdings_rebuilds_physical_once(self):
        backend, (a, b) = make_views()
        payload = b"restart" * 50
        a.put(payload)
        b.put(payload)
        fresh = SharedChunkBackend()
        fresh.store.import_chunk(sha256_hex(payload), payload)
        fresh.register_holdings(a.holdings())
        fresh.register_holdings(b.holdings())
        assert fresh.physical_bytes == len(payload)
        assert fresh.refcount(sha256_hex(payload)) == 2

    def test_import_chunk_is_integrity_checked(self):
        backend, (a,) = make_views(1)
        with pytest.raises(ChunkIntegrityError):
            a.import_chunk("0" * 64, b"does not hash to that")
        assert backend.physical_bytes == 0


class TestAPushedChunkIsVerifiedOnce:
    """The view's ``import_chunk`` checks a pushed chunk's bytes against
    its digest; the backend stores them through the non-verifying
    ``ChunkStore.adopt`` and does not check them again."""

    def test_a_novel_pushed_chunk_is_hashed_once(self, tmp_path, monkeypatch):
        backend, (a,) = make_views(1, store=FileChunkStore(tmp_path / "chunks"))
        data = b"pushed bytes " * 400
        digest = sha256_hex(data)
        hashed = []
        monkeypatch.setattr(
            chunk_store_module,
            "sha256_hex",
            lambda piece: hashed.append(len(piece)) or sha256_hex(piece),
        )
        assert a.import_chunk(digest, data) is True
        assert hashed == [len(data)]
        assert a.get(digest) == data and backend.refcount(digest) == 1

    def test_the_store_books_what_import_chunk_would(self, tmp_path):
        backend, (a,) = make_views(1, store=FileChunkStore(tmp_path / "chunks"))
        direct = FileChunkStore(tmp_path / "direct")
        for data in (b"one" * 300, b"two" * 500, b"one" * 300):
            a.import_chunk(sha256_hex(data), data)
            direct.import_chunk(sha256_hex(data), data)
        shared = backend.store
        assert shared.revision == direct.revision == 2
        assert shared.digests() == direct.digests()
        assert shared.stats.physical_bytes == direct.stats.physical_bytes == 2400
        assert backend.physical_bytes == 2400

    def test_a_corrupt_chunk_is_refused_at_the_view_before_anything_lands(self, tmp_path):
        backend, (a,) = make_views(1, store=FileChunkStore(tmp_path / "chunks"))
        data = b"pushed bytes " * 400
        digest = sha256_hex(data)
        with pytest.raises(ChunkIntegrityError):
            a.import_chunk(digest, data[:-1] + b"X")
        assert a.digests() == [] and a.held_bytes == 0
        assert backend.refcount(digest) == 0 and backend.physical_bytes == 0
        assert backend.store.digests() == [] and backend.store.revision == 0
        assert not (tmp_path / "chunks").exists()  # not a byte on disk
        assert a.import_chunk(digest, data) is True  # the right bytes still land

    def test_leftover_bytes_are_adopted_not_rewritten(self):
        store = MemoryChunkStore()
        data = b"left by a crashed hub"
        store.import_chunk(sha256_hex(data), data)
        backend = SharedChunkBackend(store)
        view = TenantChunkStore(backend)
        assert view.import_chunk(sha256_hex(data), data) is True
        assert store.revision == 1 and store.stats.physical_bytes == len(data)
        assert backend.physical_bytes == len(data)


class TestFileBackedBackend:
    def test_views_share_one_object_directory(self, tmp_path):
        backend, (a, b) = make_views(
            2, store=FileChunkStore(tmp_path / "chunks")
        )
        payload = b"on disk" * 1000
        digest = a.put(payload)
        b.put(payload)
        segment, = (tmp_path / "chunks").iterdir()
        assert segment.read_bytes() == payload  # one copy, nothing else
        assert b.get(digest) == payload


class TestObjectStoreIntegration:
    def test_object_store_over_views_shares_chunks(self):
        backend, (a, b) = make_views()
        store_a = ObjectStore(chunk_store=a)
        store_b = ObjectStore(chunk_store=b)
        blob = bytes(range(256)) * 3000
        da = store_a.put(blob)
        db = store_b.put(blob)
        assert da == db
        assert store_a.get(da) == blob == store_b.get(db)
        assert backend.physical_bytes <= len(blob) * 1.05
        assert a.held_bytes == b.held_bytes
