"""The wire path copies each chunk's bytes once.

``decode_message`` hands out views into the message. Only a store that
keeps bytes in memory copies them (``MemoryChunkStore._write``); a
``FileChunkStore`` writes the view as it is. A ``get_chunks`` window
is framed in one presized buffer, its chunks read one at a time. Held
here: no view outlives its message inside a memory store, on the
server, the hub or the client; a served window costs the frame and one
chunk; a push imported into a file-backed hub costs no copy of its
chunks.
"""

import random

import pytest

from repro.core import MLCask
from repro.hub import RepositoryHub
from repro.remote import LocalTransport, Remote, RepositoryServer, clone_repository
from repro.remote.protocol import decode_message, encode_message
from repro.storage.hashing import sha256_hex

from helpers import fresh_toy_repo, toy_model, traced_peak

TENANT, REPO, TOKEN = "ana", "proj", "tok"
CHUNK = 256 * 1024
WINDOW = 16  # chunks: one default 4 MiB window


def held_types(store) -> set[type]:
    """The types of what a memory store holds."""
    return {type(data) for data in store._chunks.values()}


@pytest.mark.parametrize("window", [None, 1024], ids=["push", "put_chunks"])
def test_a_memory_server_holds_bytes_after_a_push(window):
    # A 1 KiB window sends every chunk ahead of the push in put_chunks.
    server = RepositoryServer(MLCask())
    local = fresh_toy_repo()
    kwargs = {} if window is None else {"max_pack_bytes": window}
    Remote(local, LocalTransport(server), **kwargs).push("toy")
    chunks = server.repo.objects.chunks
    assert len(chunks.digests()) == len(local.objects.chunks.digests()) > 1
    assert held_types(chunks) == {bytes}


@pytest.mark.parametrize("window", [None, 1024], ids=["push", "put_chunks"])
def test_a_memory_hub_holds_bytes_after_a_push(window):
    hub = RepositoryHub()
    hub.add_tenant(TENANT, tokens=[TOKEN])
    local = fresh_toy_repo()
    kwargs = {} if window is None else {"max_pack_bytes": window}
    Remote(local, hub.local_transport(TENANT, REPO, TOKEN), **kwargs).push("toy")
    assert hub.backend.chunk_count() == len(local.objects.chunks.digests()) > 1
    assert held_types(hub.backend.store) == {bytes}


def test_a_clone_and_a_fetch_hold_bytes():
    # A 1 KiB window: every chunk arrives in a get_chunks response of
    # its own, so a held view would pin a whole response body.
    origin = fresh_toy_repo()
    server = RepositoryServer(origin, max_pack_bytes=1024)
    clone = clone_repository(
        LocalTransport(server), registry=origin.registry, max_pack_bytes=1024
    )
    assert held_types(clone.objects.chunks) == {bytes}
    origin.commit("toy", {"model": toy_model(1, 0.7)})
    assert clone.remote("origin").fetch().chunks_received > 0
    assert held_types(clone.objects.chunks) == {bytes}
    assert set(clone.objects.chunks.digests()) == set(origin.objects.chunks.digests())


def random_chunks(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(CHUNK) for _ in range(WINDOW)]


def content_push(blobs) -> bytes:
    """A push that carries chunks and moves no ref."""
    return encode_message(
        {"op": "push", "chunk_digests": [sha256_hex(b) for b in blobs]}, blobs
    )


@pytest.fixture
def file_hub(tmp_path):
    """A file-backed hub whose repository already exists (its creation
    allocates, and is not what is measured)."""
    hub = RepositoryHub(tmp_path / "hub")
    hub.add_tenant(TENANT, tokens=[TOKEN])
    response = hub.handle_request(TENANT, REPO, TOKEN, content_push(random_chunks(0)))
    assert decode_message(response)[0]["new_chunks"] == WINDOW
    return hub


def test_a_push_into_a_file_hub_copies_no_chunk(file_hub):
    request = content_push(random_chunks(1))
    response, peak = traced_peak(
        lambda: file_hub.handle_request(TENANT, REPO, TOKEN, request)
    )
    assert decode_message(response)[0]["new_chunks"] == WINDOW
    # A copy of each chunk would be the request's 4 MiB again.
    assert peak < CHUNK, peak


def test_a_get_chunks_window_costs_the_frame_and_one_chunk(file_hub):
    blobs = random_chunks(0)
    request = encode_message(
        {"op": "get_chunks", "digests": [sha256_hex(b) for b in blobs]}
    )
    response, peak = traced_peak(
        lambda: file_hub.handle_request(TENANT, REPO, TOKEN, request)
    )
    meta, shipped = decode_message(response)
    assert (len(shipped), meta["remaining"]) == (WINDOW, 0)
    assert shipped == blobs
    # Every chunk read beside its joined copy would be twice the frame.
    assert peak <= len(response) + CHUNK + 64 * 1024, (peak, len(response))
