"""Wire-format tests: framing is exact, strict, and binary-clean."""

import json
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import (
    MergeError,
    MLCaskError,
    PushRejectedError,
    RemoteError,
    RemoteProtocolError,
)
from repro.remote.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    TYPED_ERRORS,
    decode_message,
    encode_message,
    error_response,
    raise_remote_error,
)

from helpers import oracle_settings


class TestFraming:
    def test_meta_only_roundtrip(self):
        meta = {"op": "manifest", "nested": {"a": [1, 2, 3]}}
        decoded, blobs = decode_message(encode_message(meta))
        assert decoded == meta
        assert blobs == []

    def test_blobs_roundtrip_binary_clean(self):
        blobs = [b"\x00\xff" * 100, b"", bytes(range(256))]
        decoded, out = decode_message(encode_message({"op": "get_chunks"}, blobs))
        assert out == blobs

    def test_blobs_read_lazily_frame_the_same_bytes(self):
        blobs = [b"\x00\xff" * 100, b"", bytes(range(256))]
        reads = []

        def lazily():
            for blob in blobs:
                reads.append(len(blob))
                yield blob

        framed = encode_message({"op": "x"}, lazily(), [len(b) for b in blobs])
        assert type(framed) is bytes
        assert framed == encode_message({"op": "x"}, blobs)
        assert reads == [200, 0, 256]

    @pytest.mark.parametrize(
        "sizes", [[200, 1, 256], [200, 0], [200, 0, 256, 0]], ids=["size", "fewer", "more"]
    )
    def test_a_blob_that_is_not_its_declared_size_is_refused(self, sizes):
        blobs = [b"\x00\xff" * 100, b"", bytes(range(256))]
        with pytest.raises(ValueError):
            encode_message({"op": "x"}, iter(blobs), sizes)

    def test_decoded_blobs_are_views_into_the_message(self):
        message = encode_message({"op": "x"}, [b"abc", b"de"])
        _, blobs = decode_message(message)
        assert [type(b) for b in blobs] == [memoryview, memoryview]
        assert all(b.obj is message for b in blobs)
        assert blobs == [b"abc", b"de"]

    def test_blob_bytes_are_raw_not_inflated(self):
        # Chunk payloads must travel verbatim (no base64): the message is
        # only framing-overhead bigger than the content it carries.
        blob = bytes(255 for _ in range(10_000))
        message = encode_message({"op": "get_chunks"}, [blob])
        assert len(message) < len(blob) + 200

    def test_bad_magic_rejected(self):
        with pytest.raises(RemoteProtocolError):
            decode_message(b"HTTP/1.1 200 OK\r\n\r\n")

    def test_truncated_header_rejected(self):
        message = encode_message({"op": "manifest"})
        with pytest.raises(RemoteProtocolError):
            decode_message(message[: len(message) - 3])

    def test_truncated_blob_rejected(self):
        message = encode_message({"op": "x"}, [b"0123456789"])
        with pytest.raises(RemoteProtocolError):
            decode_message(message[:-4])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(RemoteProtocolError):
            decode_message(encode_message({"op": "x"}) + b"extra")

    def test_malformed_blob_sizes_rejected_not_crashed(self):
        # A hostile header must yield a protocol error, never a TypeError
        # escaping the server's error channel.
        import json
        import struct

        for bad_sizes in (["x"], {"a": 1}, [-5], [True]):
            header = json.dumps(
                {"v": PROTOCOL_VERSION, "meta": {"op": "x"}, "blob_sizes": bad_sizes}
            ).encode()
            message = b"MLCR" + struct.pack(">I", len(header)) + header
            with pytest.raises(RemoteProtocolError, match="blob_sizes"):
                decode_message(message)

    def test_header_without_meta_rejected_not_crashed(self):
        import json
        import struct

        header = json.dumps({"v": PROTOCOL_VERSION, "blob_sizes": []}).encode()
        message = b"MLCR" + struct.pack(">I", len(header)) + header
        with pytest.raises(RemoteProtocolError, match="meta"):
            decode_message(message)

    def test_unsupported_version_rejected(self):
        import repro.remote.protocol as protocol

        message = encode_message({"op": "x"})
        # Bump the version in the already-encoded header.
        bad = message.replace(
            f'"v":{protocol.PROTOCOL_VERSION}'.encode(), b'"v":99', 1
        )
        with pytest.raises(RemoteProtocolError):
            decode_message(bad)
        assert protocol.PROTOCOL_VERSION == 2  # update this test on bumps


def framed(header: bytes, tail: bytes = b"") -> bytes:
    """A message frame around arbitrary header bytes."""
    return MAGIC + struct.pack(">I", len(header)) + header + tail


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
MESSAGES = st.one_of(
    st.binary(),
    st.builds(framed, st.binary(), st.binary(max_size=16)),
    st.builds(
        lambda value, tail: framed(json.dumps(value).encode(), tail),
        JSON_VALUES,
        st.binary(max_size=16),
    ),
    st.builds(
        lambda meta, sizes, tail: framed(
            json.dumps({"v": PROTOCOL_VERSION, "meta": meta, "blob_sizes": sizes}).encode(),
            tail,
        ),
        JSON_VALUES,
        JSON_VALUES,
        st.binary(max_size=32),
    ),
)


@oracle_settings(max_examples=300)
@given(MESSAGES)
@example(framed(b"[1,2]"))  # a header that is not an object
@example(framed(b"[" * 100_000))  # nesting past the recursion limit
@example(framed(b'{"v": ' + b"1" * 5000 + b"}"))  # past the int digit limit
def test_any_bytes_decode_or_raise_a_protocol_error(data):
    """The decoder is total over byte strings: a message, or the typed
    error every server's error channel catches, never anything else."""
    try:
        meta, blobs = decode_message(data)
    except RemoteProtocolError:
        return
    assert isinstance(meta, dict)
    assert all(isinstance(blob, bytes) for blob in blobs)


class TestErrorChannel:
    def test_push_rejection_survives_the_wire_typed(self):
        error = PushRejectedError("readmission", "master", "non-fast-forward")
        meta, _ = decode_message(error_response(error))
        with pytest.raises(PushRejectedError) as excinfo:
            raise_remote_error(meta)
        assert excinfo.value.pipeline == "readmission"
        assert excinfo.value.branch == "master"
        assert "non-fast-forward" in excinfo.value.reason

    def test_other_errors_become_remote_errors(self):
        meta, _ = decode_message(error_response(MergeError("no common ancestor")))
        with pytest.raises(RemoteError, match="no common ancestor"):
            raise_remote_error(meta)

    def test_no_error_is_a_no_op(self):
        raise_remote_error({"refs": {}})


#: Error types a peer can name: each one the client reconstructs by
#: name, or any other JSON value.
ERROR_TYPES = (
    st.sampled_from(
        sorted(TYPED_ERRORS)
        + ["PushRejectedError", "RemoteProtocolError", "ServerOverloadedError"]
    )
    | JSON_VALUES
)
#: What a peer can put under ``error``: an object over the fields the
#: client reads (each one present or not, any JSON value), or anything.
ERROR_METAS = st.fixed_dictionaries(
    {},
    optional={
        "type": ERROR_TYPES,
        "message": JSON_VALUES,
        "retry_after": JSON_VALUES,
        "pipeline": JSON_VALUES,
        "branch": JSON_VALUES,
    },
) | JSON_VALUES.filter(lambda value: value is not None)


@oracle_settings(max_examples=300)
@given(ERROR_METAS)
@example({"type": "ServerOverloadedError", "retry_after": float("inf")})
@example({"type": "ServerOverloadedError", "retry_after": "1"})
@example({"type": "ServerOverloadedError", "retry_after": 10**400})
@example({"type": ["AuthenticationError"]})  # not a name: unhashable
def test_any_error_meta_raises_a_typed_error(error):
    """Whatever a peer sends as its error, the client raises an
    ``MLCaskError`` subclass, never a bare builtin exception."""
    with pytest.raises(MLCaskError):
        raise_remote_error({"error": error})
