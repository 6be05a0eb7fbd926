"""Deterministic binary serialization for pipeline payloads.

Everything a component emits must become bytes before the storage engine
can chunk and dedup it. Determinism matters: the same logical value must
serialize to the same bytes on every run, otherwise content addressing
would see phantom changes. We therefore avoid pickle and write a small
tagged format covering the payload kinds pipelines actually produce:

* ``Table`` (columnar, numeric + string columns)
* ``numpy.ndarray`` of any shape/dtype (an object array holds ``str``
  and ``None`` only: anything else would come back as another value)
* ``dict`` with string keys (e.g. model parameter sets), ``list``/``tuple``
* scalars: ``str``, ``int``, ``float``, ``bool``, ``None``, ``bytes``

The format is length-prefixed throughout, so payloads survive chunking
boundaries and truncation is always detected.

A checkpoint crosses this module with one copy each way (the copy rule
of the checkpoint path, ``docs/invariants.md``): the encoder joins its
parts once, dense bodies read straight out of their arrays, and the
decoder walks a ``memoryview``. Out of the adopted ``bytearray`` that
``ObjectStore.get`` returns, decoded dense arrays are writable views
into that one private buffer and do not own their data; out of
``bytes``, each is copied once.
"""

from __future__ import annotations

import functools
import json
import math
import struct

import numpy as np

from ..errors import ComponentError, StorageError
from .table import Table

MAGIC = b"RPR1"

_TAG_NONE = b"N"
_TAG_BOOL = b"b"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"y"
_TAG_LIST = b"L"
_TAG_DICT = b"D"
_TAG_ARRAY = b"A"
_TAG_TABLE = b"T"

_pack_len = struct.Struct(">Q").pack
_pack_item_len = struct.Struct(">q").pack
_unpack_len = struct.Struct(">Q").unpack_from
_unpack_item_len = struct.Struct(">q").unpack
_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack
_NO_STRING = _pack_item_len(-1)


def _write_len(out: list, n: int) -> None:
    out.append(_pack_len(n))


class _Cursor:
    """A read position in a payload, handing out views, never copies.

    ``io.BytesIO`` would copy a ``bytearray`` it is given, and each of
    its reads copies again; a cursor slices a ``memoryview``. ``owned``:
    the payload is an adopted ``bytearray`` its arrays may be views of."""

    __slots__ = ("view", "pos", "owned")

    def __init__(self, data) -> None:
        self.view = memoryview(data).cast("B")
        self.pos = 0
        self.owned = isinstance(data, bytearray)

    @property
    def left(self) -> int:
        return len(self.view) - self.pos

    def read(self, n: int) -> bytes:
        """Up to ``n`` bytes, fewer at the end (``BytesIO.read``)."""
        raw = self.view[self.pos : self.pos + n]
        self.pos += len(raw)
        return raw.tobytes()

    def take(self, n: int) -> memoryview:
        """The next ``n`` bytes as a view, or :class:`StorageError`. A
        length past what is left — however large — reads short."""
        left = self.left
        if n > left:
            raise StorageError(f"truncated payload: wanted {n} bytes, got {left}")
        start = self.pos
        self.pos = start + n
        return self.view[start : self.pos]

    def length(self) -> int:
        if self.left < 8:
            raise StorageError("truncated payload: missing length prefix")
        (n,) = _unpack_len(self.view, self.pos)
        self.pos += 8
        return n


def _decode(raw, tag: bytes, what: str, encoding: str = "utf-8") -> str:
    try:
        return str(raw, encoding)
    except UnicodeDecodeError:
        raise StorageError(f"payload tag {tag!r}: {what} is not {encoding}") from None


def _read_text(buf: _Cursor, tag: bytes, what: str, encoding: str = "utf-8") -> str:
    """A length-prefixed string."""
    return _decode(buf.take(buf.length()), tag, what, encoding)


# --------------------------------------------------------------------- array
def _array_header(dtype: str, shape, kind: str) -> bytes:
    """The one header an array of this dtype, shape and kind is written
    with; the reader refuses any other spelling of it."""
    return json.dumps(
        {"dtype": dtype, "shape": list(shape), "kind": kind}, sort_keys=True
    ).encode("utf-8")


def _write_array(out: list, arr: np.ndarray) -> None:
    if arr.dtype == object:
        _write_string_column(out, arr)
        return
    header = _array_header(arr.dtype.str, arr.shape, "dense")
    _write_len(out, len(header))
    out.append(header)
    # The body as raw bytes without copying them: ``payload_to_bytes``'s
    # one join reads them straight out of the array. Only an array that
    # is not C-contiguous is copied first.
    body = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
    _write_len(out, len(body))
    out.append(body)


def _write_string_column(out: list, arr: np.ndarray) -> None:
    header = _array_header("object", arr.shape, "strings")
    _write_len(out, len(header))
    out.append(header)
    body = []
    for item in arr.ravel():
        if item is None:
            body.append(_NO_STRING)
        elif isinstance(item, str):
            encoded = item.encode("utf-8")
            body.append(_pack_item_len(len(encoded)))
            body.append(encoded)
        else:
            # Written as its text, it would come back a str: a reused
            # checkpoint would hand a stage other data than a fresh run.
            raise StorageError(
                f"payload tag {_TAG_ARRAY!r}: an object array holds an item of "
                f"type {type(item).__name__}; only str and None can be written"
            )
    _write_len(out, sum(map(len, body)))
    out.extend(body)


def _read_array_header(buf: _Cursor, tag: bytes) -> tuple[tuple, np.dtype | None]:
    """The array's shape and dtype (None for strings), checked before
    any of its body is used: a header is refused unless it is the one
    :func:`_array_header` writes for them."""
    raw = bytes(buf.take(buf.length()))
    if len(raw) > _REMEMBERED_HEADER_BYTES:
        return _parse_array_header.__wrapped__(raw, tag)
    return _parse_array_header(raw, tag)


#: The longest header remembered. Every header accepted has at most
#: ``_MAX_DIMENSIONS`` sizes, and every array numpy can make has one
#: shorter than this; a longer one is crafted, and stays out, so the
#: cache stays under 1 MiB.
_REMEMBERED_HEADER_BYTES = 1024

#: numpy's limit on an array's dimensions.
_MAX_DIMENSIONS = 64


@functools.lru_cache(maxsize=1024)
def _parse_array_header(raw: bytes, tag: bytes) -> tuple[tuple, np.dtype | None]:
    # A header is a function of kind, dtype and shape, and payloads
    # repeat a few of them: an accepted one is parsed once and then found
    # by its bytes. A refusal raises, so it is never remembered.
    try:
        header = json.loads(_decode(raw, tag, "the array header"))
    except ValueError:  # JSONDecodeError, or an int past the digit limit
        raise StorageError(f"payload tag {tag!r}: the array header is not JSON") from None
    if not isinstance(header, dict):
        raise StorageError(f"payload tag {tag!r}: the array header is not an object")
    kind, shape = header.get("kind"), header.get("shape")
    if kind not in ("dense", "strings"):
        raise StorageError(f"payload tag {tag!r}: unknown array kind {kind!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise StorageError(
            f"payload tag {tag!r}: the array shape {shape!r} is not a list of "
            "non-negative ints"
        )
    if len(shape) > _MAX_DIMENSIONS:
        raise StorageError(
            f"payload tag {tag!r}: the array shape has {len(shape)} dimensions, "
            f"more than the {_MAX_DIMENSIONS} an array can have"
        )
    dtype = None
    if kind == "dense":
        name = header.get("dtype")
        try:
            if not isinstance(name, str):
                raise TypeError(name)
            dtype = np.dtype(name)
        except (TypeError, ValueError):
            raise StorageError(f"payload tag {tag!r}: unknown dtype {name!r}") from None
        if dtype.hasobject:
            raise StorageError(f"payload tag {tag!r}: object dtype in a dense array")
    if raw != _array_header("object" if dtype is None else dtype.str, shape, kind):
        raise StorageError(f"payload tag {tag!r}: the array header is not in canonical form")
    return tuple(shape), dtype


def _read_array(buf: _Cursor, tag: bytes) -> np.ndarray:
    shape, dtype = _read_array_header(buf, tag)
    raw = buf.take(buf.length())  # checked against what is left: no array yet
    count = math.prod(shape)
    if dtype is None:  # strings
        if 8 * count > len(raw):
            raise StorageError(
                f"payload tag {tag!r}: {len(raw)} body bytes cannot hold {count} strings"
            )
        body = _Cursor(raw)
        items: list[object] = []
        for _ in range(count):
            (n,) = _unpack_item_len(body.take(8))
            if n < -1:
                raise StorageError(f"payload tag {tag!r}: a string of length {n}")
            items.append(None if n < 0 else _decode(body.take(n), tag, "a string"))
        if body.left:
            raise StorageError(f"payload tag {tag!r}: bytes after the last string")
        arr = np.empty(count, dtype=object)
        arr[:] = items
        return arr.reshape(shape)
    if len(raw) != count * dtype.itemsize:
        raise StorageError(
            f"payload tag {tag!r}: {len(raw)} body bytes for shape {list(shape)} "
            f"of {dtype.str} ({count * dtype.itemsize} expected)"
        )
    if not dtype.itemsize:
        return np.zeros(shape, dtype=dtype)  # nothing to read back
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    # In an owned buffer the array is a writable view into it; out of
    # ``bytes`` (read-only, maybe shared) its body is copied, once.
    return arr if buf.owned else arr.copy()


# -------------------------------------------------------------------- values
def _write_value(out: list, value) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, (bool, np.bool_)):  # before int: bool is an int subclass
        out.append(_TAG_BOOL)
        out.append(b"\x01" if value else b"\x00")
    elif isinstance(value, (int, np.integer)):
        out.append(_TAG_INT)
        try:
            encoded = str(int(value)).encode("ascii")
        except ValueError:  # past the interpreter's int-to-text digit limit
            raise StorageError(
                f"payload tag {_TAG_INT!r}: an integer of {int(value).bit_length()} "
                "bits has too many digits to write"
            ) from None
        _write_len(out, len(encoded))
        out.append(encoded)
    elif isinstance(value, (float, np.floating)):
        out.append(_TAG_FLOAT)
        out.append(_pack_float(float(value)))
    elif isinstance(value, str):
        out.append(_TAG_STR)
        encoded = value.encode("utf-8")
        _write_len(out, len(encoded))
        out.append(encoded)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _write_len(out, len(value))
        out.append(value)
    elif isinstance(value, np.ndarray):
        out.append(_TAG_ARRAY)
        _write_array(out, value)
    elif isinstance(value, Table):
        out.append(_TAG_TABLE)
        names = value.column_names
        _write_len(out, len(names))
        for name in names:
            encoded = name.encode("utf-8")
            _write_len(out, len(encoded))
            out.append(encoded)
            _write_array(out, value.column(name))
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_len(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        keys = list(value)
        for key in keys:
            if not isinstance(key, str):
                raise StorageError(f"dict keys must be str, got {type(key).__name__}")
        _write_len(out, len(keys))
        # Preserve insertion order: parameter dicts are ordered on purpose.
        for key in keys:
            encoded = key.encode("utf-8")
            _write_len(out, len(encoded))
            out.append(encoded)
            _write_value(out, value[key])
    else:
        raise StorageError(f"cannot serialize value of type {type(value).__name__}")


def _read_value(buf: _Cursor):
    tag = buf.read(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BOOL:
        raw = buf.take(1).tobytes()
        if raw not in (b"\x00", b"\x01"):
            raise StorageError(f"payload tag {tag!r}: {raw!r} is not a bool")
        return raw == b"\x01"
    if tag == _TAG_INT:
        text = _read_text(buf, tag, "the integer", "ascii")
        try:
            value = int(text)
        except ValueError:  # a well-formed integer past the digit limit, too
            digits = text.removeprefix("-").isdigit()
            what = "has too many digits" if digits else "is not an integer"
            raise StorageError(f"payload tag {tag!r}: {text[:40]!r} {what}") from None
        if str(value) != text:  # a sign, a zero, an underscore or a space too many
            raise StorageError(
                f"payload tag {tag!r}: {text[:40]!r} is not how {value} is written"
            )
        return value
    if tag == _TAG_FLOAT:
        return _unpack_float(buf.take(8))[0]
    if tag == _TAG_STR:
        return _read_text(buf, tag, "the string")
    if tag == _TAG_BYTES:
        return buf.take(buf.length()).tobytes()
    if tag == _TAG_ARRAY:
        return _read_array(buf, tag)
    if tag == _TAG_TABLE:
        n = buf.length()
        columns: dict[str, np.ndarray] = {}
        for _ in range(n):
            name = _read_text(buf, tag, "a column name")
            if name in columns:
                raise StorageError(f"payload tag {tag!r}: the column {name!r} repeats")
            column = columns[name] = _read_array(buf, tag)
            if column.dtype.kind in "US":  # a table keeps these as objects
                raise StorageError(
                    f"payload tag {tag!r}: the column {name!r} is dense {column.dtype.str}"
                )
        try:
            return Table(columns)
        except ComponentError as exc:
            raise StorageError(f"payload tag {tag!r}: {exc}") from None
    if tag == _TAG_LIST:
        n = buf.length()
        return [_read_value(buf) for _ in range(n)]
    if tag == _TAG_DICT:
        n = buf.length()
        result = {}
        for _ in range(n):
            key = _read_text(buf, tag, "a key")
            if key in result:
                raise StorageError(f"payload tag {tag!r}: the key {key!r} repeats")
            result[key] = _read_value(buf)
        return result
    raise StorageError(f"unknown payload tag: {tag!r}")


# ---------------------------------------------------------------- public API
def payload_to_bytes(value) -> bytes:
    """Serialize any supported payload to deterministic bytes.

    The parts are gathered — each dense body as a ``uint8`` view of its
    array — and joined once, so every body is copied exactly once."""
    out = [MAGIC]
    _write_value(out, value)
    return b"".join(out)


def payload_from_bytes(data: bytes | bytearray):
    """Inverse of :func:`payload_to_bytes`. A malformed payload — cut
    short, a byte flipped, a header that disagrees with its body — raises
    :class:`StorageError` naming the tag and what was wrong, never
    another type.

    A ``bytearray`` is adopted: each dense array decoded out of it is a
    writable view into it and does not own its data, so the caller
    hands the buffer over and never changes it again
    (``ObjectStore.get`` returns one nobody else holds). Out of
    ``bytes``, each dense body is copied once into an array of its
    own."""
    buf = _Cursor(data)
    magic = buf.read(len(MAGIC))
    if magic != MAGIC:
        raise StorageError(f"bad payload magic: {magic!r}")
    value = _read_value(buf)
    if buf.left:
        raise StorageError("trailing bytes after payload")
    return value
