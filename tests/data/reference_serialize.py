"""Frozen reference: ``repro.data.serialize`` as it stood at ``aeba2e5``,
when the encoder wrote into an ``io.BytesIO`` (``tobytes`` per dense
body) and the decoder read through one, copying each array body out of
it and then out of ``np.frombuffer``.

Production now gathers the encoder's parts and joins them once, with
each dense body a ``uint8`` view of its array, and decodes with a
``memoryview`` cursor: an adopted ``bytearray`` is decoded in place, so
its dense arrays are views into it. It can no longer vouch for itself.
This copy is the oracle ``test_serialize_reference.py`` compares it
against: the same bytes out of every value, the same values, dtypes
and shapes out of every payload. It is the module verbatim but for its
absolute imports; do not tidy it.

Import as ``from data.reference_serialize import ...`` (``tests/`` is on
``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys

import numpy as np

from repro.errors import ComponentError, StorageError
from repro.data.table import Table

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


def _write_len(out: io.BytesIO, n: int) -> None:
    out.write(struct.pack(">Q", n))


def _read_len(buf: io.BytesIO) -> int:
    raw = buf.read(8)
    if len(raw) != 8:
        raise StorageError("truncated payload: missing length prefix")
    return struct.unpack(">Q", raw)[0]


def _read_exact(buf: io.BytesIO, n: int) -> bytes:
    # A prefix past sys.maxsize is no length a buffer can have: it reads
    # short, like any other length the payload does not hold.
    raw = buf.read(min(n, sys.maxsize))
    if len(raw) != n:
        raise StorageError(f"truncated payload: wanted {n} bytes, got {len(raw)}")
    return raw


def _decode(raw: bytes, tag: bytes, what: str, encoding: str = "utf-8") -> str:
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError:
        raise StorageError(f"payload tag {tag!r}: {what} is not {encoding}") from None


def _read_text(buf: io.BytesIO, tag: bytes, what: str, encoding: str = "utf-8") -> str:
    """A length-prefixed string."""
    return _decode(_read_exact(buf, _read_len(buf)), tag, what, encoding)


# --------------------------------------------------------------------- array
def _array_header(dtype: str, shape, kind: str) -> bytes:
    """The one header an array of this dtype, shape and kind is written
    with; the reader refuses any other spelling of it."""
    return json.dumps(
        {"dtype": dtype, "shape": list(shape), "kind": kind}, sort_keys=True
    ).encode("utf-8")


def _write_array(out: io.BytesIO, arr: np.ndarray) -> None:
    if arr.dtype == object:
        _write_string_column(out, arr)
        return
    header = _array_header(arr.dtype.str, arr.shape, "dense")
    _write_len(out, len(header))
    out.write(header)
    raw = np.ascontiguousarray(arr).tobytes()
    _write_len(out, len(raw))
    out.write(raw)


def _write_string_column(out: io.BytesIO, arr: np.ndarray) -> None:
    header = _array_header("object", arr.shape, "strings")
    _write_len(out, len(header))
    out.write(header)
    body = io.BytesIO()
    for item in arr.ravel():
        if item is None:
            body.write(struct.pack(">q", -1))
        else:
            encoded = str(item).encode("utf-8")
            body.write(struct.pack(">q", len(encoded)))
            body.write(encoded)
    raw = body.getvalue()
    _write_len(out, len(raw))
    out.write(raw)


def _read_array_header(buf: io.BytesIO, tag: bytes) -> tuple[tuple, np.dtype | None]:
    """The array's shape and dtype (None for strings), checked before
    any of its body is used: a header is refused unless it is the one
    :func:`_array_header` writes for them."""
    raw = _read_exact(buf, _read_len(buf))
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


def _read_array(buf: io.BytesIO, tag: bytes) -> np.ndarray:
    shape, dtype = _read_array_header(buf, tag)
    raw = _read_exact(buf, _read_len(buf))
    count = math.prod(shape)
    if dtype is None:  # strings
        if 8 * count > len(raw):
            raise StorageError(
                f"payload tag {tag!r}: {len(raw)} body bytes cannot hold {count} strings"
            )
        body = io.BytesIO(raw)
        items: list[object] = []
        for _ in range(count):
            (n,) = struct.unpack(">q", _read_exact(body, 8))
            if n < -1:
                raise StorageError(f"payload tag {tag!r}: a string of length {n}")
            items.append(None if n < 0 else _decode(_read_exact(body, n), tag, "a string"))
        if body.tell() != len(raw):
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
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# -------------------------------------------------------------------- values
def _write_value(out: io.BytesIO, value) -> None:
    if value is None:
        out.write(_TAG_NONE)
    elif isinstance(value, (bool, np.bool_)):  # before int: bool is an int subclass
        out.write(_TAG_BOOL)
        out.write(b"\x01" if value else b"\x00")
    elif isinstance(value, (int, np.integer)):
        out.write(_TAG_INT)
        try:
            encoded = str(int(value)).encode("ascii")
        except ValueError:  # past the interpreter's int-to-text digit limit
            raise StorageError(
                f"payload tag {_TAG_INT!r}: an integer of {int(value).bit_length()} "
                "bits has too many digits to write"
            ) from None
        _write_len(out, len(encoded))
        out.write(encoded)
    elif isinstance(value, (float, np.floating)):
        out.write(_TAG_FLOAT)
        out.write(struct.pack(">d", float(value)))
    elif isinstance(value, str):
        out.write(_TAG_STR)
        encoded = value.encode("utf-8")
        _write_len(out, len(encoded))
        out.write(encoded)
    elif isinstance(value, (bytes, bytearray)):
        out.write(_TAG_BYTES)
        _write_len(out, len(value))
        out.write(bytes(value))
    elif isinstance(value, np.ndarray):
        out.write(_TAG_ARRAY)
        _write_array(out, value)
    elif isinstance(value, Table):
        out.write(_TAG_TABLE)
        names = value.column_names
        _write_len(out, len(names))
        for name in names:
            encoded = name.encode("utf-8")
            _write_len(out, len(encoded))
            out.write(encoded)
            _write_array(out, value.column(name))
    elif isinstance(value, (list, tuple)):
        out.write(_TAG_LIST)
        _write_len(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.write(_TAG_DICT)
        keys = list(value)
        for key in keys:
            if not isinstance(key, str):
                raise StorageError(f"dict keys must be str, got {type(key).__name__}")
        _write_len(out, len(keys))
        # Preserve insertion order: parameter dicts are ordered on purpose.
        for key in keys:
            encoded = key.encode("utf-8")
            _write_len(out, len(encoded))
            out.write(encoded)
            _write_value(out, value[key])
    else:
        raise StorageError(f"cannot serialize value of type {type(value).__name__}")


def _read_value(buf: io.BytesIO):
    tag = buf.read(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BOOL:
        raw = _read_exact(buf, 1)
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
        return struct.unpack(">d", _read_exact(buf, 8))[0]
    if tag == _TAG_STR:
        return _read_text(buf, tag, "the string")
    if tag == _TAG_BYTES:
        return _read_exact(buf, _read_len(buf))
    if tag == _TAG_ARRAY:
        return _read_array(buf, tag)
    if tag == _TAG_TABLE:
        n = _read_len(buf)
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
        n = _read_len(buf)
        return [_read_value(buf) for _ in range(n)]
    if tag == _TAG_DICT:
        n = _read_len(buf)
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
    """Serialize any supported payload to deterministic bytes."""
    out = io.BytesIO()
    out.write(MAGIC)
    _write_value(out, value)
    return out.getvalue()


def payload_from_bytes(data: bytes):
    """Inverse of :func:`payload_to_bytes`. A malformed payload — cut
    short, a byte flipped, a header that disagrees with its body — raises
    :class:`StorageError` naming the tag and what was wrong, never
    another type."""
    buf = io.BytesIO(data)
    magic = buf.read(len(MAGIC))
    if magic != MAGIC:
        raise StorageError(f"bad payload magic: {magic!r}")
    value = _read_value(buf)
    trailing = buf.read(1)
    if trailing:
        raise StorageError("trailing bytes after payload")
    return value
