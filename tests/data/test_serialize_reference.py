"""The one-copy serializer against its frozen parent.

``data/reference_serialize.py`` is ``repro.data.serialize`` as it was
before the encoder joined its parts once and the decoder became a
``memoryview`` cursor. Any payload a checkpoint can hold — Tables of
string and numeric columns, arrays of any dtype and shape (0-d, empty,
not contiguous, big-endian), scalars, nested lists and dicts — must
encode to the oracle's bytes, and decode, out of ``bytes`` and out of
an adopted ``bytearray``, to the oracle's values, dtypes and shapes,
every array writable.
"""

import struct

import numpy as np
from hypothesis import given, strategies as st

from repro.data import Table, payload_from_bytes, payload_to_bytes

from data.reference_serialize import (
    payload_from_bytes as reference_from_bytes,
    payload_to_bytes as reference_to_bytes,
)
from helpers import oracle_settings

DTYPES = [
    "<f8", ">f8", "<f4", "<f2", "<i8", ">i4", "<i2", "|i1", "<u8", "|u1", "|b1",
    "<c16", ">c8", "<M8[D]", ">m8[s]", "<U3", ">U2", "|S2", "|V3",
]


@st.composite
def dense_arrays(draw) -> np.ndarray:
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    count = int(np.prod(shape))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided" and arr.ndim:
        arr = arr[::2]
    elif layout == "transposed":
        arr = arr.T
    return arr


string_items = st.none() | st.text(max_size=6)


def _object_array(items, shape) -> np.ndarray:
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr.reshape(shape)


@st.composite
def string_arrays(draw) -> np.ndarray:
    items = draw(st.lists(string_items, max_size=6))
    shapes = [(len(items),), (1, len(items))] + ([()] if len(items) == 1 else [])
    return _object_array(items, draw(st.sampled_from(shapes)))


columns = st.sampled_from(["float", "int", "bool", "str", "float32>"])


@st.composite
def tables(draw) -> Table:
    n = draw(st.integers(0, 5))
    kinds = draw(st.dictionaries(st.text(max_size=5), columns, min_size=1, max_size=4))
    out = {}
    for name, kind in kinds.items():
        if kind == "str":
            out[name] = _object_array(draw(st.lists(string_items, min_size=n, max_size=n)), (n,))
        else:
            floats = draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
            dtype = {"float": "<f8", "int": "<i8", "bool": "|b1", "float32>": ">f4"}[kind]
            with np.errstate(invalid="ignore"):
                out[name] = np.array(floats, dtype="<f8").astype(dtype)
    return Table(out)


scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=12)
    | st.binary(max_size=12)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | st.floats(width=32).map(np.float32)
    | st.booleans().map(np.bool_)
)
payloads = st.recursive(
    scalars | dense_arrays() | string_arrays() | tables(),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


def assert_same(value, reference) -> None:
    """``value`` is what ``reference`` is, down to dtype and bytes; each
    of its arrays is writable."""
    assert type(value) is type(reference)
    if isinstance(reference, np.ndarray):
        assert (value.dtype, value.shape) == (reference.dtype, reference.shape)
        assert value.flags.writeable
        if reference.dtype == object:
            assert value.tolist() == reference.tolist()
        else:
            assert value.tobytes() == reference.tobytes()
    elif isinstance(reference, Table):
        assert value.column_names == reference.column_names
        for name in reference.column_names:
            assert_same(value.column(name), reference.column(name))
    elif isinstance(reference, list):
        assert len(value) == len(reference)
        for item, expected in zip(value, reference):
            assert_same(item, expected)
    elif isinstance(reference, dict):
        assert list(value) == list(reference)
        for key in reference:
            assert_same(value[key], reference[key])
    elif isinstance(reference, float):  # NaN too, bit for bit
        assert struct.pack(">d", value) == struct.pack(">d", reference)
    else:
        assert value == reference


@oracle_settings(200)
@given(payloads)
def test_the_encoder_and_decoder_agree_with_the_oracle(value):
    data = payload_to_bytes(value)
    assert type(data) is bytes
    assert data == reference_to_bytes(value)
    reference = reference_from_bytes(data)
    assert_same(payload_from_bytes(data), reference)
    assert_same(payload_from_bytes(bytearray(data)), reference)
