"""Payload serialization tests: roundtrips, determinism, corruption."""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import Table, payload_from_bytes, payload_to_bytes
from repro.data.serialize import MAGIC
from repro.errors import StorageError

from helpers import oracle_settings


ROUNDTRIP_CASES = [
    None,
    True,
    False,
    0,
    -12345678901234567890,  # bigger than 64-bit
    3.14159,
    float("inf"),
    "",
    "unicode ✓ λ",
    b"raw bytes",
    [],
    [1, "two", None, 3.0],
    {"a": 1, "b": [2, 3]},
    {"nested": {"deep": {"x": [1.5]}}},
]


@pytest.mark.parametrize("value", ROUNDTRIP_CASES, ids=repr)
def test_scalar_roundtrips(value):
    assert payload_from_bytes(payload_to_bytes(value)) == value


@pytest.mark.parametrize("flag", [True, False])
def test_a_numpy_bool_is_written_as_a_python_bool(flag):
    # What a stage returns for a numpy comparison (``score > best``).
    assert payload_to_bytes(np.bool_(flag)) == payload_to_bytes(flag)
    assert payload_to_bytes({"better": np.float64(2.0) > 1.0}) == payload_to_bytes(
        {"better": True}
    )
    restored = payload_from_bytes(payload_to_bytes(np.bool_(flag)))
    assert restored is flag


class TestArrays:
    def test_float_array(self):
        arr = np.linspace(0, 1, 100).reshape(10, 10)
        out = payload_from_bytes(payload_to_bytes(arr))
        assert np.array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_int_array_dtype_preserved(self):
        arr = np.arange(5, dtype=np.int32)
        out = payload_from_bytes(payload_to_bytes(arr))
        assert out.dtype == np.int32

    def test_3d_array(self):
        arr = np.random.default_rng(0).standard_normal((4, 5, 6))
        assert np.array_equal(payload_from_bytes(payload_to_bytes(arr)), arr)

    def test_empty_array(self):
        arr = np.zeros((0, 3))
        out = payload_from_bytes(payload_to_bytes(arr))
        assert out.shape == (0, 3)

    def test_object_string_array_with_none(self):
        arr = np.array(["a", None, "c"], dtype=object)
        out = payload_from_bytes(payload_to_bytes(arr))
        assert list(out) == ["a", None, "c"]

    def test_list_of_arrays(self):
        seqs = [np.ones((3, 2)), np.zeros((5, 2))]
        out = payload_from_bytes(payload_to_bytes(seqs))
        assert len(out) == 2
        assert np.array_equal(out[0], seqs[0])

    def test_nan_preserved(self):
        arr = np.array([1.0, np.nan])
        out = payload_from_bytes(payload_to_bytes(arr))
        assert np.isnan(out[1])


class TestTables:
    def test_table_roundtrip(self):
        t = Table({
            "x": np.array([1.0, 2.0]),
            "s": np.array(["a", None], dtype=object),
            "i": np.array([1, 2], dtype=np.int64),
        })
        out = payload_from_bytes(payload_to_bytes(t))
        assert isinstance(out, Table)
        assert out.equals(t)

    def test_table_column_order_preserved(self):
        t = Table({"b": [1], "a": [2]})
        out = payload_from_bytes(payload_to_bytes(t))
        assert out.column_names == ["b", "a"]


class TestDeterminism:
    def test_same_value_same_bytes(self):
        value = {"X": np.arange(100.0), "meta": {"k": 1}}
        assert payload_to_bytes(value) == payload_to_bytes(value)

    def test_dict_insertion_order_matters(self):
        # parameter dicts are ordered on purpose: different order is a
        # different payload (and thus a different content address)
        a = payload_to_bytes({"x": 1, "y": 2})
        b = payload_to_bytes({"y": 2, "x": 1})
        assert a != b


class TestErrors:
    @pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["positive", "negative"])
    def test_an_int_past_the_digit_limit_is_refused_on_write(self, value):
        with pytest.raises(StorageError, match="payload tag b'i': .* too many digits"):
            payload_to_bytes(value)

    @pytest.mark.parametrize("text", [b"1" * 5000, b"-" + b"1" * 5000], ids=["positive", "negative"])
    def test_an_int_past_the_digit_limit_is_refused_on_read(self, text):
        with pytest.raises(StorageError, match="payload tag b'i': .* has too many digits"):
            payload_from_bytes(MAGIC + b"i" + struct.pack(">Q", len(text)) + text)

    def test_bad_magic(self):
        with pytest.raises(StorageError):
            payload_from_bytes(b"XXXX" + payload_to_bytes(1)[4:])

    def test_truncated(self):
        data = payload_to_bytes({"a": np.arange(100.0)})
        with pytest.raises(StorageError):
            payload_from_bytes(data[:-10])

    def test_trailing_garbage(self):
        with pytest.raises(StorageError):
            payload_from_bytes(payload_to_bytes(1) + b"extra")

    def test_non_string_dict_keys(self):
        with pytest.raises(StorageError):
            payload_to_bytes({1: "x"})

    def test_unsupported_type(self):
        with pytest.raises(StorageError):
            payload_to_bytes(object())

    @pytest.mark.parametrize(
        "item", [1, 2.5, b"x", np.int64(3), ("a",)], ids=["int", "float", "bytes", "np.int64", "tuple"]
    )
    def test_an_object_array_item_that_is_not_str_or_none_is_refused(self, item):
        # Written as str(item) it would reload as a str: a stage reusing
        # the checkpoint would see other data than a fresh run.
        column = np.array(["a", None, None], dtype=object)
        column[1] = item
        for value in (column, Table({"c": column})):
            with pytest.raises(StorageError, match=f"of type {type(item).__name__};"):
                payload_to_bytes(value)


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60)
@given(json_like)
def test_json_like_roundtrip_property(value):
    restored = payload_from_bytes(payload_to_bytes(value))
    # tuples come back as lists by design; normalize before comparing
    assert restored == value


@settings(max_examples=30)
@given(
    st.integers(0, 3).flatmap(
        lambda ndim: st.tuples(*([st.integers(1, 5)] * ndim))
    )
)
def test_array_shape_roundtrip_property(shape):
    arr = np.random.default_rng(1).standard_normal(shape)
    out = payload_from_bytes(payload_to_bytes(arr))
    assert out.shape == arr.shape
    assert np.allclose(out, arr)


# ------------------------------------------------------- damaged payloads
def _prefixed(raw: bytes) -> bytes:
    return struct.pack(">Q", len(raw)) + raw


def crafted_array(header, body: bytes) -> bytes:
    """An array payload with a hand-written header (dict or raw bytes)."""
    if isinstance(header, dict):
        header = json.dumps(header).encode()
    return MAGIC + b"A" + _prefixed(header) + _prefixed(body)


DENSE = {"dtype": "<f8", "kind": "dense"}

dense_arrays = st.builds(
    lambda dtype, shape, seed: np.random.default_rng(seed)
    .integers(0, 256, int(np.prod(shape)) * np.dtype(dtype).itemsize, dtype=np.uint8)
    .view(dtype)
    .reshape(shape),
    st.sampled_from(["<f8", "<i4", "|u1", "|b1", "<U2", "|S3", "<c8", "<M8[D]"]),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
)
string_arrays = st.lists(st.none() | st.text(max_size=6), max_size=5).map(
    lambda items: np.array(items + ["x"], dtype=object)
)
tables = st.integers(1, 4).flatmap(
    lambda n: st.dictionaries(
        st.text(max_size=5),
        st.sampled_from(["float", "int", "str"]),
        min_size=1,
        max_size=3,
    ).map(
        lambda kinds: Table({
            name: (
                np.arange(n, dtype=np.float64) / 3 if kind == "float"
                else np.arange(n, dtype=np.int64) if kind == "int"
                else np.array([f"v{i}" for i in range(n)], dtype=object)
            )
            for name, kind in kinds.items()
        })
    )
)
#: A payload of every tag.
payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=12)
    | st.binary(max_size=12)
    | dense_arrays
    | string_arrays
    | tables,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_payloads(draw) -> bytes:
    """A valid payload cut short, or with one byte flipped."""
    data = payload_to_bytes(draw(payloads))
    at = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return data[:at]
    return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]


@oracle_settings(300)
@given(damaged_payloads())
@example(crafted_array(DENSE | {"shape": [1]}, b"12345"))  # not a multiple of 8
@example(crafted_array(DENSE | {"shape": [3]}, bytes(16)))  # shape disagrees
@example(crafted_array({"dtype": "<q9", "shape": [1], "kind": "dense"}, bytes(8)))
@example(crafted_array({"dtype": "|O", "shape": [1], "kind": "dense"}, bytes(8)))
@example(crafted_array(DENSE, bytes(8)))  # no shape
@example(crafted_array(b"{not json", bytes(8)))
@example(MAGIC + b"s" + _prefixed(b"\xff\xfe"))  # not utf-8
@example(MAGIC + b"i" + _prefixed(b"12a"))  # not digits
def test_a_damaged_payload_decodes_or_raises_storage_error(data):
    # Out of bytes and out of an adopted bytearray (what a checkpoint
    # load hands the decoder), the same checks refuse the same way.
    refusals = []
    for given_data in (data, bytearray(data)):
        try:
            payload_from_bytes(given_data)
            refusals.append(None)
        except StorageError as error:
            refusals.append(str(error))
    assert refusals[0] == refusals[1]


@oracle_settings(300)
@given(damaged_payloads())
@example(MAGIC + b"b\x03")  # a bool one bit away from True
@example(MAGIC + b"i" + _prefixed(b"1_0"))
@example(MAGIC + b"i" + _prefixed(b"+10"))
def test_a_damaged_payload_that_decodes_re_encodes_to_its_bytes(data):
    # Every field has one spelling: a decoder that accepts another one
    # hands out a value whose content address is not the one it was
    # read under.
    for given_data in (data, bytearray(data)):
        try:
            value = payload_from_bytes(given_data)
        except StorageError:
            continue
        assert payload_to_bytes(value) == data


def _prefixed_count(n: int) -> bytes:
    return struct.pack(">Q", n)


def _entry(key: str) -> bytes:
    return _prefixed(key.encode()) + b"N"


@pytest.mark.parametrize(
    "data, what",
    [
        pytest.param(MAGIC + b"b\x03", "b'\\x03' is not a bool", id="bool"),
        pytest.param(MAGIC + b"i" + _prefixed(b"1_0"), "'1_0' is not how 10", id="underscore"),
        pytest.param(MAGIC + b"i" + _prefixed(b"+10"), "'+10' is not how 10", id="plus"),
        pytest.param(MAGIC + b"i" + _prefixed(b"-0"), "'-0' is not how 0", id="minus zero"),
        pytest.param(
            MAGIC + b"D" + _prefixed_count(2) + _entry("k") + _entry("k"),
            "the key 'k' repeats",
            id="dict key",
        ),
        pytest.param(
            crafted_array(b'{"dtype":"<f8","kind":"dense","shape":[1]}', bytes(8)),
            "not in canonical form",
            id="header spacing",
        ),
        pytest.param(
            crafted_array({"dtype": "=f8", "kind": "dense", "shape": [1]}, bytes(8)),
            "not in canonical form",
            id="dtype alias",
        ),
        pytest.param(
            crafted_array(
                {"dtype": "object", "kind": "strings", "shape": [1]}, struct.pack(">q", -2)
            ),
            "a string of length -2",
            id="string length",
        ),
    ],
)
def test_a_non_canonical_field_is_refused(data, what):
    with pytest.raises(StorageError, match=f"payload tag b'{chr(data[4])}'") as error:
        payload_from_bytes(data)
    assert what in str(error.value)


def test_a_repeated_or_dense_string_table_column_is_refused():
    def table(*columns: tuple[str, bytes]) -> bytes:  # (name, column array)
        return MAGIC + b"T" + _prefixed_count(len(columns)) + b"".join(
            _prefixed(name.encode()) + array for name, array in columns
        )

    def column(dtype: str, body: bytes) -> bytes:
        return crafted_array(DENSE | {"dtype": dtype, "shape": [1]}, body)[len(MAGIC) + 1 :]

    floats = column("<f8", bytes(8))
    assert payload_from_bytes(table(("a", floats))).column_names == ["a"]
    with pytest.raises(StorageError, match="the column 'a' repeats"):
        payload_from_bytes(table(("a", floats), ("a", floats)))
    # A table keeps string columns as objects; dense ones would come
    # back as objects and re-encode to other bytes.
    for dense in (column("<U2", bytes(8)), column("|S2", bytes(2))):
        with pytest.raises(StorageError, match="the column 'a' is dense"):
            payload_from_bytes(table(("a", dense)))


@pytest.mark.parametrize(
    "data, what",
    [
        pytest.param(
            crafted_array(DENSE | {"shape": [1]}, b"12345"), "5 body bytes", id="item size"
        ),
        pytest.param(crafted_array(DENSE | {"shape": [3]}, bytes(16)), "16 body bytes", id="shape"),
        pytest.param(
            crafted_array({"dtype": "<q9", "shape": [1], "kind": "dense"}, b""),
            "unknown dtype",
            id="dtype",
        ),
        pytest.param(
            crafted_array({"dtype": "|O", "shape": [1], "kind": "dense"}, b""),
            "object dtype",
            id="object",
        ),
        pytest.param(crafted_array(DENSE, bytes(8)), "shape None", id="no shape"),
        pytest.param(
            crafted_array({"shape": [-1], "kind": "strings"}, b""), "shape [-1]", id="negative"
        ),
        pytest.param(
            crafted_array(DENSE | {"shape": [1] * 100}, bytes(8)),
            "has 100 dimensions, more than the 64",
            id="dimensions",
        ),
        pytest.param(crafted_array(b"{not json", b""), "not JSON", id="json"),
        pytest.param(
            MAGIC + b"s" + _prefixed(b"\xff\xfe"), "the string is not utf-8", id="utf-8"
        ),
        pytest.param(MAGIC + b"i" + _prefixed(b"12a"), "'12a' is not an integer", id="int"),
    ],
)
def test_the_error_names_the_tag_and_what_was_wrong(data, what):
    with pytest.raises(StorageError, match=f"payload tag b'{chr(data[4])}'") as error:
        payload_from_bytes(data)
    assert what in str(error.value)


def test_an_accepted_header_is_parsed_once_and_a_refused_one_every_time():
    from repro.data.serialize import _parse_array_header

    _parse_array_header.cache_clear()
    table = Table({name: np.arange(4.0) for name in "abc"})
    assert payload_from_bytes(payload_to_bytes(table)).equals(table)
    info = _parse_array_header.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    spaced = crafted_array(b'{"dtype":"<f8","kind":"dense","shape":[1]}', bytes(8))
    for _ in range(2):
        with pytest.raises(StorageError, match="not in canonical form"):
            payload_from_bytes(spaced)
    # A header past the remembered length is parsed and refused as any
    # other, and never remembered.
    wide = crafted_array(DENSE | {"shape": [10**1200]}, bytes(8))
    for _ in range(2):
        with pytest.raises(StorageError, match="8 body bytes for shape"):
            payload_from_bytes(wide)
    assert _parse_array_header.cache_info().currsize == 1
