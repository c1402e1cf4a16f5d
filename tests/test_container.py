"""The deterministic array container."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from melodygen.artifacts import SchemaError
from melodygen.container import (
    FORMAT_VERSION,
    MAGIC,
    load_arrays,
    pack_arrays,
    save_arrays,
    unpack_arrays,
)


def container_with_header(header: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(raw)) + raw + payload


named_arrays = st.dictionaries(
    st.text(max_size=4),
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
        elements=st.floats(allow_nan=False),
    ),
    max_size=3,
)
metas = st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2)


def example_arrays():
    rng = np.random.default_rng(0)
    return {
        "weights": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=7),
        "scalarish": np.array(3.5),
    }


class TestRoundTrip:
    def test_values_and_shapes_survive(self):
        arrays = example_arrays()
        out, meta = unpack_arrays(pack_arrays(arrays, {"note": "hi"}))
        assert set(out) == set(arrays)
        for name in arrays:
            assert out[name].shape == arrays[name].shape
            assert np.array_equal(out[name], arrays[name])
        assert meta == {"note": "hi"}

    def test_arrays_are_read_only_views_of_the_bytes(self):
        data = pack_arrays(example_arrays())
        out, _ = unpack_arrays(data)
        for arr in out.values():
            assert not arr.flags.writeable and not arr.flags.owndata
            assert np.shares_memory(arr, np.frombuffer(data, np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            out["bias"][0] = 99.0

    def test_empty_container(self):
        out, meta = unpack_arrays(pack_arrays({}))
        assert out == {} and meta == {}

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "arrays.bin"
        save_arrays(path, example_arrays(), {"k": 1})
        out, meta = load_arrays(path)
        assert np.array_equal(out["weights"], example_arrays()["weights"])
        assert meta == {"k": 1}

    def test_non_float_input_converted(self):
        out, _ = unpack_arrays(pack_arrays({"ints": np.arange(5)}))
        assert out["ints"].dtype == np.float64
        assert out["ints"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestDeterminism:
    def test_same_input_same_bytes(self):
        assert pack_arrays(example_arrays(), {"a": 1}) == pack_arrays(
            example_arrays(), {"a": 1}
        )

    def test_insertion_order_irrelevant(self):
        arrays = example_arrays()
        reversed_order = dict(reversed(list(arrays.items())))
        assert pack_arrays(arrays) == pack_arrays(reversed_order)

    def test_meta_key_order_irrelevant(self):
        arrays = example_arrays()
        assert pack_arrays(arrays, {"a": 1, "b": 2}) == pack_arrays(
            arrays, {"b": 2, "a": 1}
        )


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SchemaError, match="magic"):
            unpack_arrays(b"NOTMAGIC" + b"\x00" * 30)

    def test_too_short(self):
        with pytest.raises(SchemaError):
            unpack_arrays(MAGIC)

    def test_bad_version(self):
        data = bytearray(pack_arrays(example_arrays()))
        data[8] = FORMAT_VERSION + 1
        with pytest.raises(SchemaError, match="version"):
            unpack_arrays(bytes(data))

    def test_truncated_payload(self):
        data = pack_arrays(example_arrays())
        with pytest.raises(SchemaError, match="truncated"):
            unpack_arrays(data[:-8])

    def test_corrupt_header(self):
        data = bytearray(pack_arrays({"a": np.zeros(2)}))
        data[21] = 0xFF  # stomp inside the JSON header
        with pytest.raises(SchemaError):
            unpack_arrays(bytes(data))

    def test_header_without_arrays(self):
        with pytest.raises(SchemaError, match="arrays"):
            unpack_arrays(container_with_header({"meta": {}}))

    def test_header_that_is_not_an_object(self):
        with pytest.raises(SchemaError, match="must be a JSON object, not list"):
            unpack_arrays(container_with_header([1, 2]))

    def test_meta_that_is_not_an_object(self):
        with pytest.raises(SchemaError, match="meta"):
            unpack_arrays(container_with_header({"meta": [], "arrays": []}))

    def test_shape_that_does_not_match_nbytes(self):
        entry = {"name": "weights", "shape": [3, 4], "offset": 0, "nbytes": 16}
        data = container_with_header({"arrays": [entry]}, bytes(16))
        with pytest.raises(SchemaError, match="'weights'.*does not match"):
            unpack_arrays(data)

    @pytest.mark.parametrize(
        "field, value",
        [("shape", [2, -1]), ("shape", [2.0]), ("shape", 2), ("offset", -8),
         ("offset", True), ("nbytes", "16"), ("nbytes", None)],
    )
    def test_malformed_entry_names_the_array(self, field, value):
        """A negative count names the array; a value of another type names its field."""
        entry = {"name": "bias", "shape": [2], "offset": 0, "nbytes": 16}
        entry[field] = value
        named = "'bias'" if value in ([2, -1], -8) else f"arrays[0].{field}"
        with pytest.raises(SchemaError, match=re.escape(named)):
            unpack_arrays(container_with_header({"arrays": [entry]}, bytes(16)))

    def test_more_dimensions_than_numpy_supports(self):
        entry = {"name": "deep", "shape": [1] * 65, "offset": 0, "nbytes": 8}
        with pytest.raises(SchemaError, match="'deep'"):
            unpack_arrays(container_with_header({"arrays": [entry]}, bytes(8)))

    def test_entry_without_a_name(self):
        entry = {"shape": [2], "offset": 0, "nbytes": 16}
        with pytest.raises(SchemaError, match=re.escape("missing field 'arrays[0].name'")):
            unpack_arrays(container_with_header({"arrays": [entry]}, bytes(16)))

    def test_duplicate_names(self):
        entry = {"name": "bias", "shape": [1], "offset": 0, "nbytes": 8}
        data = container_with_header({"arrays": [entry, entry]}, bytes(8))
        with pytest.raises(SchemaError, match="duplicate array 'bias'"):
            unpack_arrays(data)


class TestCorruptionProperties:
    @settings(max_examples=60, deadline=None)
    @given(named_arrays, metas)
    def test_round_trip(self, arrays, meta):
        out, got_meta = unpack_arrays(pack_arrays(arrays, meta))
        assert got_meta == meta
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            assert out[name].shape == arr.shape
            assert out[name].tobytes() == arr.astype("<f8").tobytes()

    @settings(max_examples=40, deadline=None)
    @given(named_arrays, metas)
    def test_every_truncated_prefix_is_rejected(self, arrays, meta):
        data = pack_arrays(arrays, meta)
        for end in range(len(data)):
            with pytest.raises(SchemaError):
                unpack_arrays(data[:end])

    @settings(max_examples=40, deadline=None)
    @given(named_arrays, metas, st.integers(1, 255))
    def test_every_single_byte_change_unpacks_or_is_rejected(self, arrays, meta, delta):
        data = pack_arrays(arrays, meta)
        for position in range(len(data)):
            changed = bytearray(data)
            changed[position] = (changed[position] + delta) % 256
            try:
                unpack_arrays(bytes(changed))
            except SchemaError:
                pass
