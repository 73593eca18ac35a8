"""Tests for repro.core.container — frames and RCOL1 column buffers.

The packed buffer round-trips every column exactly, reads back as
zero-copy views, and rejects corrupt buffers loudly; frames check
their magic, header line, version and every block.
"""

import json
import struct

import numpy as np
import pytest

from repro.core.container import (FormatError, pack_columns, read_frame,
                                  unpack_columns, write_frame)


def sample_columns():
    return {
        "timestamps": np.array([0.5, 1.25, 3.0], dtype=np.float64),
        "name_ids": np.array([0, 1, 0], dtype=np.int32),
        "rcodes": np.array([0, 3], dtype=np.int16),
        "blob": np.frombuffer(b"alpha\x00beta", dtype=np.uint8),
        "empty": np.array([], dtype=np.int64),
    }


def with_column_header(entries, payload=b"\x01" * 8):
    """An RCOL1 buffer whose column header is ``entries`` verbatim."""
    header = json.dumps(entries).encode("utf-8")
    written = len(b"RCOL1\n") + 8 + len(header)
    padding = b"\x00" * (-written % 8)
    return (b"RCOL1\n" + struct.pack("<Q", len(header)) + header + padding
            + payload)


_ENTRY = {"key": "a", "dtype": "|i1", "shape": [1], "nbytes": 1,
          "offset": 0}


class TestPackedFormat:
    def test_roundtrip_exact(self):
        columns = sample_columns()
        unpacked = unpack_columns(pack_columns(columns))
        assert sorted(unpacked) == sorted(columns)
        for key, array in columns.items():
            assert unpacked[key].dtype == array.dtype
            assert unpacked[key].shape == array.shape
            np.testing.assert_array_equal(unpacked[key], array)

    def test_roundtrip_multidimensional(self):
        columns = {"grid": np.arange(12, dtype=np.int64).reshape(3, 4)}
        unpacked = unpack_columns(pack_columns(columns))
        np.testing.assert_array_equal(unpacked["grid"], columns["grid"])

    def test_views_are_zero_copy(self):
        data = pack_columns(sample_columns())
        unpacked = unpack_columns(data)
        # A view's buffer is the packed bytes themselves, not a copy.
        assert not unpacked["timestamps"].flags.owndata

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="not a packed"):
            unpack_columns(b"NOPE" + b"\x00" * 64)

    def test_truncated_payload_rejected(self):
        data = pack_columns(sample_columns())
        with pytest.raises(FormatError, match="truncated"):
            unpack_columns(data[:-8])

    @pytest.mark.parametrize("data", [
        None,  # a bit flipped inside the JSON header
        with_column_header([dict(_ENTRY, dtype="zz")]),
        with_column_header([{k: v for k, v in _ENTRY.items()
                             if k != "offset"}]),
        with_column_header({"a": _ENTRY}),
        with_column_header([dict(_ENTRY, shape=[2, 3])]),
    ], ids=["bitflip", "bad-dtype", "no-offset", "object-not-list",
            "shape-vs-nbytes"])
    def test_corrupt_header_rejected(self, data):
        if data is None:
            flipped = bytearray(
                pack_columns({"a": np.array([1], dtype=np.int8)}))
            flipped[16] ^= 0xFF
            data = bytes(flipped)
        with pytest.raises(FormatError, match="<buffer>"):
            unpack_columns(data)

    def test_wellformed_handmade_header_accepted(self):
        columns = unpack_columns(with_column_header([_ENTRY]))
        np.testing.assert_array_equal(columns["a"], [1])


MAGIC = b"#test-frame\n"


class TestFrame:
    def test_roundtrip_and_canonical_header(self):
        data = write_frame(MAGIC, {"version": 3, "day": "d"},
                           {"first": b"abc", "second": b""})
        header, (first, second) = read_frame(data, MAGIC, 3,
                                             ("first", "second"), "<t>")
        assert (bytes(first), bytes(second)) == (b"abc", b"")
        assert header["day"] == "d"
        line = data[len(MAGIC):data.index(b"\n", len(MAGIC)) + 1]
        assert line == json.dumps(header, sort_keys=True,
                                  separators=(",", ":")).encode() + b"\n"

    def test_each_block_is_checked(self):
        data = bytearray(write_frame(MAGIC, {"version": 1},
                                     {"a": b"one", "b": b"two"}))
        data[-1] ^= 0xFF
        with pytest.raises(FormatError, match="<t>: b block checksum"):
            read_frame(bytes(data), MAGIC, 1, ("a", "b"), "<t>")
