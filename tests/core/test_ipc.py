"""Tests for repro.core.ipc — the RCOL1 packed column buffer.

The packed buffer round-trips every column exactly, reads back as
zero-copy views, and rejects corrupt buffers loudly.
"""

import numpy as np
import pytest

from repro.core.artifact_store import CorruptArtifact
from repro.core.ipc import pack_columns, unpack_columns


def sample_columns():
    return {
        "timestamps": np.array([0.5, 1.25, 3.0], dtype=np.float64),
        "name_ids": np.array([0, 1, 0], dtype=np.int32),
        "rcodes": np.array([0, 3], dtype=np.int16),
        "blob": np.frombuffer(b"alpha\x00beta", dtype=np.uint8),
        "empty": np.array([], dtype=np.int64),
    }


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
        with pytest.raises(CorruptArtifact, match="not a packed"):
            unpack_columns(b"NOPE" + b"\x00" * 64)

    def test_truncated_payload_rejected(self):
        data = pack_columns(sample_columns())
        with pytest.raises(CorruptArtifact, match="truncated"):
            unpack_columns(data[:-8])

    def test_corrupt_header_rejected(self):
        data = bytearray(pack_columns({"a": np.array([1], dtype=np.int8)}))
        data[16] ^= 0xFF  # somewhere inside the JSON header
        with pytest.raises(CorruptArtifact):
            unpack_columns(bytes(data))
