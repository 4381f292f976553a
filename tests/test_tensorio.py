"""Binary tensor file round-trips and format validation."""

import struct
import tracemalloc

import numpy as np
import pytest

from diffdecomp.tensorio import MAGIC, TensorFormatError, read_tensor, write_tensor


def test_round_trip_3d(tmp_path, rng):
    x = rng.normal(size=(4, 8, 6))
    path = tmp_path / "t.pufd"
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_round_trip_2d_plane(tmp_path):
    y = np.arange(12, dtype=np.float64).reshape(3, 4)
    path = tmp_path / "y.pufd"
    write_tensor(path, y)
    assert np.array_equal(read_tensor(path), y)


def test_header_layout(tmp_path):
    path = tmp_path / "h.pufd"
    write_tensor(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    magic, version, rank = struct.unpack_from("<4sHB", raw)
    assert magic == MAGIC == b"PUFD"
    assert version == 1
    assert rank == 2
    assert struct.unpack_from("<2I", raw, 7) == (2, 3)
    assert len(raw) == 7 + 8 + 6 * 8


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pufd"
    write_tensor(path, np.zeros((2, 2)))
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFormatError):
        read_tensor(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "cut.pufd"
    write_tensor(path, np.ones((2, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TensorFormatError):
        read_tensor(path)


def test_forged_header_fails_before_allocating(tmp_path):
    # the header claims 8 x 1024 x 1024 values (64 MiB); the file holds 20 bytes
    path = tmp_path / "forged.pufd"
    path.write_bytes(
        struct.pack("<4sHB", MAGIC, 1, 3) + struct.pack("<3I", 8, 1024, 1024) + bytes(20)
    )
    assert path.stat().st_size == 39
    tracemalloc.start()
    try:
        with pytest.raises(TensorFormatError, match="truncated payload"):
            read_tensor(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.pufd"
    write_tensor(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TensorFormatError):
        read_tensor(path)


def test_rejects_non_finite_write(tmp_path):
    x = np.zeros((2, 2))
    x[0, 0] = np.nan
    with pytest.raises(TensorFormatError):
        write_tensor(tmp_path / "nan.pufd", x)


def test_rejects_scalar_write(tmp_path):
    path = tmp_path / "scalar.pufd"
    with pytest.raises(TensorFormatError, match="rank 0"):
        write_tensor(path, 2.5)
    assert not path.exists()


def test_rejects_rank_zero_file(tmp_path):
    # a well-formed rank-0 file: the header, no dimensions, one value
    path = tmp_path / "scalar.pufd"
    path.write_bytes(struct.pack("<4sHB", MAGIC, 1, 0) + struct.pack("<d", 2.5))
    with pytest.raises(TensorFormatError, match="rank 0"):
        read_tensor(path)


def test_round_trip_non_contiguous(tmp_path, rng):
    x = rng.normal(size=(3, 8, 6))[:, ::2, ::-1].transpose(0, 2, 1)
    path = tmp_path / "view.pufd"
    write_tensor(path, x)
    assert np.array_equal(read_tensor(path), x)
