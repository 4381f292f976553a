"""Binary tensor files (PUFD format).

One tensor per file, little-endian throughout:

    bytes 0-3   magic ``b"PUFD"``
    bytes 4-5   format version, u16 (currently 1)
    byte  6     rank, u8
    next 4*rank dims, u32 each, outermost first
    rest        payload, float64, C order (channel-major, row-major)
"""

from __future__ import annotations

import os
import struct

import numpy as np

__all__ = ["MAGIC", "VERSION", "write_tensor", "read_tensor", "TensorFormatError"]

MAGIC = b"PUFD"
VERSION = 1


class TensorFormatError(ValueError):
    """Raised when a tensor file is malformed or unsupported."""


def write_tensor(path, array) -> None:
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 255:
        raise TensorFormatError(f"unsupported rank {arr.ndim}")
    if any(s >= 2**32 for s in arr.shape):
        raise TensorFormatError(f"dimension too large in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise TensorFormatError("non-finite entries are not representable")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHB", MAGIC, VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) != 7:
            raise TensorFormatError("truncated header")
        magic, version, rank = struct.unpack("<4sHB", head)
        if magic != MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise TensorFormatError(f"unsupported version {version}")
        if rank < 1:
            raise TensorFormatError("unsupported rank 0")
        dims_raw = fh.read(4 * rank)
        if len(dims_raw) != 4 * rank:
            raise TensorFormatError("truncated dimension list")
        dims = struct.unpack(f"<{rank}I", dims_raw)
        count = 1
        for d in dims:
            count *= d
        # checked against the file size before the payload buffer exists, so
        # a forged header cannot make the reader allocate what it claims
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < 8 * count:
            raise TensorFormatError(f"truncated payload: {left} of {8 * count} bytes")
        if left > 8 * count:
            raise TensorFormatError("trailing bytes after payload")
        payload = fh.read(8 * count)
        if len(payload) != 8 * count:
            raise TensorFormatError("truncated payload")
    out = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise TensorFormatError("payload contains non-finite entries")
    return out
