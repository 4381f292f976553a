"""References computed without the package, for the output checks.

Each function here is written from a format or a formula stated in the
package's docstrings, not from its code: the PUFD layout of ``tensorio``,
the Haar suppression of ``wavelet``, the spectral entropy of ``sve`` (with
LAPACK singular values), and the residual score of ``convergence``.
"""

from __future__ import annotations

import importlib.util
import struct
from pathlib import Path

import numpy as np


def load_oracles(root: Path):
    """The straight-line reference solver of the repository's tests."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_pufd(path) -> np.ndarray:
    """Read a PUFD tensor: magic, u16 version 1, u8 rank, u32 dims, f8 payload (LE)."""
    blob = Path(path).read_bytes()
    if len(blob) < 7 or blob[:4] != b"PUFD":
        raise ValueError(f"{path}: not a PUFD file")
    version, rank = struct.unpack_from("<HB", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    dims = struct.unpack_from(f"<{rank}I", blob, 7)
    start = 7 + 4 * rank
    count = int(np.prod(dims)) if dims else 1
    if len(blob) != start + 8 * count:
        raise ValueError(f"{path}: {len(blob)} bytes, header promises {start + 8 * count}")
    return np.frombuffer(blob, dtype="<f8", offset=start).reshape(dims).astype(np.float64)


def rectangle_mask(rectangles: str, height: int, width: int) -> np.ndarray:
    """Plane with 1 inside the 'row,col,height,width;...' rectangles, 0 elsewhere."""
    mask = np.zeros((height, width))
    for part in filter(None, (p.strip() for p in rectangles.split(";"))):
        r, c, h, w = (int(v) for v in part.split(","))
        mask[r:r + h, c:c + w] = 1.0
    return mask


def patch_groups(mask: np.ndarray, side: int):
    """Raster patch indices touching the mask, and the rest."""
    rows, cols = mask.shape[0] // side, mask.shape[1] // side
    touched = mask.reshape(rows, side, cols, side).max(axis=(1, 3)).ravel() > 0
    return np.flatnonzero(touched), np.flatnonzero(~touched)


def haar_suppress(f1, f2, eta_a: float, eta_detail: float):
    """Suppressed pair for identity channel maps.

    Orthonormal Haar bands of each 2x2 block, ``t = eta * (b1 - b2)`` moved
    from the first field to the second in every band, then inverted.
    """
    def bands(x):
        p, q = x[:, 0::2, 0::2], x[:, 0::2, 1::2]
        r, s = x[:, 1::2, 0::2], x[:, 1::2, 1::2]
        return [(p + q + r + s) / 2, (p + q - r - s) / 2,
                (p - q + r - s) / 2, (p - q - r + s) / 2]

    def invert(a, h, v, d):
        out = np.empty((a.shape[0], 2 * a.shape[1], 2 * a.shape[2]))
        out[:, 0::2, 0::2] = (a + h + v + d) / 2
        out[:, 0::2, 1::2] = (a + h - v - d) / 2
        out[:, 1::2, 0::2] = (a - h + v - d) / 2
        out[:, 1::2, 1::2] = (a - h - v + d) / 2
        return out

    etas = (eta_a, eta_detail, eta_detail, eta_detail)
    b1, b2 = bands(np.asarray(f1, float)), bands(np.asarray(f2, float))
    moved = [eta * (x - y) for eta, x, y in zip(etas, b1, b2)]
    return (invert(*[x - t for x, t in zip(b1, moved)]),
            invert(*[y + t for y, t in zip(b2, moved)]))


def patch_entropies(field, side: int, epsilon: float) -> np.ndarray:
    """Entropy -sum p ln(p + eps) of each patch's normalised LAPACK spectrum."""
    d, h, w = field.shape
    mats = field.reshape(d, h // side, side, w // side, side).transpose(1, 3, 0, 2, 4)
    sv = np.linalg.svd(mats.reshape(-1, d, side * side), compute_uv=False)
    total = sv.sum(axis=1, keepdims=True)
    p = np.where(total <= epsilon, 1.0 / sv.shape[1], sv / np.where(total <= epsilon, 1.0, total))
    return -np.sum(p * np.log(p + epsilon), axis=1)


def residual_score(dfield, c, n) -> float:
    """||D - (C + N)|| / ||D|| in Frobenius norm."""
    return float(np.linalg.norm((dfield - (c + n)).ravel()) / np.linalg.norm(dfield.ravel()))


def close(a, b, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))
