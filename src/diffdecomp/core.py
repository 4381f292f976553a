"""Field containers, patch partitioning, norms, and the batched patch SVD.

Conventions used throughout the package:

* a *feature field* is a float64 array of shape ``(d, H, W)``: ``d`` channels
  over an ``H x W`` pixel grid, channel-major, row-major within a channel;
* a *plane field* is a float64 array of shape ``(H, W)``;
* public functions never mutate their inputs and always return fresh arrays,
  so fields can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "PatchLayout",
    "as_field",
    "as_plane",
    "frobenius_norm",
    "patch_matrix",
    "patch_matrices",
    "singular_values",
    "singular_values_batch",
    "sigmoid",
]


class ConfigError(ValueError):
    """A shape, layout, or parameter setting is inconsistent."""


def as_field(x, name: str = "field") -> np.ndarray:
    """Validate ``x`` as a (channels, H, W) float64 feature field."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ConfigError(f"{name}: expected (channels, H, W), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ConfigError(f"{name}: empty dimension in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name}: non-finite entries")
    return arr


def as_plane(x, name: str = "plane") -> np.ndarray:
    """Validate ``x`` as an (H, W) float64 plane field."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError(f"{name}: expected (H, W), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ConfigError(f"{name}: empty dimension in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name}: non-finite entries")
    return arr


def frobenius_norm(x) -> float:
    """Frobenius norm over all entries, accumulated in float64.

    numpy's ``sum`` uses pairwise accumulation, which keeps the squared-sum
    error at the 1e-12 relative level required of downstream scores.
    """
    arr = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.sum(arr * arr)))


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PatchLayout:
    """Partition of an H x W grid into non-overlapping square tiles.

    Patches are indexed in raster order: patch ``j`` sits at tile row
    ``j // cols`` and tile column ``j % cols``.  Within a patch, pixels are
    flattened row-major when a patch matrix is formed.
    """

    patch_side: int
    rows: int
    cols: int

    @classmethod
    def for_shape(cls, height: int, width: int, patch_side: int) -> "PatchLayout":
        height, width, patch_side = int(height), int(width), int(patch_side)
        if patch_side < 1:
            raise ConfigError(f"patch_side must be positive, got {patch_side}")
        if height < 1 or width < 1:
            raise ConfigError(f"grid {height}x{width} is empty")
        if height % patch_side or width % patch_side:
            raise ConfigError(
                f"patch side {patch_side} does not tile a {height}x{width} grid"
            )
        return cls(patch_side, height // patch_side, width // patch_side)

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    def slices(self, index: int):
        """(row slice, column slice) of patch ``index`` in pixel coordinates."""
        index = int(index)
        if not 0 <= index < self.n_patches:
            raise IndexError(f"patch index {index} out of range [0, {self.n_patches})")
        r, c = divmod(index, self.cols)
        p = self.patch_side
        return slice(r * p, (r + 1) * p), slice(c * p, (c + 1) * p)


def _check_layout(x: np.ndarray, layout: PatchLayout, name: str) -> None:
    h, w = x.shape[1], x.shape[2]
    if h != layout.rows * layout.patch_side or w != layout.cols * layout.patch_side:
        raise ConfigError(
            f"{name}: layout {layout} does not match field of shape {x.shape}"
        )


def patch_matrix(x, layout: PatchLayout, index: int) -> np.ndarray:
    """Patch ``index`` of a field as a (channels, patch_side**2) matrix.

    Rows are channels; columns are the patch pixels in row-major order.
    """
    x = as_field(x)
    _check_layout(x, layout, "patch_matrix")
    rs, cs = layout.slices(index)
    d = x.shape[0]
    return x[:, rs, cs].reshape(d, layout.patch_side * layout.patch_side).copy()


def patch_matrices(x, layout: PatchLayout) -> np.ndarray:
    """All patch matrices at once, shape (n_patches, channels, patch_side**2).

    ``patch_matrices(x, layout)[j]`` equals ``patch_matrix(x, layout, j)``.
    """
    x = as_field(x)
    _check_layout(x, layout, "patch_matrices")
    d = x.shape[0]
    p = layout.patch_side
    t = x.reshape(d, layout.rows, p, layout.cols, p)
    t = t.transpose(1, 3, 0, 2, 4)
    return np.ascontiguousarray(t.reshape(layout.n_patches, d, p * p))


def singular_values(m) -> np.ndarray:
    """Singular values of a 2-D matrix, descending; a zero matrix gives zeros."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ConfigError(f"singular_values: expected a 2-D matrix, got shape {m.shape}")
    return singular_values_batch(m[None, :, :])[0]


def singular_values_batch(mats) -> np.ndarray:
    """Singular values of a stack of same-shape matrices, by LAPACK.

    ``mats`` has shape (batch, rows, cols); the result has shape
    (batch, min(rows, cols)) with each row sorted descending.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3:
        raise ConfigError(f"singular_values_batch: expected (batch, rows, cols), got {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise ConfigError("singular_values_batch: non-finite entries")
    return np.linalg.svd(mats, compute_uv=False)
