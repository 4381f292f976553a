"""Field containers, patch partitioning, norms, channel maps, and the batched patch SVD.

Conventions used throughout the package:

* a *feature field* is a float64 array of shape ``(d, H, W)``: ``d`` channels
  over an ``H x W`` pixel grid, channel-major, row-major within a channel;
* a *plane field* is a float64 array of shape ``(H, W)``;
* public functions never mutate their inputs and always return fresh arrays,
  so fields can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConfigError",
    "NumericalError",
    "field_shape",
    "as_field",
    "as_plane",
    "frobenius_norm",
    "channel_map",
    "patch_tiles",
    "patch_plane",
    "parse_name_values",
    "read_utf8",
    "singular_values",
    "singular_values_batch",
    "sigmoid",
]


class ConfigError(ValueError):
    """A shape, layout, or parameter setting is inconsistent."""


class NumericalError(RuntimeError):
    """A computation on finite inputs produced non-finite values or did not converge."""


def field_shape(x, name: str = "field") -> np.ndarray:
    """``x`` as a float64 array of shape (channels, H, W), no dimension empty.

    The entries are not scanned; :func:`as_field` adds that check.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ConfigError(f"{name}: expected (channels, H, W), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ConfigError(f"{name}: empty dimension in shape {arr.shape}")
    return arr


def as_field(x, name: str = "field") -> np.ndarray:
    """Validate ``x`` as a (channels, H, W) float64 feature field."""
    arr = field_shape(x, name)
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


def channel_map(w, x) -> np.ndarray:
    """Per-pixel channel mixing: out[o] = sum_c w[o, c] * x[c]."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ConfigError(f"channel map {w.shape} does not match {x.shape[0]} channels")
    return (w @ x.reshape(x.shape[0], -1)).reshape(w.shape[0], *x.shape[1:])


def parse_name_values(text: str, source: str) -> dict:
    """``name = value`` lines as a dict; hash comments and blank lines are skipped.

    A line without ``=`` raises :class:`ConfigError` naming ``source`` and
    the line number.
    """
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected 'name = value', got {raw!r}")
        name, value = line.split("=", 1)
        table[name.strip()] = value.strip()
    return table


def read_utf8(path) -> str:
    """The text of the file at ``path``; one that is not UTF-8 raises :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def _patch_grid(height: int, width: int, patch_side: int) -> tuple:
    """(rows, cols) of square tiles of side ``patch_side`` on an H x W grid."""
    height, width, patch_side = int(height), int(width), int(patch_side)
    if patch_side < 1:
        raise ConfigError(f"patch_side must be positive, got {patch_side}")
    if height < 1 or width < 1:
        raise ConfigError(f"grid {height}x{width} is empty")
    if height % patch_side or width % patch_side:
        raise ConfigError(f"patch side {patch_side} does not tile a {height}x{width} grid")
    return height // patch_side, width // patch_side


def patch_tiles(x: np.ndarray, patch_side: int) -> np.ndarray:
    """All patch matrices of a (channels, H, W) array on square tiles.

    Shape (n_patches, channels, patch_side**2).  Patches are in raster order:
    patch ``j`` sits at tile row ``j // cols`` and tile column ``j % cols``.
    Within a patch, pixels are flattened row-major.  The patches tile the
    field, so the result holds every entry of ``x`` exactly once.
    """
    d, height, width = x.shape
    rows, cols = _patch_grid(height, width, patch_side)
    p = int(patch_side)
    t = x.reshape(d, rows, p, cols, p).transpose(1, 3, 0, 2, 4)
    return np.ascontiguousarray(t.reshape(rows * cols, d, p * p))


def patch_plane(values, height: int, width: int, patch_side: int) -> np.ndarray:
    """The (H, W) plane that holds ``values[j]`` on every pixel of patch ``j`` (raster order)."""
    rows, cols = _patch_grid(height, width, patch_side)
    p = int(patch_side)
    blocks = np.empty((rows, p, cols, p))
    blocks[...] = np.reshape(values, (rows, 1, cols, 1))
    return blocks.reshape(rows * p, cols * p)


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
    try:
        return np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular_values_batch: {exc}") from exc
