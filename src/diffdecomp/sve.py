"""Patch-wise singular-value entropy (SVE) and the entropy-driven gate.

The SVE of a patch is the Shannon entropy of its normalised singular-value
spectrum: textured, spectrally spread patches score high, smooth or low-rank
patches score low.  The gate turns the SVE of the (channel-reduced, absolute)
residual into a multiplicative weight in (0, 1) for residual reinjection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import (
    ConfigError,
    PatchLayout,
    channel_map,
    field_shape,
    sigmoid,
    singular_values_batch,
)

__all__ = [
    "GateParams",
    "init_gate_params",
    "normalized_spectrum",
    "patch_entropy",
    "patch_entropies",
    "group_means",
    "sve_map",
    "gate_map",
]

# rng stream used for the channel-reduction init
_STREAM_REDUCER = 11


@dataclass
class GateParams:
    """Entropy-gate parameters.

    ``reducer`` is a (reduced_channels, channels) map applied to the absolute
    residual before the patch SVD; ``scale``/``shift`` form the affine map from
    entropy to gate logit.  With the uniform degenerate-spectrum convention an
    all-zero residual gates to sigmoid(scale * ln(reduced_channels) + shift).
    """

    reducer: np.ndarray
    patch_side: int = 8
    epsilon: float = 1e-8
    scale: float = 1.0
    shift: float = 0.0

    @property
    def reduced_channels(self) -> int:
        return int(self.reducer.shape[0])


def init_gate_params(
    channels: int,
    reduced_channels: int = 4,
    patch_side: int = 8,
    epsilon: float = 1e-8,
    seed: int = 0,
) -> GateParams:
    """Seeded default gate: reducer ~ U(-1/sqrt(d), 1/sqrt(d)), logit map x -> x."""
    channels = int(channels)
    reduced_channels = int(reduced_channels)
    if channels < 1 or reduced_channels < 1:
        raise ConfigError("channel counts must be positive")
    if reduced_channels > channels:
        raise ConfigError(
            f"reduced_channels {reduced_channels} exceeds channels {channels}"
        )
    bound = 1.0 / np.sqrt(channels)
    reducer = rng.uniform_array(seed, _STREAM_REDUCER, (reduced_channels, channels), -bound, bound)
    return GateParams(
        reducer=reducer,
        patch_side=int(patch_side),
        epsilon=float(epsilon),
        scale=1.0,
        shift=0.0,
    )


def normalized_spectrum(sigmas, epsilon: float = 1e-8) -> np.ndarray:
    """Spectra normalised to unit mass along the last axis; (near-)zero mass becomes uniform.

    The uniform fallback is the degenerate-patch convention: an all-zero (or
    epsilon-small) patch is treated as maximally uncertain rather than
    undefined.
    """
    s = np.asarray(sigmas, dtype=np.float64)
    if s.ndim == 0 or s.shape[-1] == 0:
        raise ConfigError(f"normalized_spectrum: expected non-empty spectra, got {s.shape}")
    if np.any(s < 0.0):
        raise ConfigError("normalized_spectrum: negative singular value")
    total = np.sum(s, axis=-1, keepdims=True)
    degenerate = total <= epsilon
    p = s / np.where(degenerate, 1.0, total)
    return np.where(degenerate, 1.0 / s.shape[-1], p)


def patch_entropy(spectrum, epsilon: float = 1e-8) -> float | np.ndarray:
    """Shannon entropy -sum p * ln(p + epsilon) along the last axis.

    A single spectrum gives a ``float``, a stack of spectra an array.
    """
    p = np.asarray(spectrum, dtype=np.float64)
    ent = -np.sum(p * np.log(p + epsilon), axis=-1)
    return float(ent) if ent.ndim == 0 else ent


def patch_entropies(x, patch_side: int, epsilon: float = 1e-8) -> np.ndarray:
    """Per-patch SVE of a field, in raster patch order (length n_patches).

    Non-finite entries fail the input check of the batched SVD: the patches
    tile the field, so that check scans every entry once.
    """
    x = field_shape(x, "patch_entropies")
    layout = PatchLayout.for_shape(x.shape[1], x.shape[2], patch_side)
    svs = singular_values_batch(layout.tiles(x))
    return patch_entropy(normalized_spectrum(svs, epsilon), epsilon)


def group_means(values, groups) -> tuple:
    """Mean of ``values`` over each group of indices; ``None`` for an empty group."""
    values = np.asarray(values)
    return tuple(
        float(np.mean(values[np.asarray(g, dtype=int)])) if len(g) else None for g in groups
    )


def sve_map(x, patch_side: int, epsilon: float = 1e-8) -> np.ndarray:
    """Dense SVE plane: piecewise constant, one value per patch.

    Invariant under multiplication of the whole field by any positive scalar
    (the spectrum normalisation cancels scale).
    """
    x = field_shape(x, "sve_map")
    ent = patch_entropies(x, patch_side, epsilon)
    layout = PatchLayout.for_shape(x.shape[1], x.shape[2], patch_side)
    p = layout.patch_side
    blocks = np.empty((layout.rows, p, layout.cols, p))
    blocks[...] = ent.reshape(layout.rows, 1, layout.cols, 1)
    return blocks.reshape(layout.rows * p, layout.cols * p)


def gate_map(residual, params: GateParams) -> np.ndarray:
    """Gate plane sigmoid(scale * SVE + shift) of the reduced absolute residual.

    The reduced field is non-finite wherever the residual is, so the batched
    SVD's input check rejects a non-finite residual.
    """
    r = field_shape(residual, "gate_map")
    s = sve_map(channel_map(params.reducer, np.abs(r)), params.patch_side, params.epsilon)
    return sigmoid(params.scale * s + params.shift)
