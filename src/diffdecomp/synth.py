"""Synthetic decomposition instances and bi-temporal pairs.

Instances are built so the entropy prior holds by construction: change is
per-channel i.i.d. texture confined to labelled rectangles (spectrally
spread), nuisance is a rank-1 raised-cosine sheet shared across channels plus
low-amplitude i.i.d. noise (spectrally concentrated).  All draws come from the
splittable streams in :mod:`diffdecomp.rng`, so a spec reproduces its instance
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import ConfigError, _patch_grid, patch_tiles

__all__ = ["SynthSpec", "SynthInstance", "BitemporalPair", "gen_instance", "gen_bitemporal"]

# per-tensor stream addresses
STREAM_TEXTURE = 1
STREAM_NOISE = 2
STREAM_PROFILE = 3

DEFAULT_RECTANGLES = ((4, 4, 8, 8), (20, 18, 8, 8))


@dataclass(frozen=True)
class SynthSpec:
    """Full description of one synthetic instance (seed included)."""

    seed: int = 0
    channels: int = 4
    height: int = 32
    width: int = 32
    patch_side: int = 8
    rectangles: tuple = DEFAULT_RECTANGLES
    change_amplitude: float = 1.0
    nuisance_amplitude: float = 0.5
    noise_sigma: float = 0.05
    illumination: float = 0.3


@dataclass(frozen=True)
class SynthInstance:
    """A decomposition instance: dfield = c_star + n_star, bit-exactly."""

    spec: SynthSpec
    dfield: np.ndarray
    c_star: np.ndarray
    n_star: np.ndarray
    labels: np.ndarray
    changed_patches: tuple
    unchanged_patches: tuple


@dataclass(frozen=True)
class BitemporalPair:
    """Two co-registered fields differing by illumination offset and change."""

    spec: SynthSpec
    f1: np.ndarray
    f2: np.ndarray
    labels: np.ndarray
    changed_patches: tuple
    unchanged_patches: tuple


def _labels_plane(spec: SynthSpec) -> np.ndarray:
    labels = np.zeros((spec.height, spec.width), dtype=np.float64)
    for rect in spec.rectangles:
        if len(rect) != 4:
            raise ConfigError(f"rectangle {rect!r} is not (row, col, height, width)")
        r0, c0, hh, ww = (int(v) for v in rect)
        if hh < 1 or ww < 1:
            raise ConfigError(f"rectangle {rect!r} is empty")
        if r0 < 0 or c0 < 0 or r0 + hh > spec.height or c0 + ww > spec.width:
            raise ConfigError(f"rectangle {rect!r} exceeds the {spec.height}x{spec.width} grid")
        labels[r0 : r0 + hh, c0 : c0 + ww] = 1.0
    return labels


def _patch_groups(labels: np.ndarray, patch_side: int):
    """Raster patch indices touching any positive label, and the complement."""
    hit = np.any(patch_tiles(labels[None, :, :], patch_side) > 0.0, axis=(1, 2))
    return tuple(np.flatnonzero(hit).tolist()), tuple(np.flatnonzero(~hit).tolist())


def _raised_cosine(n: int, phase: float) -> np.ndarray:
    """Smooth periodic bump (1 - cos)/2 with a phase offset, mean exactly 0.5."""
    i = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (i / n + phase)))


def _smooth_sheet(spec: SynthSpec) -> np.ndarray:
    phases = rng.uniforms(spec.seed, STREAM_PROFILE, 2)
    row = _raised_cosine(spec.height, phases[0])
    col = _raised_cosine(spec.width, phases[1])
    return spec.nuisance_amplitude * np.outer(row, col)


def _draw(spec: SynthSpec):
    """The draw both kinds share: (labels, patch groups, change, background).

    change: per-channel i.i.d. N(0,1) texture * change_amplitude, masked to
    the rectangles.  background: rank-1 raised-cosine sheet (seeded phase,
    identical across channels) * nuisance_amplitude, plus i.i.d. noise *
    noise_sigma.
    """
    if spec.channels < 1:
        raise ConfigError(f"channels must be positive, got {spec.channels}")
    if spec.noise_sigma < 0 or spec.change_amplitude < 0 or spec.nuisance_amplitude < 0:
        raise ConfigError("amplitudes must be non-negative")
    _patch_grid(spec.height, spec.width, spec.patch_side)  # a bad grid fails before any draw
    labels = _labels_plane(spec)
    shape = (spec.channels, spec.height, spec.width)
    texture = spec.change_amplitude * rng.normals(spec.seed, STREAM_TEXTURE, shape)
    change = texture * labels[None, :, :]
    noise = spec.noise_sigma * rng.normals(spec.seed, STREAM_NOISE, shape)
    background = _smooth_sheet(spec)[None, :, :] + noise
    return labels, _patch_groups(labels, spec.patch_side), change, background


def gen_instance(spec: SynthSpec) -> SynthInstance:
    """Deterministic decomposition instance for a spec.

    c_star is the masked change texture and n_star the background (see
    :func:`_draw`).  dfield is computed as ``c_star + n_star`` so the
    additive split holds bit-exactly.
    """
    labels, groups, change, background = _draw(spec)
    return SynthInstance(spec, change + background, change, background, labels, *groups)


def gen_bitemporal(spec: SynthSpec) -> BitemporalPair:
    """Deterministic bi-temporal pair.

    f1 is the background (rank-1 sheet + noise); f2 adds a constant
    illumination offset and the masked change texture on top of f1.  With a
    zero offset and no rectangles the two fields are bit-identical; in
    general ``f2 - f1`` recovers ``offset + change`` up to float64 rounding.
    """
    labels, groups, change, background = _draw(spec)
    f2 = background + spec.illumination + change
    return BitemporalPair(spec, background, f2, labels, *groups)
