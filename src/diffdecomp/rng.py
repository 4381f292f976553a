"""Deterministic random streams.

Every random draw in the package flows through Philox4x64-10, a counter-based
64-bit generator (numpy's ``Philox`` bit generator).  A stream is addressed by
a ``(seed, stream_id)`` pair packed into the 128-bit Philox key as

    key = seed + (stream_id << 64)

so distinct streams are statistically independent and any tensor can be
regenerated in isolation.  Draw conventions, fixed so the instances can be
reproduced outside this code base:

* ``uniforms``: the top 53 bits of each 64-bit Philox word, scaled by 2**-53
  (values in [0, 1)); this is numpy's ``Generator.random`` mapping.
* ``normals``: Box-Muller on consecutive uniform pairs.  For ``n`` values,
  draw ``2*m`` uniforms with ``m = ceil(n/2)``; with ``u1 = max(u[0::2],
  2**-53)`` (guards ``log 0``) and ``u2 = u[1::2]``, the output is the
  concatenation ``sqrt(-2 ln u1) * cos(2 pi u2)`` followed by
  ``sqrt(-2 ln u1) * sin(2 pi u2)``, truncated to ``n`` and reshaped in C
  order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError

__all__ = ["stream", "uniforms", "normals", "uniform_array"]

_U53 = 2.0**-53


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for the given (seed, stream) address."""
    seed = int(seed)
    stream_id = int(stream_id)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= stream_id < 2**64:
        raise ConfigError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
    return np.random.Generator(np.random.Philox(key=seed + (stream_id << 64)))


def uniforms(seed: int, stream_id: int, n: int) -> np.ndarray:
    """n uniform float64 draws in [0, 1) from the addressed stream."""
    return stream(seed, stream_id).random(int(n))


def normals(seed: int, stream_id: int, shape) -> np.ndarray:
    """Standard-normal draws via Box-Muller (see module docstring)."""
    shape = tuple(int(s) for s in np.atleast_1d(shape)) if not np.isscalar(shape) else (int(shape),)
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    u = uniforms(seed, stream_id, 2 * m)
    u1 = np.maximum(u[0::2], _U53)
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return z.reshape(shape)


def uniform_array(seed: int, stream_id: int, shape, low: float, high: float) -> np.ndarray:
    """Uniform draws on [low, high), reshaped in C order."""
    shape = tuple(int(s) for s in np.atleast_1d(shape)) if not np.isscalar(shape) else (int(shape),)
    n = int(np.prod(shape)) if shape else 1
    u = uniforms(seed, stream_id, n)
    return (low + (high - low) * u).reshape(shape)

