"""Seeded stream addressing and the documented uniform/normal transforms.

The normal test reimplements Box-Muller from the documented recipe as an
independent oracle and requires bit equality, since cross-implementation
reproducibility is the whole point of pinning the transform.
"""

import math

import numpy as np
import pytest

from diffdecomp import rng


def test_stream_determinism():
    a = rng.uniforms(42, 7, 100)
    b = rng.uniforms(42, 7, 100)
    assert np.array_equal(a, b)


def test_streams_differ():
    base = rng.uniforms(42, 7, 64)
    assert not np.array_equal(base, rng.uniforms(42, 8, 64))
    assert not np.array_equal(base, rng.uniforms(43, 7, 64))


def test_uniforms_range_and_mean():
    u = rng.uniforms(0, 0, 20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_uniforms_match_raw_philox_words():
    # top 53 bits of each 64-bit word, scaled by 2**-53
    words = np.random.Philox(key=5 + (9 << 64)).random_raw(256)
    expected = (words >> 11) * 2.0**-53
    assert np.array_equal(rng.uniforms(5, 9, 256), expected)


def test_normals_match_documented_transform():
    n = 7  # odd, exercises truncation
    u = rng.uniforms(11, 3, 8)
    u1 = np.maximum(u[0::2], 2.0**-53)
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    oracle = np.concatenate([r * np.cos(2 * math.pi * u2), r * np.sin(2 * math.pi * u2)])[:n]
    assert np.array_equal(rng.normals(11, 3, n), oracle)


def test_normals_shape_and_moments():
    z = rng.normals(1, 2, (50, 40, 10))
    assert z.shape == (50, 40, 10)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normals_reshape_is_c_order():
    flat = rng.normals(3, 4, 24)
    assert np.array_equal(rng.normals(3, 4, (4, 6)), flat.reshape(4, 6))


def test_uniform_array_bounds():
    x = rng.uniform_array(9, 1, (1000,), -0.25, 0.25)
    assert np.all(x >= -0.25) and np.all(x < 0.25)


@pytest.mark.parametrize("seed,stream_id", [(-1, 0), (2**64, 0), (0, -3), (0, 2**64)])
def test_stream_rejects_out_of_range(seed, stream_id):
    with pytest.raises(ValueError):
        rng.stream(seed, stream_id)
