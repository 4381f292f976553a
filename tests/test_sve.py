"""Entropy of normalised singular spectra and the residual gate.

Hand values: -(0.75 ln 0.75 + 0.25 ln 0.25) = 0.56233514, and
sigmoid(ln 4) = 4/5 exactly, so a zero residual with the default
reduced-channel count gates to 0.8 (up to the epsilon inside the log).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffdecomp.core import ConfigError, channel_map, patch_tiles, sigmoid, singular_values
from diffdecomp.sve import (
    gate_map,
    group_means,
    init_gate_params,
    normalized_spectrum,
    patch_entropies,
    patch_entropy,
    sve_map,
)


def test_normalized_spectrum_basic():
    assert np.array_equal(normalized_spectrum([3.0, 1.0]), [0.75, 0.25])
    assert np.array_equal(normalized_spectrum([5.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_normalized_spectrum_degenerate_uniform():
    assert np.array_equal(normalized_spectrum([0.0, 0.0]), [0.5, 0.5])
    # below-epsilon mass also counts as degenerate
    assert np.array_equal(normalized_spectrum([1e-9, 0.0]), [0.5, 0.5])


def test_normalized_spectrum_rejects_negative():
    with pytest.raises(ConfigError):
        normalized_spectrum([1.0, -0.1])


def test_patch_entropy_one_hot():
    assert abs(patch_entropy([1.0, 0.0])) < 2e-8


def test_patch_entropy_uniform_log4():
    value = patch_entropy([0.25, 0.25, 0.25, 0.25])
    assert value == pytest.approx(math.log(4.0), abs=1e-6)


def test_patch_entropy_hand_value():
    assert patch_entropy([0.75, 0.25]) == pytest.approx(0.562335, abs=1e-6)
    direct = -(0.75 * math.log(0.75 + 1e-8) + 0.25 * math.log(0.25 + 1e-8))
    assert patch_entropy([0.75, 0.25]) == direct


def test_patch_entropies_match_scalar_path(rng):
    x = rng.normal(size=(3, 16, 16))
    ent = patch_entropies(x, 8)
    for j, tile in enumerate(patch_tiles(x, 8)):
        sv = singular_values(tile)
        expected = patch_entropy(normalized_spectrum(sv))
        assert ent[j] == pytest.approx(expected, abs=1e-12)


def test_group_means():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert group_means(values, ((0, 1), (), [3])) == (1.5, None, 4.0)
    assert group_means(values, ()) == ()


def test_sve_map_rank_one_patches(rng):
    # every patch constant per channel -> rank-1 -> entropy ~ 0
    vals = rng.normal(size=(2, 2, 2))
    x = np.kron(vals, np.ones((1, 4, 4))) + 1.0
    s = sve_map(x, 4)
    assert np.max(np.abs(s)) < 1e-7


def test_sve_map_noise_patch_stands_out(rng):
    x = np.ones((2, 16, 16))
    noise = rng.normal(size=(2, 8, 8))
    x[:, 8:, 8:] = noise
    s = sve_map(x, 8)
    noisy_value = s[12, 12]
    others = [s[4, 4], s[4, 12], s[12, 4]]
    assert all(noisy_value > o for o in others)


def test_sve_map_single_patch_constant():
    g = np.random.default_rng(5)
    x = g.normal(size=(4, 8, 8))
    s = sve_map(x, 8)
    assert s.shape == (8, 8)
    assert np.all(s == s[0, 0])
    assert s[0, 0] == pytest.approx(patch_entropies(x, 8)[0])


def test_sve_map_piecewise_constant(rng):
    x = rng.normal(size=(3, 16, 24))
    s = sve_map(x, 8)
    for bi in range(2):
        for bj in range(3):
            block = s[8 * bi : 8 * bi + 8, 8 * bj : 8 * bj + 8]
            assert np.all(block == block[0, 0])


def test_sve_map_pixel_permutation_invariant(rng):
    # shuffling pixels inside each patch leaves the spectrum unchanged
    x = rng.normal(size=(3, 8, 8))
    flat = x.reshape(3, 64)
    perm = rng.permutation(64)
    shuffled = flat[:, perm].reshape(3, 8, 8)
    a = sve_map(x, 8)
    b = sve_map(shuffled, 8)
    assert np.max(np.abs(a - b)) < 1e-9


def test_sve_map_scale_invariance_dyadic_exact(rng):
    x = rng.normal(size=(3, 16, 16))
    base = sve_map(x, 8)
    for factor in (0.0009765625, 0.125, 0.5, 2.0, 8.0, 1024.0):
        assert np.array_equal(sve_map(factor * x, 8), base), factor


def test_sve_map_scale_invariance_general(rng):
    x = rng.normal(size=(3, 16, 16))
    base = sve_map(x, 8)
    for factor in (3.0, 0.7, 17.3, 1e6):
        assert np.max(np.abs(sve_map(factor * x, 8) - base)) < 1e-9


def test_sve_map_rejects_bad_patch():
    with pytest.raises(ConfigError):
        sve_map(np.zeros((1, 12, 12)), 8)


def test_non_finite_fields_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((2, 8, 8))
        x[1, 5, 6] = bad
        with pytest.raises(ConfigError):
            patch_entropies(x, 4)
        with pytest.raises(ConfigError):
            sve_map(x, 4)
        with pytest.raises(ConfigError):
            gate_map(x, init_gate_params(2, 2, patch_side=4))


# --------------------------------------------------------------------- gate


def test_gate_zero_residual_is_point_eight():
    params = init_gate_params(channels=4, reduced_channels=4, patch_side=8)
    g = gate_map(np.zeros((4, 16, 16)), params)
    # uniform degenerate spectrum of length 4 -> sigmoid(ln 4) = 0.8
    assert np.max(np.abs(g - 0.8)) < 1e-6
    assert np.all(g == g[0, 0])


def test_gate_constant_mapper():
    params = init_gate_params(channels=3, reduced_channels=2, patch_side=4)
    params.scale = 0.0
    params.shift = 0.0
    g = gate_map(np.random.default_rng(1).normal(size=(3, 8, 8)), params)
    assert np.array_equal(g, np.full((8, 8), 0.5))


def test_gate_saturation():
    params = init_gate_params(channels=3, reduced_channels=2, patch_side=4)
    params.scale = 0.0
    params.shift = 20.0
    g = gate_map(np.random.default_rng(1).normal(size=(3, 8, 8)), params)
    assert np.all(g > 0.999999)
    assert np.all(g < 1.0)


def test_gate_strictly_inside_unit_interval(rng):
    params = init_gate_params(channels=4, reduced_channels=3, patch_side=8)
    for scale, shift in [(1.0, 0.0), (-5.0, 2.0), (30.0, -10.0)]:
        params.scale, params.shift = scale, shift
        g = gate_map(rng.normal(size=(4, 16, 16)) * 100.0, params)
        assert np.all(g > 0.0) and np.all(g < 1.0)


def test_gate_reducer_shape_checked():
    params = init_gate_params(channels=4, reduced_channels=2)
    with pytest.raises(ConfigError):
        gate_map(np.zeros((3, 8, 8)), params)


def test_gate_equals_public_composition(rng):
    # (channels, reduced channels, patch side, residual shape, residual scale):
    # the last three are an all-zero residual, patch side 1, and one patch
    # that covers the whole grid
    cases = [
        (1, 1, 4, (1, 16, 12), 1.0),
        (4, 4, 4, (4, 16, 12), 1.0),
        (8, 4, 4, (8, 16, 12), 1.0),
        (4, 2, 4, (4, 16, 12), 0.0),
        (3, 2, 1, (3, 5, 7), 1.0),
        (4, 4, 12, (4, 12, 12), 1.0),
    ]
    for channels, reduced, side, shape, scale in cases:
        params = init_gate_params(channels, reduced, patch_side=side, seed=channels)
        params.scale, params.shift = 1.7, -0.3
        residual = scale * rng.normal(0.0, 1.0, shape)
        reduced_field = channel_map(params.reducer, np.abs(residual))
        want = sigmoid(params.scale * sve_map(reduced_field, side, params.epsilon) + params.shift)
        assert np.array_equal(gate_map(residual, params), want)


def test_init_gate_params_seeded_and_bounded():
    a = init_gate_params(4, 4, seed=9)
    b = init_gate_params(4, 4, seed=9)
    c = init_gate_params(4, 4, seed=10)
    assert np.array_equal(a.reducer, b.reducer)
    assert not np.array_equal(a.reducer, c.reducer)
    assert np.all(np.abs(a.reducer) <= 0.5)
    assert a.scale == 1.0 and a.shift == 0.0
    with pytest.raises(ConfigError):
        init_gate_params(2, 3)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_entropy_bounds_property(seed):
    g = np.random.default_rng(seed)
    x = g.normal(size=(3, 8, 8)) * float(g.uniform(0.1, 10.0))
    ent = patch_entropies(x, 4)
    assert np.all(ent >= -2e-8)
    assert np.all(ent <= math.log(3) + 1e-9)
