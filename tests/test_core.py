"""Tensor helpers, patch partitioning, and the batched singular-value kernel.

The SVD tests compare against an independent oracle: square roots of the
eigenvalues of the Gram matrix from numpy's symmetric solver.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from diffdecomp.core import (
    ConfigError,
    as_field,
    frobenius_norm,
    patch_plane,
    patch_tiles,
    sigmoid,
    singular_values,
    singular_values_batch,
)


def gram_oracle(m):
    """Descending singular values via the symmetric-eigenvalue route."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] <= m.shape[1]:
        gram = m @ m.T
    else:
        gram = m.T @ m
    eig = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eig, 0.0, None))[::-1]


# ------------------------------------------------------------------- fields


def test_frobenius_zero_field():
    assert frobenius_norm(np.zeros((4, 8, 8))) == 0.0


def test_frobenius_single_entry():
    x = np.zeros((2, 4, 4))
    x[1, 2, 3] = 3.0
    assert frobenius_norm(x) == 3.0


def test_frobenius_all_ones():
    assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))


def test_as_field_rejects_nan():
    x = np.zeros((1, 2, 2))
    x[0, 0, 0] = np.nan
    with pytest.raises(ConfigError):
        as_field(x, "test")


def test_sigmoid_extremes_are_finite():
    v = sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
    assert np.all(np.isfinite(v))
    assert v[2] == 0.5
    assert v[0] >= 0.0 and v[-1] <= 1.0


def test_sigmoid_equals_oracle(rng):
    special = np.array([-1e4, 1e4, -50.0, 50.0, -0.0, 0.0])
    for z in (special, rng.normal(0.0, 20.0, 1000), rng.normal(0.0, 3.0, (3, 7, 5))):
        assert np.array_equal(sigmoid(z), oracles.stable_sigmoid(z))


def test_sigmoid_zero_dim_returns_float():
    for z in (0.0, -0.0, 2.5, np.float64(-7.0), np.array(1e4)):
        v = sigmoid(z)
        assert type(v) is float
        assert v == float(oracles.stable_sigmoid(np.array([z]))[0])


# ------------------------------------------------------------------ patches


def raster_slices(index, cols, side):
    """(row slice, column slice) of raster patch ``index`` on a grid ``cols`` patches wide."""
    r, c = divmod(index, cols)
    return slice(r * side, (r + 1) * side), slice(c * side, (c + 1) * side)


def test_patch_layout_rejects_non_divisible():
    with pytest.raises(ConfigError, match="does not tile a 12x16 grid"):
        patch_tiles(np.zeros((1, 12, 16)), 8)
    with pytest.raises(ConfigError, match="does not tile a 12x16 grid"):
        patch_plane(np.zeros(2), 12, 16, 8)


@pytest.mark.parametrize("height, width, side, message", [
    (0, 8, 4, "grid 0x8 is empty"),
    (8, 8, 0, "patch_side must be positive"),
], ids=["empty-grid", "zero-side"])
def test_patch_grid_rejects_empty_grid_and_side(height, width, side, message):
    with pytest.raises(ConfigError, match=message):
        patch_tiles(np.zeros((1, height, width)), side)
    with pytest.raises(ConfigError, match=message):
        patch_plane(np.zeros(1), height, width, side)


def test_patch_layout_grid():
    tiles = patch_tiles(np.zeros((3, 32, 16)), 8)
    assert tiles.shape == (8, 3, 64)
    assert patch_plane(np.arange(8.0), 32, 16, 8)[::8, ::8].tolist() == [
        [0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]
    ]


def test_patch_matrix_constant_field():
    x = np.full((1, 2, 2), 7.0)
    assert np.array_equal(patch_tiles(x, 2), [[[7.0, 7.0, 7.0, 7.0]]])


def test_patch_matrix_single_patch_is_flatten():
    x = np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4)
    assert np.array_equal(patch_tiles(x, 4), x.reshape(1, 2, 16))


def test_patch_matrix_against_loop_oracle(rng):
    # independent nested-loop copy, raster order row-major within the patch
    x = rng.normal(size=(8, 16, 16))
    index = 3
    r0, c0 = (index // 2) * 8, (index % 2) * 8
    oracle = np.empty((8, 64))
    for ch in range(8):
        col = 0
        for i in range(8):
            for j in range(8):
                oracle[ch, col] = x[ch, r0 + i, c0 + j]
                col += 1
    assert np.array_equal(patch_tiles(x, 8)[index], oracle)


def test_patch_bijection_reassembles_bit_exactly(rng):
    x = rng.normal(size=(3, 16, 24))
    tiles = patch_tiles(x, 8)
    rebuilt = np.empty_like(x)
    for idx in range(len(tiles)):
        rs, cs = raster_slices(idx, 3, 8)
        rebuilt[:, rs, cs] = tiles[idx].reshape(3, 8, 8)
    assert np.array_equal(rebuilt, x)


@pytest.mark.parametrize("height, width, side", [(16, 24, 8), (6, 4, 1), (12, 12, 12), (8, 20, 4)])
def test_patch_plane_round_trips_through_tiles(rng, height, width, side):
    values = rng.normal(size=(height // side) * (width // side))
    plane = patch_plane(values, height, width, side)
    assert plane.shape == (height, width)
    tiles = patch_tiles(plane[None, :, :], side)
    # every patch holds its own value on every pixel, in raster order
    assert np.array_equal(tiles, np.broadcast_to(values[:, None, None], tiles.shape))
    for idx, value in enumerate(values):
        rs, cs = raster_slices(idx, width // side, side)
        assert np.all(plane[rs, cs] == value)


# --------------------------------------------------------------------- SVD


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])


def test_singular_values_all_ones():
    sv = singular_values(np.ones((2, 2)))
    assert np.allclose(sv, [2.0, 0.0], atol=1e-12)


def test_singular_values_zero_matrix():
    assert np.array_equal(singular_values(np.zeros((3, 10))), np.zeros(3))


def test_singular_values_wide_matrix_oracle(rng):
    m = rng.normal(size=(8, 64))
    sv = singular_values(m)
    ref = gram_oracle(m)
    assert np.max(np.abs(sv - ref)) / ref[0] < 1e-9


def test_singular_values_tall_matrix_oracle(rng):
    m = rng.normal(size=(64, 5))
    sv = singular_values(m)
    ref = gram_oracle(m)
    assert sv.shape == (5,)
    assert np.max(np.abs(sv - ref)) / ref[0] < 1e-9


def test_singular_values_descending(rng):
    for _ in range(5):
        sv = singular_values(rng.normal(size=(6, 20)))
        assert np.all(np.diff(sv) <= 0)
        assert np.all(sv >= 0)


def test_singular_values_frobenius_identity(rng):
    m = rng.normal(size=(7, 30))
    sv = singular_values(m)
    assert np.sum(sv**2) == pytest.approx(np.sum(m * m), rel=1e-9)


def test_singular_values_row_permutation_invariant(rng):
    m = rng.normal(size=(6, 40))
    perm = rng.permutation(6)
    a = singular_values(m)
    b = singular_values(m[perm])
    assert np.max(np.abs(a - b)) < 1e-9 * max(a[0], 1.0)


def test_singular_values_batch_matches_single(rng):
    mats = rng.normal(size=(9, 4, 16))
    batch = singular_values_batch(mats)
    for i in range(9):
        assert np.array_equal(batch[i], singular_values(mats[i]))


def test_singular_values_rank_one(rng):
    u = rng.normal(size=4)
    v = rng.normal(size=25)
    m = np.outer(u, v)
    sv = singular_values(m)
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert sv[0] == pytest.approx(expected, rel=1e-12)
    assert np.all(sv[1:] < 1e-10 * expected)


def test_singular_values_rejects_non_finite():
    m = np.zeros((2, 4))
    m[0, 0] = np.inf
    with pytest.raises(ConfigError):
        singular_values(m)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_singular_values_oracle_property(d, length, seed):
    m = np.random.default_rng(seed).normal(size=(d, length))
    sv = singular_values(m)
    ref = gram_oracle(m)
    scale = max(ref[0], 1e-12)
    assert np.max(np.abs(sv - ref)) / scale < 1e-9
    assert np.sum(sv**2) == pytest.approx(np.sum(m * m), rel=1e-9, abs=1e-12)
