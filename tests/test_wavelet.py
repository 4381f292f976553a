"""Haar transform exactness and the subband alignment identity.

Bit-equality claims are tested on dyadic inputs (integer multiples of 1/16
with dyadic etas and small-integer channel maps), where float64 arithmetic
is exact and the equal-and-opposite structure of the correction is visible
without rounding noise.  Arbitrary real inputs get tolerance versions.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffdecomp.core import ConfigError
from diffdecomp.wavelet import (
    AlignParams,
    Subbands,
    align_subbands,
    dwt2_haar,
    idwt2_haar,
    suppress_pair,
)


def dyadic(rng, shape, denom=16.0, span=64):
    return rng.integers(-span, span + 1, size=shape).astype(np.float64) / denom


# ---------------------------------------------------------------- transform


def test_constant_field():
    sb = dwt2_haar(np.full((3, 8, 8), 2.5))
    assert np.array_equal(sb.a, np.full((3, 4, 4), 5.0))
    for band in (sb.h, sb.v, sb.d):
        assert np.array_equal(band, np.zeros((3, 4, 4)))


def test_vertical_stripes_hit_only_v():
    x = np.zeros((1, 4, 6))
    x[:, :, 0::2] = 1.0
    x[:, :, 1::2] = -1.0
    sb = dwt2_haar(x)
    assert np.array_equal(sb.v, np.full((1, 2, 3), 2.0))
    for band in (sb.a, sb.h, sb.d):
        assert np.array_equal(band, np.zeros((1, 2, 3)))


def test_horizontal_stripes_hit_only_h():
    x = np.zeros((1, 6, 4))
    x[:, 0::2, :] = 1.0
    x[:, 1::2, :] = -1.0
    sb = dwt2_haar(x)
    assert np.array_equal(sb.h, np.full((1, 3, 2), 2.0))
    for band in (sb.a, sb.v, sb.d):
        assert np.array_equal(band, np.zeros((1, 3, 2)))


def test_round_trip_and_parseval(rng):
    x = rng.normal(size=(3, 16, 16))
    sb = dwt2_haar(x)
    assert np.max(np.abs(idwt2_haar(sb) - x)) < 1e-12
    assert sb.energy() == pytest.approx(float(np.sum(x * x)), rel=1e-12)


def test_one_hot_diagonal_subband():
    zeros = np.zeros((1, 2, 2))
    d = zeros.copy()
    d[0, 1, 0] = 1.0
    x = idwt2_haar(Subbands(a=zeros.copy(), h=zeros.copy(), v=zeros.copy(), d=d))
    block = x[0, 2:4, 0:2]
    assert np.array_equal(block, [[0.5, -0.5], [-0.5, 0.5]])
    back = dwt2_haar(x)
    assert np.array_equal(back.d, d)
    assert np.array_equal(back.a, zeros)


def test_rejects_odd_dimensions():
    with pytest.raises(ConfigError):
        dwt2_haar(np.zeros((1, 5, 4)))
    with pytest.raises(ConfigError):
        dwt2_haar(np.zeros((1, 4, 7)))


def test_idwt_rejects_mismatched_subbands():
    a = np.zeros((1, 2, 2))
    with pytest.raises(ConfigError):
        idwt2_haar(Subbands(a=a, h=a, v=a, d=np.zeros((1, 2, 3))))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_property(seed):
    g = np.random.default_rng(seed)
    ch = int(g.integers(1, 5))
    hh = 2 * int(g.integers(1, 9))
    ww = 2 * int(g.integers(1, 9))
    x = g.normal(size=(ch, hh, ww))
    sb = dwt2_haar(x)
    assert np.max(np.abs(idwt2_haar(sb) - x)) < 1e-12
    assert abs(sb.energy() - np.sum(x * x)) <= 1e-12 * max(np.sum(x * x), 1.0)


# ---------------------------------------------------------------- alignment


def test_align_equal_inputs_is_identity(rng):
    x = rng.normal(size=(2, 4, 4))
    sb = dwt2_haar(x)
    p = AlignParams.identity(2, eta_a=0.7, eta_detail=0.3)
    a1, a2 = align_subbands(sb, sb, p)
    for name in "ahvd":
        assert np.array_equal(getattr(a1, name), getattr(sb, name))
        assert np.array_equal(getattr(a2, name), getattr(sb, name))


def test_align_zero_eta_is_identity(rng):
    s1 = dwt2_haar(rng.normal(size=(2, 8, 8)))
    s2 = dwt2_haar(rng.normal(size=(2, 8, 8)))
    p = AlignParams.identity(2, eta_a=0.0, eta_detail=0.0)
    a1, a2 = align_subbands(s1, s2, p)
    for name in "ahvd":
        assert np.array_equal(getattr(a1, name), getattr(s1, name))
        assert np.array_equal(getattr(a2, name), getattr(s2, name))


def test_align_eta_one_swaps(rng):
    s1 = dwt2_haar(rng.normal(size=(3, 8, 8)))
    s2 = dwt2_haar(rng.normal(size=(3, 8, 8)))
    p = AlignParams.identity(3, eta_a=1.0, eta_detail=1.0)
    a1, a2 = align_subbands(s1, s2, p)
    for name in "ahvd":
        assert np.allclose(getattr(a1, name), getattr(s2, name), atol=1e-14)
        assert np.allclose(getattr(a2, name), getattr(s1, name), atol=1e-14)


def test_align_eta_half_equalises(rng):
    s1 = dwt2_haar(rng.normal(size=(3, 8, 8)))
    s2 = dwt2_haar(rng.normal(size=(3, 8, 8)))
    p = AlignParams.identity(3, eta_a=0.5, eta_detail=0.5)
    a1, a2 = align_subbands(s1, s2, p)
    for name in "ahvd":
        assert np.max(np.abs(getattr(a1, name) - getattr(a2, name))) < 1e-14


def test_align_sum_invariance_bit_exact_dyadic(rng):
    # dyadic data, dyadic etas, small-integer maps: all arithmetic exact
    etas = [0.0, 0.25, 0.5, 0.75, 1.0]
    for trial in range(20):
        s1 = Subbands(*(dyadic(rng, (3, 4, 4)) for _ in range(4)))
        s2 = Subbands(*(dyadic(rng, (3, 4, 4)) for _ in range(4)))
        psi = rng.integers(-4, 5, size=(3, 3)).astype(np.float64) / 4.0
        e = etas[trial % len(etas)]
        p = AlignParams(
            eta_a=e, eta_h=etas[(trial + 1) % 5], eta_v=etas[(trial + 2) % 5], eta_d=e,
            psi_a=psi, psi_h=psi.T.copy(), psi_v=np.eye(3), psi_d=psi,
        )
        a1, a2 = align_subbands(s1, s2, p)
        for name in "ahvd":
            lhs = getattr(a1, name) + getattr(a2, name)
            rhs = getattr(s1, name) + getattr(s2, name)
            assert np.array_equal(lhs, rhs), f"band {name}, trial {trial}"


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_align_sum_invariance_property(seed):
    g = np.random.default_rng(seed)
    s1 = Subbands(*(g.normal(size=(2, 4, 4)) for _ in range(4)))
    s2 = Subbands(*(g.normal(size=(2, 4, 4)) for _ in range(4)))
    p = AlignParams(
        eta_a=float(g.uniform(0, 1)),
        eta_h=float(g.uniform(0, 1)),
        eta_v=float(g.uniform(0, 1)),
        eta_d=float(g.uniform(0, 1)),
        psi_a=g.normal(size=(2, 2)),
        psi_h=g.normal(size=(2, 2)),
        psi_v=g.normal(size=(2, 2)),
        psi_d=g.normal(size=(2, 2)),
    )
    a1, a2 = align_subbands(s1, s2, p)
    for name in "ahvd":
        lhs = getattr(a1, name) + getattr(a2, name)
        rhs = getattr(s1, name) + getattr(s2, name)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1.0 + np.max(np.abs(rhs)))


def test_align_rejects_shape_mismatch():
    s1 = Subbands(*(np.zeros((1, 2, 2)) for _ in range(4)))
    s2 = Subbands(*(np.zeros((1, 2, 3)) for _ in range(4)))
    with pytest.raises(ConfigError):
        align_subbands(s1, s2, AlignParams.identity(1))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 3)])
def test_align_rejects_bad_channel_map(shape):
    s = Subbands(*(np.ones((2, 2, 2)) for _ in range(4)))
    p = AlignParams.identity(2)
    p.psi_h = np.ones(shape)
    with pytest.raises(ConfigError):
        align_subbands(s, s, p)


# ------------------------------------------------------------ paired fields


def test_suppress_pair_zero_eta_identity(rng):
    x1 = rng.normal(size=(2, 8, 8))
    x2 = rng.normal(size=(2, 8, 8))
    p = AlignParams.identity(2, eta_a=0.0, eta_detail=0.0)
    y1, y2 = suppress_pair(x1, x2, p)
    assert np.max(np.abs(y1 - x1)) < 1e-12
    assert np.max(np.abs(y2 - x2)) < 1e-12


def test_suppress_pair_equal_inputs_identity(rng):
    x = rng.normal(size=(2, 8, 8))
    y1, y2 = suppress_pair(x, x, AlignParams.identity(2))
    assert np.max(np.abs(y1 - x)) < 1e-12
    assert np.max(np.abs(y2 - x)) < 1e-12


def test_suppress_pair_removes_constant_offset(rng):
    # equalising strength on the average band; details untouched
    x1 = rng.normal(size=(3, 16, 16))
    x2 = x1 + 0.7
    p = AlignParams.identity(3, eta_a=0.5, eta_detail=0.0)
    y1, y2 = suppress_pair(x1, x2, p)
    d1 = dwt2_haar(y2 - y1)
    assert np.max(np.abs(d1.a)) < 1e-12
    s1, s2 = dwt2_haar(x1), dwt2_haar(x2)
    b1, b2 = dwt2_haar(y1), dwt2_haar(y2)
    for name in "hvd":
        assert np.allclose(getattr(b1, name), getattr(s1, name), atol=1e-12)
        assert np.allclose(getattr(b2, name), getattr(s2, name), atol=1e-12)
