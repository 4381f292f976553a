"""Objective terms against hand computations and the staged-regularizer split."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffdecomp.core import ConfigError
from diffdecomp.objective import (
    DICE_SMOOTH,
    StageConfig,
    band_loss,
    bce_dice_loss,
    exploration_loss,
    f1_score,
    nuisance_mean,
    reconstruction_loss,
    separation,
    staged_loss,
    total_loss,
)


class FakeState:
    def __init__(self, c, n):
        self.c = np.asarray(c, dtype=np.float64)
        self.n = np.asarray(n, dtype=np.float64)


# ------------------------------------------------------------------ separation


def test_separation_reference_values():
    assert abs(separation([1.0, 0.0], [0.0, 1.0]) - 1.0) < 1e-9    # orthogonal
    assert abs(separation([1.0, 2.0], [2.0, 4.0]) - 0.0) < 1e-8    # aligned
    assert abs(separation([1.0, 0.0], [-1.0, 0.0]) - 2.0) < 1e-8   # opposed
    want = 1.0 - 1.0 / (math.sqrt(2.0) + 1e-8)
    assert abs(separation([1.0, 0.0], [1.0, 1.0]) - want) < 1e-15


def test_separation_zero_field_scores_one():
    assert separation(np.zeros(4), [1.0, 2.0, 3.0, 4.0]) == 1.0


def test_separation_of_fields_too_large_to_square(rng):
    c = rng.normal(0.0, 1.0, 32)
    n = rng.normal(0.0, 1.0, 32)
    want = 1.0 - float(np.dot(c, n)) / (np.linalg.norm(c) * np.linalg.norm(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1e305):
            assert abs(separation(scale * c, scale * n) - want) < 1e-7
        assert abs(separation(1e305 * c, np.zeros(32)) - 1.0) < 1e-12


def test_separation_shape_mismatch():
    with pytest.raises(ConfigError):
        separation(np.zeros(3), np.zeros(4))


def test_nuisance_mean_hand():
    assert nuisance_mean([[-1.0, 3.0]]) == 2.0
    assert nuisance_mean(np.zeros((2, 3))) == 0.0


# ------------------------------------------------------------------ hinges


def test_exploration_hinge():
    assert exploration_loss([0.1, 0.5], 0.3) == pytest.approx(0.2, abs=1e-15)
    assert exploration_loss([], 0.3) == 0.0
    assert exploration_loss([0.31], 0.3) == 0.0


def test_band_hinge():
    got = band_loss([0.5, 0.02, 0.2], 0.05, 0.4)
    assert got == pytest.approx(0.1 + 0.03, abs=1e-15)
    assert band_loss([], 0.05, 0.4) == 0.0
    with pytest.raises(ConfigError):
        band_loss([0.1], 0.4, 0.05)


def test_hinges_propagate_nan():
    assert math.isnan(exploration_loss([float("nan")], 0.5))
    assert math.isnan(exploration_loss([0.1, float("nan")], 0.5))
    assert math.isnan(band_loss([float("nan")], 0.05, 0.4))
    assert math.isnan(band_loss([0.2, float("nan")], 0.05, 0.4))


@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_hinges_non_negative(value, margin):
    assert exploration_loss([value], margin) >= 0.0
    assert band_loss([value], 0.05, 0.4) >= 0.0


# ------------------------------------------------------------------ stage config


def test_stage_split_for_steps():
    cfg3 = StageConfig.for_steps(3)
    assert cfg3.early == (1, 2) and cfg3.late == (3,)
    cfg4 = StageConfig.for_steps(4)
    assert cfg4.early == (1, 2) and cfg4.late == (3, 4)
    cfg1 = StageConfig.for_steps(1)
    assert cfg1.early == (1,) and cfg1.late == ()
    cfg0 = StageConfig.for_steps(0)
    assert cfg0.early == () and cfg0.late == ()
    cfg2 = StageConfig.for_steps(2, margin=0.7)
    assert cfg2.early == (1,) and cfg2.late == (2,) and cfg2.margin == 0.7


def test_stage_validation():
    with pytest.raises(ConfigError):
        StageConfig(early=(1,), late=(4,)).validate(3)
    with pytest.raises(ConfigError):
        StageConfig(band_lo=0.5, band_hi=0.1).validate(3)
    with pytest.raises(ConfigError):
        StageConfig.for_steps(-1)


def test_staged_loss_hand_case():
    states = [
        FakeState(np.zeros((1, 1, 1)), np.zeros((1, 1, 1))),
        FakeState(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), 2.0)),  # aligned: d ~ 0
        FakeState(np.zeros((1, 1, 1)), np.full((1, 1, 1), 0.5)),      # mu = 0.5
    ]
    cfg = StageConfig(margin=0.3, band_lo=0.05, band_hi=0.4,
                      weight_margin=0.5, weight_band=1.0, early=(1,), late=(2,))
    exp, con, ssec = staged_loss(states, cfg)
    assert exp == pytest.approx(0.3, abs=1e-8)
    assert con == pytest.approx(0.1, abs=1e-15)
    assert ssec == pytest.approx(0.5 * exp + 1.0 * con, abs=1e-15)


# ------------------------------------------------------------------ seg + rec


def test_bce_dice_hand_case():
    probs = np.array([[0.8, 0.2], [0.6, 0.4]])
    labels = np.array([[1.0, 0.0], [1.0, 0.0]])
    bce = -(math.log(0.8) + math.log(0.8) + math.log(0.6) + math.log(0.6)) / 4.0
    dice = 1.0 - (2.0 * 1.4 + DICE_SMOOTH) / (2.0 + 2.0 + DICE_SMOOTH)
    got = bce_dice_loss(probs, labels)
    assert got == pytest.approx(bce + dice, abs=1e-12)
    assert got == pytest.approx(0.606985, abs=1e-6)


def test_bce_dice_empty_mask_near_zero_cost():
    assert bce_dice_loss(np.zeros((4, 4)), np.zeros((4, 4))) < 1e-6


def test_bce_dice_perfect_prediction():
    y = np.zeros((4, 4))
    y[:2, :] = 1.0
    assert bce_dice_loss(y, y) < 1e-6


def test_bce_dice_validation():
    with pytest.raises(ConfigError):
        bce_dice_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        bce_dice_loss(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


def test_reconstruction_l1_hand():
    d = np.array([[[1.0, 2.0]]])
    c = np.array([[[0.5, 0.0]]])
    n = np.array([[[0.0, 1.0]]])
    assert reconstruction_loss(d, c, n) == pytest.approx(1.5, abs=1e-15)
    assert reconstruction_loss(d, d, np.zeros_like(d)) == 0.0


# ------------------------------------------------------------------ assembly


def test_total_loss_composition(rng):
    d = rng.normal(0.0, 1.0, (2, 4, 4))
    states = [
        FakeState(np.zeros_like(d), d),
        FakeState(rng.normal(0.0, 1.0, d.shape), rng.normal(0.0, 1.0, d.shape)),
        FakeState(rng.normal(0.0, 1.0, d.shape), rng.normal(0.0, 1.0, d.shape)),
    ]
    probs = rng.uniform(0.1, 0.9, (4, 4))
    labels = (rng.uniform(0.0, 1.0, (4, 4)) > 0.5).astype(np.float64)
    cfg = StageConfig.for_steps(2)
    lam = 0.25
    report = total_loss(d, labels, states, probs, cfg, lam_rec=lam)
    assert report.total == report.seg + lam * report.rec + report.ssec
    assert report.seg == bce_dice_loss(probs, labels, cfg.epsilon)
    assert report.rec == reconstruction_loss(d, states[-1].c, states[-1].n)
    exp, con, ssec = staged_loss(states, cfg)
    assert report.exp == exp and report.con == con and report.ssec == ssec


# ------------------------------------------------------------------ f1


def test_f1_reference_cases():
    assert f1_score(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0
    y = np.zeros((2, 3))
    y[0, :2] = 1.0
    assert f1_score(y, y) == 1.0
    pred = np.zeros((2, 3))
    pred[0, :2] = 1.0  # tp = 2
    pred[1, 0] = 1.0   # fp = 1
    truth = np.zeros((2, 3))
    truth[0, :2] = 1.0
    truth[1, 2] = 1.0  # fn = 1
    assert f1_score(pred, truth) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # probabilities are thresholded at 0.5
    assert f1_score(np.full((2, 2), 0.4), np.zeros((2, 2))) == 1.0
