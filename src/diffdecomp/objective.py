"""Training objective: segmentation, reconstruction, and the staged regularizer.

The staged regularizer splits the unrolled steps into an early exploration
stage (keep change and nuisance angularly separated by a margin) and a late
constraint stage (keep the mean absolute nuisance inside a band), so the
decomposition can move freely at first but cannot collapse (N -> 0) or swap
components (N absorbing everything) at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, as_plane

__all__ = [
    "StageConfig",
    "LossReport",
    "DICE_SMOOTH",
    "separation",
    "nuisance_mean",
    "exploration_loss",
    "band_loss",
    "staged_loss",
    "bce_dice_loss",
    "reconstruction_loss",
    "total_loss",
    "f1_score",
]

# Smoothing constant added to the soft-Dice numerator and denominator.
DICE_SMOOTH = 1.0


@dataclass(frozen=True)
class StageConfig:
    """Staged-regularizer settings; the run's depth K sets the stages (see :func:`staged_loss`)."""

    margin: float = 0.3
    band_lo: float = 0.05
    band_hi: float = 0.40
    weight_margin: float = 0.5
    weight_band: float = 1.0
    epsilon: float = 1e-8


@dataclass(frozen=True)
class LossReport:
    """Loss components; ``total = seg + lam_rec * rec + ssec`` always holds."""

    seg: float
    rec: float
    exp: float
    con: float
    ssec: float
    total: float


def separation(c, n, epsilon: float = 1e-8) -> float:
    """1 - cosine similarity of the flattened fields (epsilon-guarded).

    0 for aligned fields, 1 for orthogonal, 2 for anti-aligned; any field
    paired with an all-zero field scores ~1.  Finite fields too large to
    square are first divided by their largest magnitude, and the guard then
    applies to the scaled fields.
    """
    cv = np.asarray(c, dtype=np.float64).ravel()
    nv = np.asarray(n, dtype=np.float64).ravel()
    if cv.shape != nv.shape:
        raise ConfigError(f"separation: sizes {cv.size} and {nv.size} differ")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = float(np.sqrt(np.sum(cv * cv)) * np.sqrt(np.sum(nv * nv)))
        dot = float(np.dot(cv, nv))
    if not math.isfinite(norms + dot) and np.all(np.isfinite(cv)) and np.all(np.isfinite(nv)):
        scale = max(float(np.max(np.abs(cv))), float(np.max(np.abs(nv))))
        return separation(cv / scale, nv / scale, epsilon)
    return float(1.0 - dot / (norms + epsilon))


def nuisance_mean(n) -> float:
    """Mean absolute entry of the nuisance field."""
    return float(np.mean(np.abs(np.asarray(n, dtype=np.float64))))


def exploration_loss(separations, margin: float) -> float:
    """Hinge sum(max(0, margin - d_k)) over the provided early-step values; NaN propagates."""
    return float(sum(np.maximum(0.0, float(margin) - float(d)) for d in separations))


def band_loss(mus, lo: float, hi: float) -> float:
    """Hinge sum(max(0, mu - hi) + max(0, lo - mu)) over late-step values; NaN propagates."""
    if lo > hi:
        raise ConfigError(f"band ({lo}, {hi}) is inverted")
    return float(sum(np.maximum(0.0, float(m) - hi) + np.maximum(0.0, lo - float(m)) for m in mus))


def staged_loss(states, config: StageConfig):
    """(exploration, constraint, weighted sum) of a run's per-step states.

    ``states[k]`` must expose ``.c`` and ``.n`` for k = 0..K (index = step).
    Early steps 1..ceil(K/2) pay the separation-margin hinge, late steps
    ceil(K/2)+1..K the nuisance-band hinge.
    """
    split = math.ceil((len(states) - 1) / 2)
    seps = [separation(s.c, s.n, config.epsilon) for s in states[1 : split + 1]]
    mus = [nuisance_mean(s.n) for s in states[split + 1 :]]
    exp = exploration_loss(seps, config.margin)
    con = band_loss(mus, config.band_lo, config.band_hi)
    return exp, con, float(config.weight_margin * exp + config.weight_band * con)


def bce_dice_loss(probs, labels, epsilon: float = 1e-8) -> float:
    """Mean binary cross-entropy plus soft Dice loss (equal weights).

    Probabilities are clamped to [epsilon, 1 - epsilon].  The Dice ratio is
    smoothed by ``DICE_SMOOTH`` in numerator and denominator, so an all-empty
    mask predicted near zero costs ~0.
    """
    p = as_plane(probs, "bce_dice_loss probs")
    y = as_plane(labels, "bce_dice_loss labels")
    if p.shape != y.shape:
        raise ConfigError(f"bce_dice_loss: shapes {p.shape} and {y.shape} differ")
    p = np.clip(p, epsilon, 1.0 - epsilon)
    bce = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    inter = float(np.sum(p * y))
    dice = 1.0 - (2.0 * inter + DICE_SMOOTH) / (float(np.sum(p) + np.sum(y)) + DICE_SMOOTH)
    return bce + float(dice)


def reconstruction_loss(dfield, c, n) -> float:
    """Plain L1 sum of the closure residual D - (C + N)."""
    d = np.asarray(dfield, dtype=np.float64)
    return float(np.sum(np.abs(d - (np.asarray(c) + np.asarray(n)))))


def total_loss(dfield, labels, states, probs, config: StageConfig, lam_rec: float = 1.0) -> LossReport:
    """Assemble the full objective for one instance.

    ``states`` is the solver's state list (index = step); ``probs`` the head
    probabilities for the final change estimate.  There is no auxiliary term
    (its weight is fixed to zero).  A term that overflows is inf or nan,
    without a warning; the fit rejects a non-finite total.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exp, con, ssec = staged_loss(states, config)
        seg = bce_dice_loss(probs, labels, config.epsilon)
        rec = reconstruction_loss(dfield, states[-1].c, states[-1].n)
        total = seg + float(lam_rec) * rec + ssec
    return LossReport(seg=seg, rec=rec, exp=exp, con=con, ssec=ssec, total=total)


def f1_score(predicted, labels) -> float:
    """F1 of a binary mask; both-empty counts as a perfect 1.0."""
    p = as_plane(predicted, "f1 predicted") > 0.5
    y = as_plane(labels, "f1 labels") > 0.5
    tp = float(np.sum(p & y))
    fp = float(np.sum(p & ~y))
    fn = float(np.sum(~p & y))
    if tp + fp + fn == 0.0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)
