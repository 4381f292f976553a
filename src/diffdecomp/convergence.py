"""Residual-contraction diagnostics for unrolled runs.

Scores are Frobenius residual norms normalised by the input-field norm.  The
0 -> 1 transition is a transient (the initial state closes the residual by
construction) and is excluded from every contraction statistic: score index 1
is the residual after the first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, frobenius_norm

__all__ = [
    "ContractionReport",
    "scores_from_residuals",
    "contraction_report",
    "consistency_distance",
]

# a score at or below this counts as zero in the contraction report
SCORE_EPS = 1e-12


@dataclass(frozen=True)
class ContractionReport:
    """Per-step contraction summary.

    ``scores`` are r_1..r_K; ``ratios[i]`` is r_{i+2}/r_{i+1} (None where the
    previous score is ~0); ``rho`` is the least-squares geometric fit
    exp(slope of ln r_k over k), absent when any score is ~0 or K < 2;
    ``decrease`` is 1 - r_K/r_1.
    """

    scores: tuple
    ratios: tuple
    rho: float | None
    decrease: float | None


def scores_from_residuals(res_norms, d_norm: float):
    """Normalised scores r_1..r_K from a trace's residual norms (index 0 = init)."""
    if d_norm <= 0.0:
        raise ConfigError("scores are undefined for a zero-norm input field")
    return tuple(float(r) / float(d_norm) for r in list(res_norms)[1:])


def contraction_report(scores) -> ContractionReport:
    """Summarise a score sequence r_1..r_K (see :class:`ContractionReport`)."""
    r = [float(s) for s in scores]
    if len(r) < 1:
        raise ConfigError("contraction_report needs at least one score")
    if not all(np.isfinite(r)):
        raise ConfigError("scores must be finite")
    if any(s < 0.0 for s in r):
        raise ConfigError("scores must be non-negative")
    ratios = tuple(
        (r[i] / r[i - 1]) if r[i - 1] > SCORE_EPS else None for i in range(1, len(r))
    )
    rho = None
    if len(r) >= 2 and all(s > SCORE_EPS for s in r):
        k = np.arange(1, len(r) + 1, dtype=np.float64)
        logs = np.log(np.asarray(r))
        slope = float(np.polyfit(k, logs, 1)[0])
        rho = float(np.exp(slope))
    decrease = (1.0 - r[-1] / r[0]) if r[0] > SCORE_EPS else None
    return ContractionReport(scores=tuple(r), ratios=ratios, rho=rho, decrease=decrease)


def consistency_distance(dfield, c, n) -> float:
    """Distance from (C, N) to the closure set {C' + N' = D}: ||R||_F / sqrt(2).

    The nearest feasible point splits the residual equally between the two
    components.
    """
    residual = np.asarray(dfield, dtype=np.float64) - (
        np.asarray(c, dtype=np.float64) + np.asarray(n, dtype=np.float64)
    )
    return frobenius_norm(residual) / np.sqrt(2.0)
