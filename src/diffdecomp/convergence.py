"""Residual-contraction diagnostics for unrolled runs.

Scores are Frobenius residual norms normalised by the input-field norm.  The
0 -> 1 transition is a transient (the initial state closes the residual by
construction) and is excluded from every contraction statistic: score index 1
is the residual after the first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import frobenius_norm

__all__ = [
    "ContractionReport",
    "GeometricBound",
    "mismatch_score",
    "scores_from_residuals",
    "contraction_report",
    "geometric_bound",
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
    ``decrease`` is 1 - r_K/r_1; ``deltas`` are the non-negative perturbation
    estimates max(0, r_{k+1} - rho * r_k) when rho is available.
    """

    scores: tuple
    ratios: tuple
    rho: float | None
    decrease: float | None
    deltas: tuple | None


@dataclass(frozen=True)
class GeometricBound:
    """Value of the K-step geometric envelope and its asymptotic cap."""

    value: float
    asymptotic_cap: float


def mismatch_score(dfield, c, n) -> float:
    """||D - (C + N)||_F / ||D||_F; undefined (raises) for an all-zero D."""
    dnorm = frobenius_norm(dfield)
    if dnorm == 0.0:
        raise ValueError("mismatch_score is undefined for an all-zero input field")
    return frobenius_norm(np.asarray(dfield) - (np.asarray(c) + np.asarray(n))) / dnorm


def scores_from_residuals(res_norms, d_norm: float):
    """Normalised scores r_1..r_K from a trace's residual norms (index 0 = init)."""
    if d_norm <= 0.0:
        raise ValueError("scores are undefined for a zero-norm input field")
    return tuple(float(r) / float(d_norm) for r in list(res_norms)[1:])


def contraction_report(scores) -> ContractionReport:
    """Summarise a score sequence r_1..r_K (see :class:`ContractionReport`)."""
    r = [float(s) for s in scores]
    if len(r) < 1:
        raise ValueError("contraction_report needs at least one score")
    if not all(np.isfinite(r)):
        raise ValueError("scores must be finite")
    if any(s < 0.0 for s in r):
        raise ValueError("scores must be non-negative")
    ratios = tuple(
        (r[i] / r[i - 1]) if r[i - 1] > SCORE_EPS else None for i in range(1, len(r))
    )
    rho = None
    deltas = None
    if len(r) >= 2 and all(s > SCORE_EPS for s in r):
        k = np.arange(1, len(r) + 1, dtype=np.float64)
        logs = np.log(np.asarray(r))
        slope = float(np.polyfit(k, logs, 1)[0])
        rho = float(np.exp(slope))
        deltas = tuple(max(0.0, r[i] - rho * r[i - 1]) for i in range(1, len(r)))
    decrease = (1.0 - r[-1] / r[0]) if r[0] > SCORE_EPS else None
    return ContractionReport(
        scores=tuple(r), ratios=ratios, rho=rho, decrease=decrease, deltas=deltas
    )


def geometric_bound(r1: float, rho: float, deltas) -> GeometricBound:
    """Geometric envelope after K steps from r_1, a contraction factor, and
    per-transition perturbations delta_1..delta_{K-1}:

        value = rho**(K-1) * r1 + sum_j rho**(K-1-j) * delta_j

    with the long-run cap max(delta)/(1 - rho).  ``rho`` must lie in (0, 1).
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {rho}")
    r1 = float(r1)
    if r1 < 0.0:
        raise ValueError("r1 must be non-negative")
    ds = [float(d) for d in deltas]
    if any(d < 0.0 for d in ds):
        raise ValueError("perturbations must be non-negative")
    k = len(ds) + 1
    value = rho ** (k - 1) * r1
    for j, d in enumerate(ds, start=1):
        value += rho ** (k - 1 - j) * d
    cap = (max(ds) / (1.0 - rho)) if ds else 0.0
    return GeometricBound(value=float(value), asymptotic_cap=float(cap))


def consistency_distance(dfield, c, n) -> float:
    """Distance from (C, N) to the closure set {C' + N' = D}: ||R||_F / sqrt(2).

    The nearest feasible point splits the residual equally between the two
    components.
    """
    residual = np.asarray(dfield, dtype=np.float64) - (
        np.asarray(c, dtype=np.float64) + np.asarray(n, dtype=np.float64)
    )
    return frobenius_norm(residual) / np.sqrt(2.0)
