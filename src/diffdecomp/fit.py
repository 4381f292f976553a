"""Finite-difference fitting of the parameter bundle.

Gradients are central finite differences over a packed parameter vector;
the optimiser is plain gradient descent with a fixed learning rate.  Only the
selected parameter groups enter the vector, everything else stays frozen, and
a hard cap on the vector length keeps the scheme honest (it is meant for
small bundles, not deep training).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericalError
from .objective import LossReport
from .params import LEAVES, ModelParams, replace_leaves

__all__ = [
    "FitConfig",
    "FitResult",
    "FitError",
    "FitDivergedError",
    "PARAMETER_GROUPS",
    "pack_params",
    "apply_theta",
    "fd_gradient",
    "fit",
    "fit_model",
]

# the longest parameter vector a fit accepts
MAX_PARAMETERS = 2000
# a step that multiplies the loss by more than this raises FitDivergedError
DIVERGENCE_FACTOR = 10.0

# group -> file keys of its leaves, in file order
PARAMETER_GROUPS = {
    group: tuple(leaf.key for leaf in LEAVES if leaf.group == group)
    for group in dict.fromkeys(leaf.group for leaf in LEAVES)
}


class FitError(NumericalError):
    """A loss or gradient evaluation produced a non-finite value."""


class FitDivergedError(FitError):
    """An iteration increased the loss by more than the alarm factor."""


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float = 0.05
    iterations: int = 300
    step_size: float = 1e-4          # finite-difference half-step
    groups: tuple = ("steps", "gate", "head", "memory_bias")


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    theta: np.ndarray
    curve: tuple  # LossReport per recorded iterate (index 0 = initial)

    @property
    def initial(self) -> LossReport:
        return self.curve[0]

    @property
    def final(self) -> LossReport:
        return self.curve[-1]


def _selected_leaves(groups):
    for g in groups:
        if g not in PARAMETER_GROUPS:
            raise ConfigError(f"unknown parameter group {g!r}; know {sorted(PARAMETER_GROUPS)}")
    return [leaf for g in groups for leaf in LEAVES if leaf.group == g]


def pack_params(params: ModelParams, groups) -> np.ndarray:
    """Selected groups flattened into one float64 vector (fixed order)."""
    pieces = (np.asarray(leaf.get(params), dtype=np.float64) for leaf in _selected_leaves(groups))
    return np.concatenate([np.zeros(0), *map(np.ravel, pieces)])


def apply_theta(params: ModelParams, groups, theta) -> ModelParams:
    """A new bundle whose selected leaves are fresh values cut from ``theta``."""
    theta = np.asarray(theta, dtype=np.float64)
    leaves = _selected_leaves(groups)
    shapes = [np.shape(leaf.get(params)) for leaf in leaves]
    sizes = [math.prod(shape) for shape in shapes]
    if theta.size != sum(sizes):
        raise ConfigError(f"theta has {theta.size} entries, selection needs {sum(sizes)}")
    values, offset = [], 0
    for leaf, shape, size in zip(leaves, shapes, sizes):
        piece = theta[offset : offset + size]
        values.append((leaf, float(piece[0]) if shape == () else piece.reshape(shape).copy()))
        offset += size
    return replace_leaves(params, values)


def fd_gradient(loss_fn, theta, step_size: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    Raises :class:`FitError` naming the coordinate if an evaluation is
    non-finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    h = float(step_size)
    if h <= 0.0:
        raise ConfigError(f"step_size must be positive, got {h}")
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        f_up = float(loss_fn(up))
        f_down = float(loss_fn(down))
        if not (np.isfinite(f_up) and np.isfinite(f_down)):
            raise FitError(f"non-finite loss at coordinate {i} (+{h}: {f_up}, -{h}: {f_down})")
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def fit(report_fn, theta0, config: FitConfig = FitConfig()):
    """Plain gradient descent on ``report_fn(theta).total``.

    Returns (theta, curve of LossReports, one per recorded iterate).  A step
    that multiplies the loss by more than ``DIVERGENCE_FACTOR`` raises
    :class:`FitDivergedError` (the divergence alarm).
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    if theta.size > MAX_PARAMETERS:
        raise ConfigError(f"{theta.size} parameters exceed the fit cap of {MAX_PARAMETERS}")

    def total(th):
        return report_fn(th).total

    report = report_fn(theta)
    if not np.isfinite(report.total):
        raise FitError(f"initial loss is non-finite: {report.total}")
    curve = [report]
    for it in range(int(config.iterations)):
        grad = fd_gradient(total, theta, config.step_size)
        theta = theta - config.learning_rate * grad
        report = report_fn(theta)
        if not np.isfinite(report.total):
            raise FitError(f"non-finite loss after iteration {it}")
        previous = curve[-1].total
        if report.total > DIVERGENCE_FACTOR * previous + 1e-9:
            raise FitDivergedError(
                f"iteration {it}: loss rose from {previous:.6g} to {report.total:.6g}"
            )
        curve.append(report)
    return theta, tuple(curve)


def fit_model(params: ModelParams, report_of_params, config: FitConfig = FitConfig()) -> FitResult:
    """Fit the selected groups of a bundle against a LossReport-valued objective."""
    theta0 = pack_params(params, config.groups)

    def report_fn(theta):
        return report_of_params(apply_theta(params, config.groups, theta))

    theta, curve = fit(report_fn, theta0, config)
    return FitResult(params=apply_theta(params, config.groups, theta), theta=theta, curve=curve)
