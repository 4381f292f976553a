"""Finite-difference fitting of the parameter bundle.

Gradients are central finite differences over a packed parameter vector;
the optimiser is plain gradient descent with a fixed learning rate.  Only the
selected parameter groups enter the vector, everything else stays frozen, and
a hard cap on the vector length keeps the scheme honest (it is meant for
small bundles, not deep training).

The gradient, :func:`fd_gradient`, evaluates a coordinate loss,
``loss(theta, i, value)``: the loss at ``theta`` with entry ``i`` set to
``value``.  By default a fit's is the loss of the whole moved vector; an
objective that knows what one entry can change (``experiments.fit_on_batch``'s)
may do less work for the same value.

A fit on more than one CPU forks a process pool of one worker per CPU and
shuts it down when it ends.  Each gradient is one coordinate per task, with
the results in coordinate order; every evaluation is the same arithmetic in a
copy of the same process, so the gradient has the same bits as the serial
loop's.  A dead worker raises ``ChildProcessError``, and workers ignore
SIGINT.  With one CPU, or in a short fit, nothing is forked.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericalError
from .objective import LossReport
from .params import LEAVES, ModelParams, replace_leaves

__all__ = [
    "FitResult",
    "FitError",
    "FitDivergedError",
    "PARAMETER_GROUPS",
    "pack_params",
    "apply_theta",
    "fd_gradient",
    "fit",
]

# the longest parameter vector a fit accepts
MAX_PARAMETERS = 2000
# a step that multiplies the loss by more than this raises FitDivergedError
DIVERGENCE_FACTOR = 10.0
# the most worker processes that share a gradient
MAX_WORKERS = 4
# A fit with fewer loss evaluations than this (2 * P * iterations) forks no
# workers: it would pay the fork and the workers' copy-on-write warm-up for
# little work, and its time would follow the load on the other CPUs.
MIN_FORK_EVALUATIONS = 100

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
    if len(set(groups)) < len(groups):
        raise ConfigError(f"parameter groups {', '.join(groups)} repeat a group")
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


def _half_step(step_size) -> float:
    h = float(step_size)
    if h <= 0.0:
        raise ConfigError(f"step_size must be positive, got {h}")
    return h


def _vector_loss(loss_fn):
    """``loss_fn``, a scalar function of the whole vector, as a coordinate loss."""

    def loss(theta, i: int, value):
        moved = theta.copy()
        moved[i] = value
        return loss_fn(moved)

    return loss


def _fd_pair(loss, theta, h: float, i: int):
    """Coordinate loss ``loss`` at ``theta[i] + h`` and ``theta[i] - h``.

    A non-finite value raises :class:`FitError`.
    """
    f_up = float(loss(theta, i, theta[i] + h))
    f_down = float(loss(theta, i, theta[i] - h))
    if not (np.isfinite(f_up) and np.isfinite(f_down)):
        raise FitError(f"non-finite loss at coordinate {i} (+{h}: {f_up}, -{h}: {f_down})")
    return f_up, f_down


# the coordinate loss a pool worker evaluates, set in each worker when it starts
_worker_loss = None


def _start_worker(loss_fn) -> None:
    """Keep ``loss_fn``, inherited by the fork; Ctrl-C is the fit process's to handle."""
    import signal

    global _worker_loss
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_loss = loss_fn


def _worker_pair(theta, h: float, i: int):
    """One coordinate's pair, evaluated in a pool worker."""
    return _fd_pair(_worker_loss, theta, h, i)


def _pool(loss_fn, count: int):
    """``count`` forked processes that evaluate the coordinate loss ``loss_fn``."""
    import concurrent.futures  # here, so that a process that never forks skips it
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    return concurrent.futures.ProcessPoolExecutor(
        count, mp_context=fork, initializer=_start_worker, initargs=(loss_fn,)
    )


def _worker_count(size: int, iterations: int) -> int:
    if iterations < 1 or 2 * size * iterations < MIN_FORK_EVALUATIONS:
        return 1
    # without a CPU set to read (not Linux), the whole gradient runs here
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, MAX_WORKERS, size))


def fd_gradient(loss, theta, step_size: float = 1e-4, *, pool=None):
    """Central-difference gradient of the coordinate loss ``loss`` at ``theta``.

    ``loss(theta, i, value)`` is the loss at ``theta`` with entry ``i`` set
    to ``value``; :func:`_vector_loss` makes one of a scalar function of the
    vector.  Raises :class:`FitError` naming the coordinate if an evaluation
    is non-finite.  ``pool``, when given, is a :func:`_pool` made for
    ``loss``; its results come in coordinate order, so it raises the lowest
    failing coordinate's error, as the serial loop does.  Without it every
    evaluation runs here.
    """
    theta, h = np.asarray(theta, dtype=np.float64), _half_step(step_size)
    if pool is None:
        pairs = map(functools.partial(_fd_pair, loss, theta, h), range(theta.size))
    else:
        pairs = pool.map(functools.partial(_worker_pair, theta, h), range(theta.size))
    grad = np.zeros_like(theta)
    for i, (f_up, f_down) in enumerate(pairs):
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def fit(report_fn, theta0, *, iterations: int, learning_rate: float = 0.05,
        step_size: float = 1e-4, coordinate_loss=None):
    """Plain gradient descent on ``report_fn(theta).total``.

    Returns (theta, curve of LossReports, one per recorded iterate).  Each
    iteration steps by ``-learning_rate`` times :func:`fd_gradient` (half-step
    ``step_size``) of ``coordinate_loss(theta, i, value)``, the total at
    ``theta`` with entry ``i`` set to ``value``; by default that is
    ``report_fn`` of the moved vector.  A step that multiplies the loss by
    more than ``DIVERGENCE_FACTOR`` raises :class:`FitDivergedError` (the
    divergence alarm).  When this process may use more than one CPU and the
    fit makes at least ``MIN_FORK_EVALUATIONS`` loss evaluations, a pool of
    processes forked here evaluates each gradient; they are reaped before
    this returns or raises.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    if theta.size > MAX_PARAMETERS:
        raise ConfigError(f"{theta.size} parameters exceed the fit cap of {MAX_PARAMETERS}")
    if coordinate_loss is None:
        coordinate_loss = _vector_loss(lambda th: report_fn(th).total)

    _half_step(step_size)  # a bad step fails before any fork
    report = report_fn(theta)
    if not np.isfinite(report.total):
        raise FitError(f"initial loss is non-finite: {report.total}")
    curve = [report]
    count = _worker_count(theta.size, int(iterations))
    pool = _pool(coordinate_loss, count) if count > 1 else None
    try:
        for it in range(int(iterations)):
            grad = fd_gradient(coordinate_loss, theta, step_size, pool=pool)
            theta = theta - learning_rate * grad
            report = report_fn(theta)
            if not np.isfinite(report.total):
                raise FitError(f"non-finite loss after iteration {it}")
            previous = curve[-1].total
            if report.total > DIVERGENCE_FACTOR * previous + 1e-9:
                raise FitDivergedError(
                    f"iteration {it}: loss rose from {previous:.6g} to {report.total:.6g}"
                )
            curve.append(report)
    except RuntimeError as exc:
        if pool is None:
            raise
        from concurrent.futures.process import BrokenProcessPool  # loaded with the pool

        if not isinstance(exc, BrokenProcessPool):
            raise
        raise ChildProcessError(str(exc)) from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return theta, tuple(curve)

