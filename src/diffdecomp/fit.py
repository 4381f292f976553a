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

Work on more than one CPU goes to one fork helper, :func:`_forked`: a pool
of processes forked here, one per CPU, shut down and reaped when the work
ends.  A fit shares each gradient among them, one coordinate per task; a
sweep (``experiments._score_variants``) maps its variants over them, one
fit per task, and the fits in a worker are serial, so no process tree holds
more than ``MAX_WORKERS`` workers.  Results come back in task order, and each
task is the same arithmetic in a copy of the same process, so every result
has the same bits as the serial loop's and a failure raises the first
failing task's error; the workers are then stopped, not waited for.  A dead
worker raises ``ChildProcessError``, and workers ignore SIGINT.  With one
CPU, or for short work, nothing is forked.
"""

from __future__ import annotations

import contextlib
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
# the most worker processes that share a gradient or a sweep
MAX_WORKERS = 4
# Work of fewer loss evaluations than this forks no workers: 2 * P *
# iterations for a fit, their sum over the distinct fitted variants for a
# sweep.  It would pay the fork and the workers' copy-on-write warm-up for
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


# In a pool worker: the task it runs, set when it starts; and that it forks nothing.
_worker_task = None
_in_worker = False


def _start_worker(task) -> None:
    """Keep ``task``, inherited by the fork; Ctrl-C is the parent's to handle."""
    import signal

    global _worker_task, _in_worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_task, _in_worker = task, True


def _worker_call(*args):
    """The worker's task on ``args``, in a pool worker."""
    return _worker_task(*args)


def _worker_pair(theta, h: float, i: int):
    """One coordinate's pair of the worker's coordinate loss, in a pool worker."""
    return _fd_pair(_worker_task, theta, h, i)


@contextlib.contextmanager
def _forked(task, count: int):
    """A pool of ``count`` processes forked here that run ``task``; None if ``count`` < 2.

    Each worker ignores SIGINT and forks nothing (:func:`_worker_count`).  A
    worker that dies makes the block raise ``ChildProcessError``, chained from
    the pool's ``BrokenProcessPool``.  When the block raises, the workers are
    stopped, not waited for: their tasks' results would be dropped.  Every
    worker is reaped before the block returns or raises.
    """
    if count < 2:
        yield None
        return
    import multiprocessing  # here, so that a process that never forks skips them
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(count, mp_context=fork, initializer=_start_worker, initargs=(task,))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc
    except BaseException:
        for worker in list(pool._processes.values()):  # no public way before Python 3.14
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _worker_count(evaluations: int, tasks: int) -> int:
    """Processes for ``tasks`` tasks that make ``evaluations`` loss evaluations in all."""
    if _in_worker or evaluations < max(1, MIN_FORK_EVALUATIONS):
        return 1
    # without a CPU set to read (not Linux), every task runs here
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, MAX_WORKERS, tasks))


def fd_gradient(loss, theta, step_size: float = 1e-4, *, pool=None):
    """Central-difference gradient of the coordinate loss ``loss`` at ``theta``.

    ``loss(theta, i, value)`` is the loss at ``theta`` with entry ``i`` set
    to ``value``; :func:`_vector_loss` makes one of a scalar function of the
    vector.  Raises :class:`FitError` naming the coordinate if an evaluation
    is non-finite.  ``pool``, when given, is a :func:`_forked` pool made for
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
    divergence alarm).  When this process may use more than one CPU, is not
    itself a pool worker, and the fit makes at least ``MIN_FORK_EVALUATIONS``
    loss evaluations, a pool of processes forked here evaluates each
    gradient; they are reaped before this returns or raises.
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
    count = _worker_count(2 * theta.size * int(iterations), theta.size)
    with _forked(coordinate_loss, count) as pool:
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
    return theta, tuple(curve)
