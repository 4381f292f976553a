"""Finite-difference fitting of the parameter bundle.

Gradients are central finite differences over a packed parameter vector;
the optimiser is plain gradient descent with a fixed learning rate.  Only the
selected parameter groups enter the vector, everything else stays frozen, and
a hard cap on the vector length keeps the scheme honest (it is meant for
small bundles, not deep training).

The gradient, :func:`fd_gradient`, evaluates a coordinate loss,
``loss(theta, i, value)``: the loss at ``theta`` with entry ``i`` set to
``value``.  A fit takes one from its caller; an objective that knows what
one entry can change (``experiments.fit_on_batch``'s) may do less work than
a whole run of the moved vector, for the same value.

One function, :func:`_forked`, decides whether work runs on more than one
CPU, and hands its caller an ordered map either way: the builtin ``map``,
or a pool of processes forked here, one per CPU, shut down and reaped when
the work ends.  A fit maps each gradient's coordinates over it, one
coordinate per task; a sweep (``experiments._score_variants``) maps its
variants, one fit per task, and the fits in a worker are serial, so no
process tree holds more than ``MAX_WORKERS`` workers.  Results come back in
task order, and each task is the same arithmetic in a copy of the same
process, so every result has the same bits as the serial loop's and a
failure raises the first failing task's error; the workers are then
stopped, not waited for.  A dead worker raises ``ChildProcessError``, and
workers ignore SIGINT.  With one CPU, or for short work, nothing is forked.
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


def _fd_pair(loss, theta, h: float, i: int):
    """Coordinate loss ``loss`` at ``theta[i] + h`` and ``theta[i] - h``.

    A non-finite value raises :class:`FitError`.
    """
    f_up = float(loss(theta, i, theta[i] + h))
    f_down = float(loss(theta, i, theta[i] - h))
    if not (np.isfinite(f_up) and np.isfinite(f_down)):
        raise FitError(f"non-finite loss at coordinate {i} (+{h}: {f_up}, -{h}: {f_down})")
    return f_up, f_down


# In a pool worker, the task it runs, set when it starts; None in any other process.
_worker_task = None


def _start_worker(task) -> None:
    """Keep ``task``, inherited by the fork; Ctrl-C is the parent's to handle."""
    import signal

    global _worker_task
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_task = task


def _worker_call(*args):
    """The worker's task on ``args``, in a pool worker."""
    return _worker_task(*args)


@contextlib.contextmanager
def _forked(task, evaluations: int, tasks: int):
    """An ordered map of ``task`` for ``tasks`` tasks of ``evaluations`` loss evaluations in all.

    The block's map runs ``task`` on processes forked here, one per CPU this
    process may use, up to ``MAX_WORKERS`` and ``tasks``; in a pool worker,
    below ``MIN_FORK_EVALUATIONS``, or with one such process, it is the
    builtin ``map`` of ``task``.  Each worker ignores SIGINT.  A worker that
    dies makes the block raise ``ChildProcessError``, chained from the pool's
    ``BrokenProcessPool``.  When the block raises, the workers are stopped,
    not waited for: their tasks' results would be dropped.  Every worker is
    reaped before the block returns or raises.
    """
    # without a CPU set to read (not Linux), every task runs here
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, MAX_WORKERS, tasks)
    if _worker_task is not None or evaluations < max(1, MIN_FORK_EVALUATIONS) or count < 2:
        yield functools.partial(map, task)
        return
    import multiprocessing  # here, so that a process that never forks skips them
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(count, mp_context=fork, initializer=_start_worker, initargs=(task,))
    try:
        yield functools.partial(pool.map, _worker_call)
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc
    except BaseException:
        for worker in list(pool._processes.values()):  # no public way before Python 3.14
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def fd_gradient(loss, theta, step_size: float = 1e-4, *, pairs=None):
    """Central-difference gradient of the coordinate loss ``loss`` at ``theta``.

    ``loss(theta, i, value)`` is the loss at ``theta`` with entry ``i`` set
    to ``value``.  Raises :class:`FitError` naming the coordinate if an
    evaluation is non-finite.  Each coordinate's pair goes through ``pairs``,
    an ordered map of ``_fd_pair`` bound to ``loss`` over (theta, h, i): by
    default the builtin ``map``, in a fit its :func:`_forked` map.  Either
    way the lowest failing coordinate's error is raised.
    """
    theta, h = np.asarray(theta, dtype=np.float64), _half_step(step_size)
    pairs = pairs or functools.partial(map, functools.partial(_fd_pair, loss))
    grad = np.zeros_like(theta)
    for i, (f_up, f_down) in enumerate(pairs([theta] * theta.size, [h] * theta.size,
                                             range(theta.size))):
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def fit(report_fn, theta0, *, iterations: int, learning_rate: float, step_size: float,
        coordinate_loss):
    """Plain gradient descent on ``report_fn(theta).total``.

    Returns (theta, curve of LossReports, one per recorded iterate).  Each
    iteration steps by ``-learning_rate`` times :func:`fd_gradient` (half-step
    ``step_size``) of ``coordinate_loss(theta, i, value)``, the total at
    ``theta`` with entry ``i`` set to ``value``.  A step that multiplies the
    loss by more than ``DIVERGENCE_FACTOR`` raises :class:`FitDivergedError`
    (the divergence alarm).  The gradients' pairs go through one
    :func:`_forked` map, entered after the initial report.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    if theta.size > MAX_PARAMETERS:
        raise ConfigError(f"{theta.size} parameters exceed the fit cap of {MAX_PARAMETERS}")

    _half_step(step_size)  # a bad step fails before any fork
    report = report_fn(theta)
    if not np.isfinite(report.total):
        raise FitError(f"initial loss is non-finite: {report.total}")
    curve = [report]
    task = functools.partial(_fd_pair, coordinate_loss)
    with _forked(task, 2 * theta.size * int(iterations), theta.size) as pairs:
        for it in range(int(iterations)):
            grad = fd_gradient(coordinate_loss, theta, step_size, pairs=pairs)
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
