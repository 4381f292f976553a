"""Finite-difference fitting of the parameter bundle.

Gradients are central finite differences over a packed parameter vector;
the optimiser is plain gradient descent with a fixed learning rate.  Only the
selected parameter groups enter the vector, everything else stays frozen, and
a hard cap on the vector length keeps the scheme honest (it is meant for
small bundles, not deep training).

A fit shares each gradient's coordinates among the CPUs this process may
use: it forks one helper process per extra CPU when it starts and reaps them
when it ends, and every process takes coordinates one at a time from a
common queue until none are left.  Every loss evaluation is the same
arithmetic in a copy of the same process, so the gradient has the same bits
as the serial loop's.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
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
# the most processes (the fit's own included) that share a gradient
MAX_WORKERS = 4
# A fit with fewer loss evaluations than this (2 * P * iterations) forks no
# helpers: it would pay the fork and the helpers' copy-on-write warm-up for
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


def _half_step(step_size) -> float:
    h = float(step_size)
    if h <= 0.0:
        raise ConfigError(f"step_size must be positive, got {h}")
    return h


def _fd_pairs(loss_fn, theta, h: float, coords) -> dict:
    """``i -> (f(theta + h e_i), f(theta - h e_i))`` for each coordinate ``i`` in ``coords``.

    Raises :class:`FitError` at the first coordinate with a non-finite value.
    """
    pairs = {}
    for i in coords:
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        f_up = float(loss_fn(up))
        f_down = float(loss_fn(down))
        if not (np.isfinite(f_up) and np.isfinite(f_down)):
            raise FitError(f"non-finite loss at coordinate {i} (+{h}: {f_up}, -{h}: {f_down})")
        pairs[i] = (f_up, f_down)
    return pairs


# A queued coordinate is this many bytes, so that a whole gradient's queue
# (2 * MAX_PARAMETERS bytes) is one atomic pipe write that fits in any pipe.
_RECORD = 2


def _claims(tasks_fd: int, taken: list):
    """Coordinates taken one at a time from the fit's queue until it is empty.

    Each read of one record takes a coordinate no other process gets.  Every
    coordinate taken is appended to ``taken`` before it is yielded.
    """
    while True:
        try:
            record = os.read(tasks_fd, _RECORD)
        except BlockingIOError:  # every coordinate is taken
            return
        if not record:  # the fit closed the queue
            return
        taken.append(int.from_bytes(record, "little"))
        yield taken[-1]


def _take_pairs(loss_fn, theta, h: float, tasks_fd: int):
    """``(pairs, failure)`` for the coordinates this process takes from the queue.

    It stops at its first failing coordinate; ``failure`` is then
    ``(coordinate, exception)``, else ``None``.
    """
    taken = []
    try:
        return _fd_pairs(loss_fn, theta, h, _claims(tasks_fd, taken)), None
    except Exception as exc:
        return {}, (taken[-1], exc)


def _serve(loss_fn, h: float, tasks_fd: int, commands_fd: int, replies_fd: int) -> None:
    """A helper's loop: for each theta read, write back what it took from the queue."""
    with os.fdopen(commands_fd, "rb") as commands, os.fdopen(replies_fd, "wb") as replies:
        while True:
            try:
                theta = pickle.load(commands)
            except EOFError:  # the fit closed its end
                return
            replies.write(pickle.dumps(_take_pairs(loss_fn, theta, h, tasks_fd)))
            replies.flush()


class _Workers:
    """``count`` processes for one fit that share each gradient: this one and
    ``count - 1`` forked helpers.

    The coordinates of a gradient go into one queue, a pipe that each
    process takes them from one at a time, so a process that runs slower
    (its CPU busy with other work) takes fewer of them and the gradient
    waits for at most one coordinate of it.  Each child inherits ``loss_fn``
    when it is forked and reads theta from its own pipe until that pipe
    closes.  It leaves only through ``os._exit``, so none of this process's
    exit handlers run twice.
    """

    def __init__(self, loss_fn, h: float, size: int, count: int):
        self.loss_fn, self.h, self.size = loss_fn, h, size
        self.children = []  # (pid, command writer, reply reader)
        self.tasks_r, self.tasks_w = os.pipe()
        os.set_blocking(self.tasks_r, False)
        try:
            for _ in range(count - 1):
                self.children.append(self._fork())
        except BaseException:
            self.close()
            raise

    def _fork(self):
        commands_r, commands_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (commands_r, commands_w, replies_r, replies_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                # only this child's own ends stay open, so that a closed
                # pipe reads as EOF even while other helpers run
                for _, commands, replies in self.children:
                    os.close(commands.fileno())
                    os.close(replies.fileno())
                os.close(self.tasks_w)
                os.close(commands_w)
                os.close(replies_r)
                _serve(self.loss_fn, self.h, self.tasks_r, commands_r, replies_w)
            finally:
                os._exit(0)
        os.close(commands_r)
        os.close(replies_w)
        return pid, os.fdopen(commands_w, "wb"), os.fdopen(replies_r, "rb")

    def pairs(self, theta) -> dict:
        """Every coordinate's pair; a failure is the one the serial loop meets first.

        Coordinates are taken in increasing order and a process stops at its
        first failure, so every coordinate below the lowest failing one is
        evaluated, and that one is where the serial loop stops too.
        """
        os.write(self.tasks_w, np.arange(self.size, dtype="<u2").tobytes())
        for _, commands, _ in self.children:
            pickle.dump(theta, commands)
            commands.flush()
        pairs, failure = _take_pairs(self.loss_fn, theta, self.h, self.tasks_r)
        failures = [failure] if failure else []
        for pid, _, replies in self.children:
            try:
                taken, failure = pickle.load(replies)
            except EOFError:
                raise RuntimeError(f"gradient helper {pid} exited without a reply") from None
            pairs.update(taken)
            failures += [failure] if failure else []
        if failures:
            for _ in _claims(self.tasks_r, []):  # what no process took
                pass
            raise min(failures, key=lambda f: f[0])[1]
        return pairs

    def close(self) -> None:
        """Close every pipe, which ends each helper, and reap them all."""
        for _, commands, replies in self.children:
            with contextlib.suppress(OSError):
                commands.close()
            replies.close()
        for pid, _, _ in self.children:
            os.waitpid(pid, 0)
        self.children = []
        for fd in (self.tasks_r, self.tasks_w):
            with contextlib.suppress(OSError):
                os.close(fd)


def _worker_count(size: int, iterations: int) -> int:
    if iterations < 1 or 2 * size * iterations < MIN_FORK_EVALUATIONS:
        return 1
    # without a CPU set to read (not Linux), the whole gradient runs here
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, MAX_WORKERS, size))


def fd_gradient(loss_fn, theta, step_size: float = 1e-4, *, workers: _Workers | None = None):
    """Central-difference gradient of a scalar function of a vector.

    Raises :class:`FitError` naming the coordinate if an evaluation is
    non-finite.  ``workers`` are the processes :func:`fit` made for
    ``loss_fn`` and ``step_size``; without them every evaluation runs here.
    """
    theta = np.asarray(theta, dtype=np.float64)
    h = _half_step(step_size)
    if workers is None:
        pairs = _fd_pairs(loss_fn, theta, h, range(theta.size))
    else:
        pairs = workers.pairs(theta)
    grad = np.zeros_like(theta)
    for i, (f_up, f_down) in pairs.items():
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def fit(report_fn, theta0, config: FitConfig = FitConfig()):
    """Plain gradient descent on ``report_fn(theta).total``.

    Returns (theta, curve of LossReports, one per recorded iterate).  A step
    that multiplies the loss by more than ``DIVERGENCE_FACTOR`` raises
    :class:`FitDivergedError` (the divergence alarm).  When this process may
    use more than one CPU and the fit makes at least ``MIN_FORK_EVALUATIONS``
    loss evaluations, helper processes forked here share each gradient; they
    are reaped before this returns or raises.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    if theta.size > MAX_PARAMETERS:
        raise ConfigError(f"{theta.size} parameters exceed the fit cap of {MAX_PARAMETERS}")

    def total(th):
        return report_fn(th).total

    h = _half_step(config.step_size)
    report = report_fn(theta)
    if not np.isfinite(report.total):
        raise FitError(f"initial loss is non-finite: {report.total}")
    curve = [report]
    count = _worker_count(theta.size, int(config.iterations))
    workers = _Workers(total, h, theta.size, count) if count > 1 else None
    try:
        for it in range(int(config.iterations)):
            grad = fd_gradient(total, theta, h, workers=workers)
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
    finally:
        if workers is not None:
            workers.close()
    return theta, tuple(curve)


def fit_model(params: ModelParams, report_of_params, config: FitConfig = FitConfig()) -> FitResult:
    """Fit the selected groups of a bundle against a LossReport-valued objective."""
    theta0 = pack_params(params, config.groups)

    def report_fn(theta):
        return report_of_params(apply_theta(params, config.groups, theta))

    theta, curve = fit(report_fn, theta0, config)
    return FitResult(params=apply_theta(params, config.groups, theta), theta=theta, curve=curve)
