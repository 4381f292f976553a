"""Finite-difference gradients and the plain descent loop."""

import contextlib
import json
import math
import os
import pathlib
import signal
import threading
import time

import numpy as np
import pytest

import diffdecomp.fit as fit_module
from diffdecomp.core import ConfigError, NumericalError
from diffdecomp import experiments, solver
from diffdecomp.experiments import ExperimentConfig, fit_on_batch, make_model, make_stage
from diffdecomp.fit import (
    FitDivergedError,
    FitError,
    _pool,
    _vector_loss,
    apply_theta,
    fd_gradient,
    fit,
    pack_params,
)
from diffdecomp.objective import LossReport
from diffdecomp.params import LEAVES, dumps_params, init_model_params

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fit_golden.json"


def report_of(total):
    return LossReport(seg=0.0, rec=0.0, exp=0.0, con=0.0, ssec=0.0, total=float(total))


# ------------------------------------------------------------------ gradients


def test_fd_gradient_quadratic():
    grad = fd_gradient(_vector_loss(lambda th: float(th[0] ** 2)), np.array([3.0]))
    assert abs(grad[0] - 6.0) < 1e-6


def test_fd_gradient_abs_away_from_kink():
    grad = fd_gradient(_vector_loss(lambda th: float(abs(th[0]))), np.array([2.0]))
    assert abs(grad[0] - 1.0) < 1e-8


def test_fd_gradient_exact_for_linear(rng):
    a = rng.normal(0.0, 2.0, 6)
    theta = rng.normal(0.0, 1.0, 6)
    grad = fd_gradient(_vector_loss(lambda th: float(a @ th) + 4.0), theta)
    assert np.max(np.abs(grad - a)) < 1e-10


def test_fd_gradient_vector_quadratic(rng):
    a = rng.uniform(0.5, 2.0, 5)
    theta = rng.normal(0.0, 1.0, 5)
    grad = fd_gradient(_vector_loss(lambda th: float(np.sum(a * th * th))), theta)
    assert np.max(np.abs(grad - 2.0 * a * theta)) < 1e-6


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ConfigError):
        fd_gradient(_vector_loss(lambda th: 0.0), np.zeros(2), step_size=0.0)


def test_fd_gradient_names_bad_coordinate():
    def loss(th):
        return float("nan") if th[1] > 0.5 else 0.0

    with pytest.raises(FitError, match="coordinate 1"):
        fd_gradient(_vector_loss(loss), np.array([0.0, 0.5]))


# ------------------------------------------------------------------ descent loop


def test_zero_iterations_keeps_theta():
    theta0 = np.array([1.0, -2.0])
    theta, curve = fit(lambda th: report_of(np.sum(th**2)), theta0, iterations=0)
    assert np.array_equal(theta, theta0)
    assert len(curve) == 1


def test_quadratic_surrogate_converges():
    theta, curve = fit(
        lambda th: report_of((th[0] - 2.0) ** 2),
        np.array([0.0]),
        learning_rate=0.05, iterations=120,
    )
    assert abs(theta[0] - 2.0) < 1e-3
    totals = [r.total for r in curve]
    assert totals[-1] < 1e-5
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_divergence_alarm():
    with pytest.raises(FitDivergedError):
        fit(
            lambda th: report_of(1.0 + (100.0 * th[0]) ** 2),
            np.array([0.01]),
            learning_rate=0.05, iterations=3,
        )


def test_parameter_cap_enforced():
    with pytest.raises(ConfigError, match="cap"):
        fit(lambda th: report_of(0.0), np.zeros(2001), iterations=0)


def test_initial_non_finite_rejected():
    with pytest.raises(FitError):
        fit(lambda th: report_of(float("inf")), np.zeros(2), iterations=0)


def test_curves_are_reproducible():
    cfg = dict(learning_rate=0.1, iterations=15)
    run1 = fit(lambda th: report_of(np.sum((th - 1.0) ** 2)), np.zeros(3), **cfg)
    run2 = fit(lambda th: report_of(np.sum((th - 1.0) ** 2)), np.zeros(3), **cfg)
    assert np.array_equal(run1[0], run2[0])
    assert [r.total for r in run1[1]] == [r.total for r in run2[1]]


# ------------------------------------------------------------------ forked gradients


def with_cpus(monkeypatch, n, run):
    """``run()`` as if this process could use ``n`` CPUs, with fits of any length forking."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(fit_module, "MIN_FORK_EVALUATIONS", 0)
    return run()


def squares(th):
    return report_of(np.sum(th**2))


def raised(run):
    """(type, message) of what ``run()`` raises."""
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork makes while the test runs."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def test_forked_fd_gradient_matches_serial(rng):
    a = rng.uniform(0.5, 2.0, 7)
    theta = rng.normal(0.0, 1.0, 7)

    def loss(th):
        return float(np.sum(a * th * th) + np.sum(np.sin(th)))

    loss = _vector_loss(loss)
    with _pool(loss, 3) as pool:
        forked = fd_gradient(loss, theta, 1e-4, pool=pool)
        again = fd_gradient(loss, theta + 0.5, 1e-4, pool=pool)
    assert np.array_equal(forked, fd_gradient(loss, theta))
    assert np.array_equal(again, fd_gradient(loss, theta + 0.5))


def test_busy_helper_takes_fewer_coordinates(tmp_path):
    # The first worker to evaluate claims the marker and sleeps at every
    # evaluation; the other does not, so it takes more of the queue.
    marker = tmp_path / "slow"
    log = tmp_path / "slow-evaluations"
    slow = []  # in each process: [True] once it has claimed the marker, else [False]

    def loss(th):
        if not slow:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                slow.append(True)
            except FileExistsError:
                slow.append(False)
        if slow[0]:
            time.sleep(0.05)
            with open(log, "a", encoding="utf-8") as f:
                f.write("slow\n")
        return float(np.sum(np.cos(th)))

    theta, loss = np.linspace(-1.0, 1.0, 12), _vector_loss(loss)
    with _pool(loss, 2) as pool:
        forked = fd_gradient(loss, theta, 1e-4, pool=pool)
    assert 0 < len(log.read_text(encoding="utf-8").split()) < theta.size
    assert np.array_equal(forked, fd_gradient(loss, theta))


def test_workers_ignore_interrupts(tmp_path):
    me = os.getpid()
    log = tmp_path / "handlers"

    def loss(th):
        if os.getpid() != me:
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{signal.getsignal(signal.SIGINT)!r}\n")
        return float(np.sum(th**2))

    loss = _vector_loss(loss)
    with _pool(loss, 2) as pool:
        fd_gradient(loss, np.zeros(4), 1e-4, pool=pool)
    assert log.read_text(encoding="utf-8").splitlines() == [repr(signal.SIG_IGN)] * 8
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_forked_fit_matches_serial(monkeypatch, forks):
    a = np.linspace(0.5, 2.0, 7)

    def report_fn(th):
        return report_of(np.sum(a * (th - 1.0) ** 2) + np.sum(np.sin(th)))

    cfg = dict(learning_rate=0.1, iterations=5)
    serial = with_cpus(monkeypatch, 1, lambda: fit(report_fn, np.zeros(7), **cfg))
    assert forks == []
    threads = threading.active_count()
    forked = with_cpus(monkeypatch, 3, lambda: fit(report_fn, np.zeros(7), **cfg))
    assert len(forks) == 3
    assert_reaped(forks, threads)
    assert np.array_equal(serial[0], forked[0])
    assert serial[1] == forked[1]


def test_forked_fit_on_batch_matches_serial(monkeypatch, forks):
    cfg = ExperimentConfig(instances=2, iterations=2)
    serial = with_cpus(monkeypatch, 1, lambda: fit_on_batch(cfg))
    forked = with_cpus(monkeypatch, 2, lambda: fit_on_batch(cfg))
    assert len(forks) == 2
    assert np.array_equal(serial.theta, forked.theta)
    assert serial.curve == forked.curve
    assert dumps_params(serial.params) == dumps_params(forked.params)


SMALL = ExperimentConfig(channels=2, height=8, width=8, patch_side=4, reduced_channels=2,
                         rectangles="0,0,4,4", instances=2, iterations=2)


DEFAULT_GROUPS = tuple(ExperimentConfig().groups.split(","))


def test_forked_resumed_gradient_matches_serial():
    # The workers keep the centre of theta; at theta + 0.5 each must build
    # its own again.
    model = make_model(SMALL)
    report, loss = experiments._batch_objective(SMALL, model, make_stage(SMALL), DEFAULT_GROUPS)

    def total(th):
        return report(th).total

    theta = pack_params(model, DEFAULT_GROUPS)
    with _pool(loss, 2) as pool:
        forked = [fd_gradient(loss, th, 1e-4, pool=pool) for th in (theta, theta + 0.5)]
    for grad, th in zip(forked, (theta, theta + 0.5)):
        assert np.array_equal(grad, fd_gradient(loss, th, 1e-4))
        assert np.array_equal(grad, fd_gradient(_vector_loss(total), th, 1e-4))


@pytest.fixture
def centre_builds(monkeypatch):
    """The runs this process makes with drafts kept: the centres the fit builds here."""
    builds = []
    real_run = experiments.run

    def recording_run(*args, **kwargs):
        if kwargs.get("keep_drafts"):
            builds.append(os.getpid())
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", recording_run)
    return builds


def test_serial_fit_builds_one_centre_per_theta(monkeypatch, forks, centre_builds):
    # The initial report's centre and the report's after each update.
    with_cpus(monkeypatch, 1, lambda: fit_on_batch(SMALL))
    assert forks == []
    assert len(centre_builds) == (SMALL.iterations + 1) * SMALL.instances


def test_forked_fit_builds_one_centre_per_theta_here(monkeypatch, forks, centre_builds):
    # The workers build their own centres after the first, which they inherit.
    with_cpus(monkeypatch, 2, lambda: fit_on_batch(SMALL))
    assert len(forks) == 2
    assert centre_builds == [os.getpid()] * (SMALL.iterations + 1) * SMALL.instances


@pytest.mark.parametrize("cpus", [1, 2])
def test_fit_takes_each_gradient_through_fd_gradient(monkeypatch, forks, cpus):
    # The benchmark's tracer counts gradients by wrapping fit.fd_gradient.
    calls = []
    real = fit_module.fd_gradient

    def counted(*args, **kwargs):
        calls.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(fit_module, "fd_gradient", counted)
    with_cpus(monkeypatch, cpus, lambda: fit_on_batch(SMALL))
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert calls == [os.getpid()] * SMALL.iterations


# The README's table of where a moved entry's run resumes, for the groups
# counted below: leaf key or group -> (first state kept, of entry j at depth
# K; the run reuses that step's drafts; it reuses that step's gate).
RESUME_TABLE = {
    "alpha": (lambda j, k: j, True, True),
    "beta": (lambda j, k: j, True, True),
    "gamma": (lambda j, k: j or k, True, True),
    "injection": (lambda j, k: min(1, k), True, True),
    "gate": (lambda j, k: min(1, k), True, False),
    "head": (lambda j, k: k, False, False),
    "memory_bias": (lambda j, k: 0, True, True),
}


def test_fit_iteration_work_follows_the_resume_table(monkeypatch, forks):
    # Lost reuse keeps every bit, so the work itself is counted: solver
    # steps, convs, gate maps, and whole runs (those that resume nothing).
    counts = dict.fromkeys(("step", "conv3x3_reflect", "gate_map", "whole runs"), 0)

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            if key != "whole runs" or (len(args) < 3 and kwargs.get("centre") is None):
                counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("step", "conv3x3_reflect", "gate_map"):
        counting(solver, name, name)
    counting(experiments, "run", "whole runs")
    # groups -> steps, convs and gate maps per item
    for groups, per_item in ((ExperimentConfig().groups, (188, 120, 124)),
                             ("injection", (134, 70, 70))):
        cfg = ExperimentConfig(instances=2, iterations=1, groups=groups)
        counts.update(dict.fromkeys(counts, 0))
        with_cpus(monkeypatch, 1, lambda: fit_on_batch(cfg))
        assert forks == []

        k, moved = cfg.steps, {"step": 0, "conv3x3_reflect": 0, "gate_map": 0}
        for leaf in LEAVES:
            if leaf.group in groups.split(","):
                rule = RESUME_TABLE.get(leaf.key) or RESUME_TABLE[leaf.group]
                first, same_drafts, same_gate = rule
                for j in range(math.prod(leaf.shape(cfg.channels, k, cfg.reduced_channels))):
                    made = k - first(j, k)  # steps of each of the entry's two runs
                    moved["step"] += 2 * made
                    moved["conv3x3_reflect"] += 2 * (made - (same_drafts and made > 0))
                    moved["gate_map"] += 2 * (made - (same_gate and made > 0))
        whole = cfg.iterations + 1  # one centre per theta; the report reads it
        want = {name: cfg.iterations * n + whole * k for name, n in moved.items()}
        want["whole runs"] = whole
        assert want == dict(zip(counts, (*per_item, 2)))
        assert counts == {name: n * cfg.instances for name, n in want.items()}


# Six coordinates that three workers take from one queue in any split.
@pytest.mark.parametrize("bad", [(1,), (3,), (5,), (1, 4), (3, 5), (2, 3, 4)])
def test_forked_fit_names_lowest_bad_coordinate(monkeypatch, forks, bad):
    def report_fn(th):
        return report_of(float("nan") if np.any(th[list(bad)] != 0.0) else np.sum(th**2))

    def run():
        return fit(report_fn, np.zeros(6), iterations=1)

    serial = with_cpus(monkeypatch, 1, lambda: raised(run))
    threads = threading.active_count()
    forked = with_cpus(monkeypatch, 3, lambda: raised(run))
    assert_reaped(forks, threads)
    assert serial == forked
    assert serial[0] is FitError and f"coordinate {bad[0]} " in serial[1]


@pytest.mark.parametrize("error", [NumericalError, ConfigError])
def test_forked_fit_passes_loss_errors_on(monkeypatch, forks, error):
    # The loss fails once theta has moved, and only where coordinate 3 is
    # perturbed up or 4 down: mid-fit, in whichever process takes them.
    def report_fn(th):
        if th[3] > 0.5 and th[3] > th[4] + 1e-6:
            raise error(f"loss refused theta[3] = {float(th[3])!r}")
        return report_of(np.sum((th - 2.0) ** 2))

    def run():
        return fit(report_fn, np.zeros(6), learning_rate=0.1, iterations=5)

    serial = with_cpus(monkeypatch, 1, lambda: raised(run))
    forked = with_cpus(monkeypatch, 3, lambda: raised(run))
    assert len(forks) == 3
    assert serial == forked
    assert serial[0] is error and serial[1].startswith("loss refused theta[3] = 0.72")


def test_forked_fit_divergence_alarm(monkeypatch, forks):
    def run():
        return fit(
            lambda th: report_of(1.0 + np.sum((100.0 * th) ** 2)),
            np.full(4, 0.01),
            learning_rate=0.05, iterations=3,
        )

    serial = with_cpus(monkeypatch, 1, lambda: raised(run))
    forked = with_cpus(monkeypatch, 2, lambda: raised(run))
    assert len(forks) == 2
    assert serial == forked and serial[0] is FitDivergedError


@pytest.mark.parametrize("cpus, size, iterations", [(1, 6, 3), (4, 6, 0), (4, 1, 3), (4, 0, 3)])
def test_fit_forks_nothing_without_shares(monkeypatch, forks, cpus, size, iterations):
    with_cpus(monkeypatch, cpus,
              lambda: fit(squares, np.ones(size), learning_rate=0.1, iterations=iterations))
    assert forks == []


def test_short_fit_forks_nothing(monkeypatch, forks):
    # 2 * 6 parameters * 3 iterations = 36 loss evaluations
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    fit(squares, np.ones(6), learning_rate=0.1, iterations=3)
    assert forks == []


def test_fit_rejects_bad_step_before_forking(monkeypatch, forks):
    with pytest.raises(ConfigError, match="step_size"):
        with_cpus(monkeypatch, 4, lambda: fit(squares, np.ones(6), iterations=3, step_size=0.0))
    assert forks == []


def assert_reaped(pids, threads):
    """Every forked pid is reaped, and ``threads`` threads run, as before the fit."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert threading.active_count() == threads


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_helper_death_raises_and_leaves_no_child(monkeypatch, forks):
    me = os.getpid()

    def report_fn(th):
        if os.getpid() != me:
            os._exit(3)
        return squares(th)

    threads = threading.active_count()
    with deadline(60), pytest.raises(ChildProcessError, match="terminated abruptly"):
        with_cpus(monkeypatch, 2, lambda: fit(report_fn, np.ones(6), iterations=3))
    assert_reaped(forks, threads)


def test_interrupt_propagates_and_leaves_no_child(monkeypatch, forks):
    me = os.getpid()
    calls = []

    def report_fn(th):
        if os.getpid() == me:
            calls.append(1)
            if len(calls) == 3:  # after the initial loss and two gradients
                raise KeyboardInterrupt
        return squares(th)

    threads = threading.active_count()
    with deadline(60), pytest.raises(KeyboardInterrupt):
        with_cpus(monkeypatch, 3, lambda: fit(report_fn, np.ones(6), iterations=3))
    assert_reaped(forks, threads)


def test_interrupt_during_gradient_leaves_no_child(monkeypatch, forks, tmp_path):
    # The first worker evaluation of the second gradient sends SIGINT to the
    # fit process, which is waiting for the workers' results.
    me = os.getpid()
    marker = tmp_path / "interrupted"

    def report_fn(th):
        if os.getpid() != me and np.all(th[1:] < 1.0):
            with contextlib.suppress(FileExistsError):
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                os.kill(me, signal.SIGINT)
        return squares(th)

    threads = threading.active_count()
    with deadline(60), pytest.raises(KeyboardInterrupt):
        with_cpus(monkeypatch, 2, lambda: fit(report_fn, np.ones(6), iterations=3))
    assert marker.exists()
    assert_reaped(forks, threads)


# ------------------------------------------------------------------ packing


def test_pack_apply_round_trip():
    params = init_model_params(channels=2, steps=2, reduced_channels=2, patch_side=4)
    groups = ("steps", "gate", "head")
    theta = pack_params(params, groups)
    assert theta.size == 6 + 2 + 3
    again = pack_params(apply_theta(params, groups, theta), groups)
    assert np.array_equal(theta, again)


def test_apply_theta_targets_right_leaves():
    params = init_model_params(channels=2, steps=2, reduced_channels=2, patch_side=4)
    theta = pack_params(params, ("steps",))
    theta[0] = 7.0   # alpha[0]
    theta[-1] = -3.0  # gamma[1]
    out = apply_theta(params, ("steps",), theta)
    assert out.solver.alpha[0] == 7.0
    assert out.solver.gamma[1] == -3.0
    assert params.solver.alpha[0] != 7.0  # original untouched
    assert dumps_params(out) != dumps_params(params)


def test_apply_theta_size_checked():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    with pytest.raises(ConfigError):
        apply_theta(params, ("steps",), np.zeros(99))


def test_apply_theta_shares_no_containers():
    params = init_model_params(channels=2, steps=2, reduced_channels=2, patch_side=4)
    before = dumps_params(params)
    theta = pack_params(params, DEFAULT_GROUPS)
    out = apply_theta(params, DEFAULT_GROUPS, theta)
    out.solver.gate_bypass = True
    out.solver.gate.patch_side = 2
    out.solver.mem_c.b_z = np.zeros(2)
    out.head.threshold = 0.9
    out.align.eta_a = 0.0
    assert dumps_params(params) == before
    # Selected leaves are fresh arrays; the others are shared.
    assert not np.shares_memory(out.solver.alpha, params.solver.alpha)
    assert not np.shares_memory(out.solver.alpha, theta)
    assert out.solver.phi_c is params.solver.phi_c


def test_fit_on_batch_leaves_input_model_unchanged():
    cfg = ExperimentConfig(
        channels=2, height=8, width=8, patch_side=4, reduced_channels=2,
        steps=2, instances=1, iterations=2, rectangles="2,2,4,4",
    )
    model = make_model(cfg)
    before = dumps_params(model)
    result = fit_on_batch(cfg, model)
    assert dumps_params(result.params) != before
    assert dumps_params(model) == before


def test_unknown_group_rejected():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    with pytest.raises(ConfigError, match="unknown parameter group"):
        pack_params(params, ("nonsense",))
    with pytest.raises(ConfigError, match="repeat a group"):
        pack_params(params, ("head", "steps", "head"))


def test_group_union_covers_every_leaf():
    from diffdecomp.fit import PARAMETER_GROUPS

    params = init_model_params(channels=3, steps=2, reduced_channels=2, patch_side=4)
    theta = pack_params(params, tuple(PARAMETER_GROUPS))
    assert theta.size == sum(np.size(leaf.get(params)) for leaf in LEAVES)


# ------------------------------------------------------------------ end to end


def test_fit_model_small_objective_decreases():
    cfg = ExperimentConfig(
        channels=2, height=8, width=8, patch_side=4, reduced_channels=2,
        steps=1, instances=1, iterations=4, groups="steps",
        rectangles="2,2,4,4",
    )
    result = fit_on_batch(cfg)
    assert len(result.curve) == 5
    assert result.final.total <= result.initial.total
    assert result.theta.size == 3


@pytest.mark.slow
def test_default_batch_fit_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    cfg = ExperimentConfig(**golden["config"])
    result = fit_on_batch(cfg)
    ratio = result.final.total / result.initial.total
    assert ratio < golden["threshold"]
    assert result.initial.total == pytest.approx(golden["initial_total"], rel=1e-9)
    assert result.final.total == pytest.approx(golden["final_total"], rel=1e-9)
