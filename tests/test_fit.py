"""Finite-difference gradients and the plain descent loop."""

import json
import pathlib

import numpy as np
import pytest

from diffdecomp.core import ConfigError
from diffdecomp.experiments import ExperimentConfig, fit_on_batch, make_model
from diffdecomp.fit import (
    FitConfig,
    FitDivergedError,
    FitError,
    apply_theta,
    fd_gradient,
    fit,
    fit_model,
    pack_params,
)
from diffdecomp.objective import LossReport
from diffdecomp.params import dumps_params, init_model_params, parameter_count

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fit_golden.json"


def report_of(total):
    return LossReport(seg=0.0, rec=0.0, exp=0.0, con=0.0, ssec=0.0, total=float(total))


# ------------------------------------------------------------------ gradients


def test_fd_gradient_quadratic():
    grad = fd_gradient(lambda th: float(th[0] ** 2), np.array([3.0]))
    assert abs(grad[0] - 6.0) < 1e-6


def test_fd_gradient_abs_away_from_kink():
    grad = fd_gradient(lambda th: float(abs(th[0])), np.array([2.0]))
    assert abs(grad[0] - 1.0) < 1e-8


def test_fd_gradient_exact_for_linear(rng):
    a = rng.normal(0.0, 2.0, 6)
    theta = rng.normal(0.0, 1.0, 6)
    grad = fd_gradient(lambda th: float(a @ th) + 4.0, theta)
    assert np.max(np.abs(grad - a)) < 1e-10


def test_fd_gradient_vector_quadratic(rng):
    a = rng.uniform(0.5, 2.0, 5)
    theta = rng.normal(0.0, 1.0, 5)
    grad = fd_gradient(lambda th: float(np.sum(a * th * th)), theta)
    assert np.max(np.abs(grad - 2.0 * a * theta)) < 1e-6


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ConfigError):
        fd_gradient(lambda th: 0.0, np.zeros(2), step_size=0.0)


def test_fd_gradient_names_bad_coordinate():
    def loss(th):
        return float("nan") if th[1] > 0.5 else 0.0

    with pytest.raises(FitError, match="coordinate 1"):
        fd_gradient(loss, np.array([0.0, 0.5]))


# ------------------------------------------------------------------ descent loop


def test_zero_iterations_keeps_theta():
    theta0 = np.array([1.0, -2.0])
    theta, curve = fit(lambda th: report_of(np.sum(th**2)), theta0, FitConfig(iterations=0))
    assert np.array_equal(theta, theta0)
    assert len(curve) == 1


def test_quadratic_surrogate_converges():
    theta, curve = fit(
        lambda th: report_of((th[0] - 2.0) ** 2),
        np.array([0.0]),
        FitConfig(learning_rate=0.05, iterations=120),
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
            FitConfig(learning_rate=0.05, iterations=3),
        )


def test_parameter_cap_enforced():
    with pytest.raises(ConfigError, match="cap"):
        fit(lambda th: report_of(0.0), np.zeros(2001), FitConfig(iterations=0))


def test_initial_non_finite_rejected():
    with pytest.raises(FitError):
        fit(lambda th: report_of(float("inf")), np.zeros(2), FitConfig(iterations=0))


def test_curves_are_reproducible():
    cfg = FitConfig(learning_rate=0.1, iterations=15)
    run1 = fit(lambda th: report_of(np.sum((th - 1.0) ** 2)), np.zeros(3), cfg)
    run2 = fit(lambda th: report_of(np.sum((th - 1.0) ** 2)), np.zeros(3), cfg)
    assert np.array_equal(run1[0], run2[0])
    assert [r.total for r in run1[1]] == [r.total for r in run2[1]]


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
    groups = FitConfig().groups
    theta = pack_params(params, groups)
    out = apply_theta(params, groups, theta)
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


def test_group_union_covers_every_leaf():
    from diffdecomp.fit import PARAMETER_GROUPS

    params = init_model_params(channels=3, steps=2, reduced_channels=2, patch_side=4)
    theta = pack_params(params, tuple(PARAMETER_GROUPS))
    assert theta.size == parameter_count(params)


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
