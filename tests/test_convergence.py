"""Contraction diagnostics: score sequences, geometric envelopes, closure distance."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from diffdecomp.convergence import (
    consistency_distance,
    contraction_report,
    geometric_bound,
    mismatch_score,
    scores_from_residuals,
)

REPLAY_SCORES = (0.412, 0.173, 0.068)


def test_mismatch_score_hand():
    d = np.array([[2.0, 0.0]])
    c = np.array([[1.0, 0.0]])
    n = np.array([[0.0, 1.0]])
    # residual = (1, -1), norm sqrt(2); |D| = 2
    assert mismatch_score(d, c, n) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)


def test_mismatch_score_zero_field_rejected():
    with pytest.raises(ValueError):
        mismatch_score(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_scores_drop_initial_transient():
    assert scores_from_residuals([0.0, 1.0, 0.5], 2.0) == (0.5, 0.25)
    with pytest.raises(ValueError):
        scores_from_residuals([0.0, 1.0], 0.0)


def test_replay_sequence_summary():
    report = contraction_report(REPLAY_SCORES)
    assert report.scores == REPLAY_SCORES
    assert report.ratios[0] == pytest.approx(0.173 / 0.412, abs=1e-12)
    assert report.ratios[1] == pytest.approx(0.068 / 0.173, abs=1e-12)
    assert f"{report.ratios[0]:.3f}" == "0.420"
    assert f"{report.ratios[1]:.3f}" == "0.393"
    assert report.decrease == pytest.approx(1.0 - 0.068 / 0.412, abs=1e-12)
    assert f"{report.decrease:.3f}" == "0.835"
    # least-squares geometric factor on 3 equispaced log points
    assert report.rho == pytest.approx(np.sqrt(0.068 / 0.412), abs=1e-12)
    d1 = max(0.0, 0.173 - report.rho * 0.412)
    d2 = max(0.0, 0.068 - report.rho * 0.173)
    assert report.deltas == pytest.approx((d1, d2), abs=1e-12)
    assert report.deltas[1] == 0.0


def test_report_handles_vanishing_scores():
    report = contraction_report([1e-15, 0.5])
    assert report.ratios == (None,)
    assert report.rho is None and report.deltas is None and report.decrease is None


def test_report_validation():
    with pytest.raises(ValueError):
        contraction_report([])
    with pytest.raises(ValueError):
        contraction_report([0.5, -0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_report_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        contraction_report([1.0, bad, 0.5])


def test_single_score_report():
    report = contraction_report([0.3])
    assert report.ratios == () and report.rho is None
    assert report.decrease == pytest.approx(0.0, abs=1e-15)


def test_geometric_bound_reference():
    bound = geometric_bound(1.0, 0.5, (0.1, 0.1))
    assert bound.value == pytest.approx(0.40, abs=1e-12)
    assert bound.asymptotic_cap == pytest.approx(0.2, abs=1e-15)


def test_geometric_bound_no_perturbations():
    bound = geometric_bound(2.0, 0.25, ())
    assert bound.value == 2.0 and bound.asymptotic_cap == 0.0


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
def test_geometric_bound_factor_range(rho):
    with pytest.raises(ValueError):
        geometric_bound(1.0, rho, (0.1,))


def test_geometric_bound_negative_inputs():
    with pytest.raises(ValueError):
        geometric_bound(-1.0, 0.5, ())
    with pytest.raises(ValueError):
        geometric_bound(1.0, 0.5, (-0.1,))


# ----------------------------------------------------------- closure distance


def test_consistency_distance_formula(rng):
    d = rng.normal(0.0, 1.0, (3, 6, 6))
    c = rng.normal(0.0, 1.0, (3, 6, 6))
    n = rng.normal(0.0, 1.0, (3, 6, 6))
    r = d - (c + n)
    want = np.sqrt(np.sum(r * r)) / np.sqrt(2.0)
    assert consistency_distance(d, c, n) == pytest.approx(want, abs=1e-12)


def test_consistency_distance_matches_line_search(rng):
    for _ in range(5):
        d = rng.normal(0.0, 1.0, (2, 8, 8))
        c = rng.normal(0.0, 1.0, (2, 8, 8))
        n = rng.normal(0.0, 1.0, (2, 8, 8))
        got = consistency_distance(d, c, n)
        want = oracles.closure_distance_line_search(d, c, n)
        assert abs(got - want) < 1e-6


def test_consistency_distance_zero_on_feasible_pairs(rng):
    d = rng.normal(0.0, 1.0, (2, 4, 4))
    c = rng.normal(0.0, 1.0, (2, 4, 4))
    assert consistency_distance(d, c, d - c) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=10.0))
def test_bound_shrinks_with_more_steps_when_unperturbed(rho, r1):
    one = geometric_bound(r1, rho, ()).value
    three = geometric_bound(r1, rho, (0.0, 0.0)).value
    assert three <= one + 1e-12
