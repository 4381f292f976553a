"""Solver wiring against straight-line oracles, fixed points, and bypasses."""

import math

import numpy as np
import pytest

import oracles
from diffdecomp import solver
from diffdecomp.core import ConfigError, NumericalError, channel_map, frobenius_norm
from diffdecomp.solver import (
    HeadParams,
    MemoryCell,
    SolverState,
    conv3x3_reflect,
    init_memory_cell,
    init_solver_params,
    init_state,
    memory_update,
    predict,
    run,
    step,
)


def random_params(rng, channels, steps=3, patch_side=4, seed=0):
    p = init_solver_params(
        channels, steps=steps, reduced_channels=channels, patch_side=patch_side, seed=seed
    )
    p.alpha = rng.uniform(0.0, 1.0, steps)
    p.beta = rng.uniform(0.0, 1.0, steps)
    p.gamma = rng.uniform(0.0, 1.0, steps)
    p.psi_c = rng.normal(0.0, 0.5, (channels, channels))
    p.psi_n = rng.normal(0.0, 0.5, (channels, channels))
    p.gate.scale = rng.uniform(0.5, 2.0)
    p.gate.shift = rng.uniform(-1.0, 1.0)
    for cell in (p.mem_c, p.mem_n):
        cell.b_z = rng.normal(0.0, 1.0, channels)
        cell.b_r = rng.normal(0.0, 1.0, channels)
        cell.b_c = rng.normal(0.0, 0.3, channels)
        cell.w_z = rng.normal(0.0, 0.3, (channels, 2 * channels))
        cell.w_r = rng.normal(0.0, 0.3, (channels, 2 * channels))
        cell.w_c = rng.normal(0.0, 0.3, (channels, 2 * channels))
    return p


def random_state(rng, channels, h, w):
    return SolverState(
        c=rng.normal(0.0, 1.0, (channels, h, w)),
        n=rng.normal(0.0, 1.0, (channels, h, w)),
        mem_c=rng.normal(0.0, 0.5, (channels, h, w)),
        mem_n=rng.normal(0.0, 0.5, (channels, h, w)),
    )


# ------------------------------------------------------------------ building blocks


def test_conv3x3_matches_window_sums(rng):
    for shape in [(3, 6, 7), (1, 2, 2), (2, 2, 5), (3, 7, 2), (24, 16, 16)]:
        x = rng.normal(0.0, 1.0, shape)
        w = rng.normal(0.0, 1.0, (2, shape[0], 3, 3))
        got = conv3x3_reflect(x, w)
        want = oracles.conv3x3_window_sums(x, w)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) < 1e-13


def pad_reference_conv(x, w):
    """The conv's GEMM and shifted adds over numpy's own reflect pad."""
    d_in, h, width = x.shape
    d_out = w.shape[0]
    pad = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    taps = w.transpose(2, 3, 0, 1).reshape(9 * d_out, d_in) @ pad.reshape(d_in, -1)
    taps = taps.reshape(3, 3, d_out, h + 2, width + 2)
    out = taps[0, 0, :, :h, :width].copy()
    for a in range(3):
        for b in range(3):
            if a or b:
                out += taps[a, b, :, a : a + h, b : b + width]
    return out


def test_conv3x3_pad_equals_numpy_reflect(rng):
    for shape in [(1, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3), (1, 2, 7), (2, 5, 3), (4, 8, 8)]:
        x = rng.normal(0.0, 1.0, shape)
        w = rng.normal(0.0, 1.0, (3, shape[0], 3, 3))
        assert np.array_equal(conv3x3_reflect(x, w), pad_reference_conv(x, w))


def test_conv3x3_identity_kernel(rng):
    x = rng.normal(0.0, 1.0, (2, 5, 5))
    w = np.zeros((2, 2, 3, 3))
    for c in range(2):
        w[c, c, 1, 1] = 1.0
    assert np.array_equal(conv3x3_reflect(x, w), x)


def test_conv3x3_mirror_preserves_constants():
    x = np.full((1, 4, 6), 3.0)
    w = np.full((1, 1, 3, 3), 1.0 / 9.0)
    out = conv3x3_reflect(x, w)
    assert np.max(np.abs(out - 3.0)) < 1e-14


def test_conv3x3_validation(rng):
    x = rng.normal(0.0, 1.0, (2, 4, 4))
    with pytest.raises(ConfigError):
        conv3x3_reflect(x, np.zeros((1, 3, 3, 3)))  # channel mismatch
    with pytest.raises(ConfigError):
        conv3x3_reflect(x, np.zeros((1, 2, 5, 5)))  # kernel size
    with pytest.raises(ConfigError):
        conv3x3_reflect(rng.normal(0.0, 1.0, (2, 1, 4)), np.zeros((1, 2, 3, 3)))


def test_channel_map(rng):
    x = rng.normal(0.0, 1.0, (3, 4, 5))
    w = rng.normal(0.0, 1.0, (2, 3))
    assert np.allclose(channel_map(w, x), np.einsum("oc,chw->ohw", w, x), atol=1e-14)
    with pytest.raises(ConfigError):
        channel_map(np.zeros((2, 4)), x)


def test_channel_map_equals_tensordot(rng):
    for c_in, c_out, h, w in [(1, 1, 2, 2), (3, 2, 4, 5), (8, 4, 16, 16), (24, 8, 3, 7)]:
        x = rng.normal(0.0, 1.0, (c_in, h, w))
        wm = rng.normal(0.0, 1.0, (c_out, c_in))
        assert np.array_equal(channel_map(wm, x), np.tensordot(wm, x, axes=([1], [0])))
        # the one-row map of the read-out head
        head = wm[0]
        assert np.array_equal(channel_map(head[None], x)[0], np.tensordot(head, x, axes=([0], [0])))


def test_memory_update_hand_check():
    cell = MemoryCell(
        w_z=np.array([[0.2, -0.1]]),
        b_z=np.array([0.1]),
        w_r=np.array([[0.4, 0.3]]),
        b_r=np.array([-0.2]),
        w_c=np.array([[1.0, 0.7]]),
        b_c=np.array([0.05]),
    )
    x = np.full((1, 1, 1), 0.3)
    h = np.full((1, 1, 1), 0.5)
    z = 1.0 / (1.0 + math.exp(-(0.2 * 0.3 - 0.1 * 0.5 + 0.1)))
    r = 1.0 / (1.0 + math.exp(-(0.4 * 0.3 + 0.3 * 0.5 - 0.2)))
    cand = math.tanh(1.0 * 0.3 + 0.7 * (r * 0.5) + 0.05)
    want = (1.0 - z) * 0.5 + z * cand
    got = memory_update(x, h, cell)
    assert abs(float(got[0, 0, 0]) - want) < 1e-15


def test_memory_update_matches_gru_oracle(rng):
    for channels in (1, 2, 4):
        cell = MemoryCell(
            w_z=rng.normal(0.0, 0.5, (channels, 2 * channels)),
            b_z=rng.normal(0.0, 1.0, channels),
            w_r=rng.normal(0.0, 0.5, (channels, 2 * channels)),
            b_r=rng.normal(0.0, 1.0, channels),
            w_c=rng.normal(0.0, 0.5, (channels, 2 * channels)),
            b_c=rng.normal(0.0, 0.3, channels),
        )
        x = rng.normal(0.0, 1.0, (channels, 6, 5))
        h = rng.normal(0.0, 1.0, (channels, 6, 5))
        want = oracles.gru_oracle(x, h, cell)
        assert np.max(np.abs(memory_update(x, h, cell) - want)) < 1e-14


def test_memory_near_passthrough_init(rng):
    cell = init_memory_cell(3)
    x = rng.normal(0.0, 1.0, (3, 4, 4))
    h = rng.normal(0.0, 1.0, (3, 4, 4))
    z = 1.0 / (1.0 + np.exp(-4.0))
    want = (1.0 - z) * h + z * np.tanh(x)
    assert np.max(np.abs(memory_update(x, h, cell) - want)) < 1e-14


def test_init_state_is_independent_copy(rng):
    d = rng.normal(0.0, 1.0, (2, 4, 4))
    state = init_state(d)
    assert np.array_equal(state.c, np.zeros_like(d))
    assert np.array_equal(state.n, d)
    assert np.array_equal(state.mem_c, np.zeros_like(d))
    d[0, 0, 0] = 99.0
    assert state.n[0, 0, 0] != 99.0


# ------------------------------------------------------------------ step wiring


def test_step_matches_straightline_oracle(rng):
    for trial in range(3):
        channels = int(rng.integers(2, 4))
        params = random_params(rng, channels, steps=3, patch_side=4, seed=trial)
        dfield = rng.normal(0.0, 1.0, (channels, 8, 8))
        state = random_state(rng, channels, 8, 8)
        k = int(rng.integers(0, 3))
        got, gate = step(dfield, state, params, k)
        oc, on, omc, omn, ogate = oracles.step_oracle(
            dfield, state.c, state.n, state.mem_c, state.mem_n, params, k
        )
        assert np.max(np.abs(gate - ogate)) < 1e-12
        assert np.max(np.abs(got.c - oc)) < 1e-12
        assert np.max(np.abs(got.n - on)) < 1e-12
        assert np.max(np.abs(got.mem_c - omc)) < 1e-12
        assert np.max(np.abs(got.mem_n - omn)) < 1e-12


def test_run_matches_unrolled_oracle(rng):
    params = random_params(rng, 2, steps=3, patch_side=4, seed=7)
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    result = run(dfield, params)
    want = oracles.run_oracle(dfield, params)
    assert len(result.states) == len(want) == 4
    for state, (c, n, mc, mn) in zip(result.states, want):
        assert np.max(np.abs(state.c - c)) < 1e-12
        assert np.max(np.abs(state.n - n)) < 1e-12
        assert np.max(np.abs(state.mem_c - mc)) < 1e-12
        assert np.max(np.abs(state.mem_n - mn)) < 1e-12


def test_null_step_params_fix_initial_state(rng):
    params = init_solver_params(3, steps=5, reduced_channels=3, patch_side=4, memory_bypass=True)
    params.alpha = np.zeros(5)
    params.beta = np.zeros(5)
    params.gamma = np.zeros(5)
    dfield = rng.normal(0.0, 2.0, (3, 8, 8))
    result = run(dfield, params)
    zero = np.zeros_like(dfield)
    for state in result.states:
        assert np.array_equal(state.c, zero)
        assert np.array_equal(state.n, dfield)


def test_memory_bypass_keeps_provisional_states(rng):
    params = random_params(rng, 2, steps=1, patch_side=4, seed=3)
    params.memory_bypass = True
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    state = random_state(rng, 2, 8, 8)
    residual = dfield - (state.c + state.n)
    stacked = np.concatenate([state.c, state.n, residual], axis=0)
    new_state, _gate = step(dfield, state, params, 0)
    want_c = state.c + params.alpha[0] * conv3x3_reflect(stacked, params.phi_c)
    want_n = state.n + params.beta[0] * conv3x3_reflect(stacked, params.phi_n)
    assert np.array_equal(new_state.mem_c, want_c)
    assert np.array_equal(new_state.mem_n, want_n)


def test_step_drafts_equal_one_conv_per_branch(rng):
    params = random_params(rng, 3, steps=2, patch_side=4, seed=6)
    dfield = rng.normal(0.0, 1.0, (3, 8, 8))
    state = random_state(rng, 3, 8, 8)
    residual = dfield - (state.c + state.n)
    stacked = np.concatenate([state.c, state.n, residual], axis=0)
    new_state, _gate = step(dfield, state, params, 1)
    prov_c = state.c + params.alpha[1] * conv3x3_reflect(stacked, params.phi_c)
    prov_n = state.n + params.beta[1] * conv3x3_reflect(stacked, params.phi_n)
    assert np.array_equal(new_state.mem_c, memory_update(prov_c, state.mem_c, params.mem_c))
    assert np.array_equal(new_state.mem_n, memory_update(prov_n, state.mem_n, params.mem_n))


def test_gate_bypass_uses_unit_gate(rng):
    params = random_params(rng, 2, steps=1, patch_side=4, seed=4)
    params.gate_bypass = True
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    _state, gate = step(dfield, init_state(dfield), params, 0)
    assert np.array_equal(gate, np.ones((8, 8)))


def test_step_overflow_is_numerical_error(rng):
    params = init_solver_params(2, steps=2, reduced_channels=2, patch_side=4, memory_bypass=True)
    params.alpha = np.full(2, 1e308)
    dfield = rng.normal(0.0, 100.0, (2, 8, 8))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="step 0"):
            step(dfield, init_state(dfield), params, 0)


# The conv's input check is the step's: a bad entry of D reaches the
# residual, and the failure is one ConfigError with no warning on the way.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dfield_is_config_error(rng, bad):
    params = random_params(rng, 2, steps=2, patch_side=4, seed=6)
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    state = init_state(dfield)
    dfield[1, 3, 5] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        step(dfield, state, params, 0)
    with pytest.raises(ConfigError, match="non-finite"):
        run(dfield, params)


def test_step_index_validated(rng):
    params = init_solver_params(2, steps=2, reduced_channels=2, patch_side=4)
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    state = init_state(dfield)
    with pytest.raises(ConfigError):
        step(dfield, state, params, -1)
    with pytest.raises(ConfigError):
        step(dfield, state, params, 2)


def test_run_channel_mismatch(rng):
    params = init_solver_params(3, steps=1, reduced_channels=3, patch_side=4)
    with pytest.raises(ConfigError):
        run(rng.normal(0.0, 1.0, (2, 8, 8)), params)


# ------------------------------------------------------------------ run diagnostics


def test_run_trace_consistency(rng):
    params = init_solver_params(2, steps=3, reduced_channels=2, patch_side=4, seed=5)
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    result = run(dfield, params, patch_groups=((0, 1), (2, 3)))
    assert len(result.states) == 4 and len(result.gates) == 3 and len(result.trace) == 4
    assert result.trace[0].res_norm == 0.0  # initial state closes the residual
    assert result.trace[0].gate_mean is None
    for k, row in enumerate(result.trace):
        assert row.step == k
        state = result.states[k]
        want = frobenius_norm(dfield - (state.c + state.n))
        assert abs(row.res_norm - want) < 1e-12
        if k > 0:
            assert row.sve_changed is not None and row.sve_unchanged is not None
            gate = result.gates[k - 1]
            assert row.gate_min == float(gate.min())
            assert row.gate_max == float(gate.max())
    assert result.final is result.states[-1]


def test_trace_is_built_on_first_read(rng, monkeypatch):
    calls = []
    original = solver._trace_row

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(solver, "_trace_row", counting)
    params = init_solver_params(2, steps=3, reduced_channels=2, patch_side=4, seed=5)
    result = run(rng.normal(0.0, 1.0, (2, 8, 8)), params, patch_groups=((0, 1), (2, 3)))
    assert calls == []
    trace = result.trace
    assert calls == [0, 1, 2, 3]
    assert result.trace is trace
    assert calls == [0, 1, 2, 3]


def test_trace_keeps_run_time_inputs(rng):
    params = init_solver_params(2, steps=3, reduced_channels=2, patch_side=4, seed=5)
    dfield = rng.normal(0.0, 1.0, (2, 8, 8))
    groups = ((0, 1), (2, 3))
    want = run(dfield, params, patch_groups=groups).trace
    result = run(dfield, params, patch_groups=groups)
    params.gate.patch_side = 3  # does not tile 8x8: a trace reading it would raise
    params.gate.epsilon = 0.5
    dfield[:] = 0.0
    assert result.trace == want


def test_predict_hand_check():
    c = np.zeros((2, 1, 2))
    c[0, 0, 0] = 2.0
    c[1, 0, 0] = 1.0
    c[0, 0, 1] = -3.0
    head = HeadParams(weights=np.array([1.0, -1.0]), bias=0.5, threshold=0.4)
    logits, probs, mask = predict(c, head)
    assert np.allclose(logits, [[1.5, -2.5]], atol=1e-15)
    assert np.allclose(probs, 1.0 / (1.0 + np.exp(-np.array([[1.5, -2.5]]))), atol=1e-15)
    assert np.array_equal(mask, [[1.0, 0.0]])
    for weights in (np.array([1.0, 2.0, 3.0]), np.ones((1, 2)), np.array(1.0)):
        with pytest.raises(ConfigError):
            predict(c, HeadParams(weights=weights, bias=0.0))
