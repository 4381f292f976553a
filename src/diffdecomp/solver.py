"""K-step unrolled refinement of a difference-field decomposition.

The solver maintains a change estimate C, a nuisance estimate N, and one
recurrent memory per branch.  One step, given the input field D:

1. residual ``R = D - (C + N)``
2. coupled drafts ``dC = conv3x3(phi_c, [C, N, R])`` and likewise ``dN``
   (reflective padding, no nonlinearity)
3. scaled updates ``alpha_k * dC`` / ``beta_k * dN`` and residual injections
   ``gamma_k * psi_c @ R`` / ``gamma_k * psi_n @ R``
4. provisional states ``C + update``, ``N + update``
5. memory update of each provisional state (1x1 gated recurrence, weights
   shared across steps, separate weights per branch)
6. the entropy gate of R scales the injection:
   ``C_next = memory_C + gate * injection_C`` (gate broadcast over channels)

Initial state: C = 0, N = D, memories = 0.  Step scalars are per step;
everything else is shared across steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .core import (ConfigError, NumericalError, as_field, channel_map, field_shape,
                   frobenius_norm, sigmoid)
from .objective import nuisance_mean, separation
from .sve import GateParams, gate_map, init_gate_params

__all__ = [
    "MemoryCell",
    "SolverParams",
    "HeadParams",
    "SolverState",
    "SolverRun",
    "TraceRow",
    "init_memory_cell",
    "init_solver_params",
    "init_head_params",
    "conv3x3_reflect",
    "memory_update",
    "init_state",
    "step",
    "run",
    "predict",
]

_STREAM_PHI_C = 21
_STREAM_PHI_N = 22
_STREAM_HEAD = 23


@dataclass
class MemoryCell:
    """1x1 convolutional gated-recurrence weights for one branch.

    Gates see the channel stack [x, h]; the candidate sees [x, r*h]:

        z = sigmoid(w_z @ [x, h] + b_z)         update gate
        r = sigmoid(w_r @ [x, h] + b_r)         reset gate
        cand = tanh(w_c @ [x, r*h] + b_c)
        h_new = (1 - z) * h + z * cand
    """

    w_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    b_r: np.ndarray
    w_c: np.ndarray
    b_c: np.ndarray


@dataclass
class SolverParams:
    """All learnable and structural solver settings (see module docstring)."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    phi_c: np.ndarray
    phi_n: np.ndarray
    psi_c: np.ndarray
    psi_n: np.ndarray
    mem_c: MemoryCell
    mem_n: MemoryCell
    gate: GateParams
    memory_bypass: bool = False
    gate_bypass: bool = False

    @property
    def channels(self) -> int:
        return int(self.phi_c.shape[0])

    @property
    def steps(self) -> int:
        """The unroll depth K: alpha, beta and gamma hold one scalar per step."""
        return len(self.alpha)


@dataclass
class HeadParams:
    """Linear per-pixel read-out of the change estimate.

    logits = weights . C + bias; probabilities = sigmoid(logits);
    the predicted mask is probabilities > threshold (strict).
    """

    weights: np.ndarray
    bias: float
    threshold: float = 0.4


@dataclass(frozen=True)
class SolverState:
    c: np.ndarray
    n: np.ndarray
    mem_c: np.ndarray
    mem_n: np.ndarray


@dataclass(frozen=True)
class TraceRow:
    step: int
    res_norm: float
    mu_n: float
    separation: float
    gate_min: float | None = None
    gate_mean: float | None = None
    gate_max: float | None = None


@dataclass(frozen=True)
class SolverRun:
    """States and diagnostics of one unrolled run.

    ``states[k]`` is the (C, N) pair after k steps (index 0 = initial state);
    ``gates[k]`` is the gate plane used in step k; ``drafts[k]``, kept only
    when asked for (see :func:`run`), is step k's stacked conv drafts;
    ``trace`` has one row per state.  The trace is computed on first read
    from the states and gates alone (the input field D is ``states[0].n``,
    the run's own copy), so a run whose trace is never read pays nothing for
    it.
    """

    states: tuple
    gates: tuple
    drafts: tuple = ()

    @property
    def final(self) -> SolverState:
        return self.states[-1]

    @cached_property
    def trace(self) -> tuple:
        dfield = self.states[0].n
        return tuple(
            _trace_row(dfield, state, k, self.gates[k - 1] if k else None)
            for k, state in enumerate(self.states)
        )


def init_memory_cell(channels: int) -> MemoryCell:
    """Near-passthrough init: update gate ~0.982 open, candidate = tanh(x).

    Keeps the untrained solver close to the plain (memoryless) update so the
    default dynamics stay contractive; fitting moves the weights from there.
    """
    d = int(channels)
    w_c = np.concatenate([np.eye(d), np.zeros((d, d))], axis=1)
    return MemoryCell(
        w_z=np.zeros((d, 2 * d)),
        b_z=np.full(d, 4.0),
        w_r=np.zeros((d, 2 * d)),
        b_r=np.zeros(d),
        w_c=w_c,
        b_c=np.zeros(d),
    )


def init_solver_params(
    channels: int,
    steps: int = 3,
    reduced_channels: int = 4,
    patch_side: int = 8,
    epsilon: float = 1e-8,
    seed: int = 0,
    memory_bypass: bool = False,
) -> SolverParams:
    """Seeded defaults: scalars 0.5, psi identity, phi ~ U(-s, s), s=1/sqrt(27d)."""
    d = int(channels)
    steps = int(steps)
    if d < 1:
        raise ConfigError(f"channels must be positive, got {d}")
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    bound = 1.0 / np.sqrt(27.0 * d)
    half = np.full(steps, 0.5)
    return SolverParams(
        alpha=half.copy(),
        beta=half.copy(),
        gamma=half.copy(),
        phi_c=rng.uniform_array(seed, _STREAM_PHI_C, (d, 3 * d, 3, 3), -bound, bound),
        phi_n=rng.uniform_array(seed, _STREAM_PHI_N, (d, 3 * d, 3, 3), -bound, bound),
        psi_c=np.eye(d),
        psi_n=np.eye(d),
        mem_c=init_memory_cell(d),
        mem_n=init_memory_cell(d),
        gate=init_gate_params(d, reduced_channels, patch_side, epsilon, seed),
        memory_bypass=bool(memory_bypass),
    )


def init_head_params(channels: int, threshold: float = 0.4, seed: int = 0) -> HeadParams:
    d = int(channels)
    bound = 1.0 / np.sqrt(d)
    return HeadParams(
        weights=rng.uniform_array(seed, _STREAM_HEAD, (d,), -bound, bound),
        bias=0.0,
        threshold=float(threshold),
    )


def conv3x3_reflect(x, weights) -> np.ndarray:
    """3x3 cross-correlation with mirror padding (edge pixel not repeated).

    ``out[o, i, j] = sum_{c,a,b} weights[o, c, a, b] * xpad[c, i+a, j+b]``
    where xpad mirrors about the border pixel (numpy pad mode "reflect").
    """
    x = as_field(x, "conv3x3_reflect")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ConfigError(f"conv weights must be (out, in, 3, 3), got {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ConfigError(f"conv expects {w.shape[1]} input channels, field has {x.shape[0]}")
    if x.shape[1] < 2 or x.shape[2] < 2:
        raise ConfigError("conv3x3_reflect needs height and width >= 2")
    d_in, h, width = x.shape
    d_out = w.shape[0]
    # The mirror pad by copies: rows first, then whole columns, so the
    # corners mirror the mirrored rows as numpy's pad does.
    pad = np.empty((d_in, h + 2, width + 2))
    pad[:, 1:-1, 1:-1] = x
    pad[:, 0, 1:-1] = x[:, 1]
    pad[:, -1, 1:-1] = x[:, -2]
    pad[:, :, 0] = pad[:, :, 2]
    pad[:, :, -1] = pad[:, :, -3]
    # One GEMM applies every tap to the whole padded grid; tap (a, b) then
    # contributes its grid shifted by (a, b).
    taps = w.transpose(2, 3, 0, 1).reshape(9 * d_out, d_in) @ pad.reshape(d_in, -1)
    taps = taps.reshape(3, 3, d_out, h + 2, width + 2)
    out = taps[0, 0, :, :h, :width].copy()
    for a in range(3):
        for b in range(3):
            if a or b:
                out += taps[a, b, :, a : a + h, b : b + width]
    return out


def memory_update(x, h, cell: MemoryCell) -> np.ndarray:
    """One gated-recurrence update (see :class:`MemoryCell`)."""
    xh = np.concatenate([x, h], axis=0)
    # Both gates read [x, h]: one map and one sigmoid, then split.
    w_zr = np.concatenate([cell.w_z, cell.w_r])
    b_zr = np.concatenate([cell.b_z, cell.b_r])
    zr = sigmoid(channel_map(w_zr, xh) + b_zr[:, None, None])
    d = h.shape[0]
    z, r = zr[:d], zr[d:]
    xrh = np.concatenate([x, r * h], axis=0)
    cand = np.tanh(channel_map(cell.w_c, xrh) + cell.b_c[:, None, None])
    return (1.0 - z) * h + z * cand


def _initial_state(d: np.ndarray) -> SolverState:
    zero = np.zeros_like(d)
    return SolverState(c=zero.copy(), n=d.copy(), mem_c=zero.copy(), mem_n=zero.copy())


def init_state(dfield) -> SolverState:
    """C = 0, N = D, memories = 0."""
    return _initial_state(as_field(dfield, "init_state"))


def step(dfield, state: SolverState, params: SolverParams, k: int, drafts=None, gate=None):
    """One unrolled step; returns (next state, gate plane used, conv drafts).

    The drafts are the conv output of both branches, C's channels first.
    ``drafts`` and ``gate``, when given, are this step's drafts and gate plane
    from a run that reached the same state: the drafts of one with the same
    ``phi_c``/``phi_n``, the gate of one with the same gate parameters.  The
    step then uses them in place of computing them.

    Raises :class:`NumericalError` naming the step when the new C or N has a
    non-finite entry (an overflow from finite inputs).  A non-finite entry of
    D fails the conv's input check (with ``drafts`` given, that of the run
    that made them): it reaches the residual, and C + N is finite (the
    previous step checked it, or C and N were built from D).
    """
    dfield = field_shape(dfield, "step")
    if not 0 <= int(k) < params.steps:
        raise ConfigError(f"step index {k} out of range [0, {params.steps})")
    k = int(k)
    residual = dfield - (state.c + state.n)
    if drafts is None:
        stacked = np.concatenate([state.c, state.n, residual], axis=0)
        drafts = conv3x3_reflect(stacked, np.concatenate([params.phi_c, params.phi_n]))
    d = dfield.shape[0]
    draft_c, draft_n = drafts[:d], drafts[d:]
    update_c = params.alpha[k] * draft_c
    update_n = params.beta[k] * draft_n
    prov_c = state.c + update_c
    prov_n = state.n + update_n
    if params.memory_bypass:
        mem_c, mem_n = prov_c, prov_n
    else:
        mem_c = memory_update(prov_c, state.mem_c, params.mem_c)
        mem_n = memory_update(prov_n, state.mem_n, params.mem_n)
    if gate is None:
        if params.gate_bypass:
            gate = np.ones(dfield.shape[1:], dtype=np.float64)
        else:
            gate = gate_map(residual, params.gate)
    # The gated injections and the new C and N are checked right below, so
    # an overflow there is reported once, as a NumericalError.
    with np.errstate(over="ignore", invalid="ignore"):
        new_c = mem_c + gate[None, :, :] * (params.gamma[k] * channel_map(params.psi_c, residual))
        new_n = mem_n + gate[None, :, :] * (params.gamma[k] * channel_map(params.psi_n, residual))
        # One scan: the sum is non-finite when either term is.
        if not np.all(np.isfinite(new_c + new_n)):
            raise NumericalError(f"step {k}: non-finite change or nuisance estimate")
    return SolverState(c=new_c, n=new_n, mem_c=mem_c, mem_n=mem_n), gate, drafts


def _trace_row(dfield, state, k, gate) -> TraceRow:
    res = frobenius_norm(dfield - (state.c + state.n))
    gmin = gmean = gmax = None
    if gate is not None:
        gmin, gmean, gmax = float(gate.min()), float(gate.mean()), float(gate.max())
    return TraceRow(
        step=k,
        res_norm=res,
        mu_n=nuisance_mean(state.n),
        separation=separation(state.c, state.n),
        gate_min=gmin,
        gate_mean=gmean,
        gate_max=gmax,
    )


def run(dfield, params: SolverParams, centre: SolverRun | None = None, reach=None,
        keep_drafts: bool = False) -> SolverRun:
    """Unroll the steps from the canonical initial state, or resume ``centre``.

    ``centre`` is a run of the same field with drafts kept, by parameters that
    differ from ``params`` only as ``reach = (s, same_drafts, same_gate)`` allows
    (:attr:`params.Leaf.reach`).  The run takes its states 0..s, and for step s
    its drafts and gate plane where the flags say.  With ``keep_drafts`` the
    run keeps the drafts of each step it makes.
    """
    dfield = as_field(dfield, "run")
    if dfield.shape[0] != params.channels:
        raise ConfigError(
            f"params built for {params.channels} channels, field has {dfield.shape[0]}"
        )
    drafts = gate = None
    if centre is None:
        states, gates = [_initial_state(dfield)], []
    else:
        s, same_drafts, same_gate = reach
        if not len(centre.drafts) == len(centre.gates) == params.steps >= s >= 0:
            raise ConfigError(
                f"a centre of {len(centre.gates)} steps with {len(centre.drafts)} kept drafts"
                f" cannot resume a run of {params.steps} steps at state {s}"
            )
        states, gates = list(centre.states[: s + 1]), list(centre.gates[:s])
        if s < params.steps:
            drafts = centre.drafts[s] if same_drafts else None
            gate = centre.gates[s] if same_gate else None
    kept = []
    for k in range(len(gates), params.steps):
        state, gate, drafts = step(dfield, states[-1], params, k, drafts, gate)
        states.append(state)
        gates.append(gate)
        if keep_drafts:
            kept.append(drafts)
        # reused parts serve step k alone; this step's drafts are not held into the next
        drafts = gate = None
    return SolverRun(states=tuple(states), gates=tuple(gates), drafts=tuple(kept))


def predict(c_field, head: HeadParams):
    """(logits, probabilities, predicted mask) from the change estimate."""
    c = as_field(c_field, "predict")
    # channel_map rejects weights that are not one value per channel.
    w = np.asarray(head.weights, dtype=np.float64)
    logits = channel_map(w[None], c)[0] + float(head.bias)
    probs = sigmoid(logits)
    return logits, probs, (probs > head.threshold).astype(np.float64)

