"""The full learnable bundle and its flat-text serialization.

The on-disk format is one ``name = value`` line per quantity; arrays are
flattened C-order, entries written with ``repr`` (shortest float64
round-trip) and separated by single spaces.  Shapes are reconstructed from
the integer metadata keys, so the file stays flat.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import ConfigError
from .solver import (
    HeadParams,
    MemoryCell,
    SolverParams,
    init_head_params,
    init_solver_params,
)
from .sve import GateParams
from .wavelet import AlignParams

__all__ = [
    "ModelParams",
    "init_model_params",
    "copy_params",
    "parameter_count",
    "dumps_params",
    "loads_params",
    "save_params",
    "load_params",
]

FORMAT_KEY = "format"
FORMAT_VALUE = "diffdecomp-params-1"


@dataclass
class ModelParams:
    """Everything the fit can touch: solver, subband alignment, read-out head."""

    solver: SolverParams
    align: AlignParams
    head: HeadParams


def init_model_params(
    channels: int = 4,
    steps: int = 3,
    reduced_channels: int = 4,
    patch_side: int = 8,
    epsilon: float = 1e-8,
    seed: int = 0,
    threshold: float = 0.4,
    eta_a: float = 0.5,
    eta_detail: float = 0.1,
    memory_bypass: bool = False,
) -> ModelParams:
    return ModelParams(
        solver=init_solver_params(
            channels,
            steps=steps,
            reduced_channels=reduced_channels,
            patch_side=patch_side,
            epsilon=epsilon,
            seed=seed,
            memory_bypass=memory_bypass,
        ),
        align=AlignParams.identity(channels, eta_a=eta_a, eta_detail=eta_detail),
        head=init_head_params(channels, threshold=threshold, seed=seed),
    )


def copy_params(params: ModelParams) -> ModelParams:
    return copy.deepcopy(params)


def _leaves(params: ModelParams):
    """(name, getter, setter, kind) for every learnable quantity.

    kind: "array" or "scalar".  Order is fixed; serialization and the fit's
    parameter packing both rely on it.
    """
    s = params.solver

    def arr(name, get, set_):
        return (name, get, set_, "array")

    def sca(name, get, set_):
        return (name, get, set_, "scalar")

    leaves = [
        arr("alpha", lambda p: p.solver.alpha, lambda p, v: setattr(p.solver, "alpha", v)),
        arr("beta", lambda p: p.solver.beta, lambda p, v: setattr(p.solver, "beta", v)),
        arr("gamma", lambda p: p.solver.gamma, lambda p, v: setattr(p.solver, "gamma", v)),
        arr("phi_c", lambda p: p.solver.phi_c, lambda p, v: setattr(p.solver, "phi_c", v)),
        arr("phi_n", lambda p: p.solver.phi_n, lambda p, v: setattr(p.solver, "phi_n", v)),
        arr("psi_c", lambda p: p.solver.psi_c, lambda p, v: setattr(p.solver, "psi_c", v)),
        arr("psi_n", lambda p: p.solver.psi_n, lambda p, v: setattr(p.solver, "psi_n", v)),
    ]
    for branch in ("mem_c", "mem_n"):
        for w in ("w_z", "b_z", "w_r", "b_r", "w_c", "b_c"):
            leaves.append(
                arr(
                    f"{branch}_{w}",
                    lambda p, branch=branch, w=w: getattr(getattr(p.solver, branch), w),
                    lambda p, v, branch=branch, w=w: setattr(getattr(p.solver, branch), w, v),
                )
            )
    leaves += [
        arr("gate_reducer", lambda p: p.solver.gate.reducer, lambda p, v: setattr(p.solver.gate, "reducer", v)),
        sca("gate_scale", lambda p: p.solver.gate.scale, lambda p, v: setattr(p.solver.gate, "scale", v)),
        sca("gate_shift", lambda p: p.solver.gate.shift, lambda p, v: setattr(p.solver.gate, "shift", v)),
        arr("head_weights", lambda p: p.head.weights, lambda p, v: setattr(p.head, "weights", v)),
        sca("head_bias", lambda p: p.head.bias, lambda p, v: setattr(p.head, "bias", v)),
    ]
    for band in ("a", "h", "v", "d"):
        leaves.append(
            sca(
                f"align_eta_{band}",
                lambda p, band=band: getattr(p.align, f"eta_{band}"),
                lambda p, v, band=band: setattr(p.align, f"eta_{band}", v),
            )
        )
        leaves.append(
            arr(
                f"align_psi_{band}",
                lambda p, band=band: getattr(p.align, f"psi_{band}"),
                lambda p, v, band=band: setattr(p.align, f"psi_{band}", v),
            )
        )
    del s
    return leaves


def parameter_count(params: ModelParams) -> int:
    total = 0
    for _name, get, _set, kind in _leaves(params):
        total += int(np.asarray(get(params)).size) if kind == "array" else 1
    return total


def dumps_params(params: ModelParams) -> str:
    s = params.solver
    lines = [
        f"{FORMAT_KEY} = {FORMAT_VALUE}",
        f"channels = {s.channels}",
        f"steps = {s.steps}",
        f"reduced_channels = {s.gate.reduced_channels}",
        f"patch_side = {s.gate.patch_side}",
        f"epsilon = {s.gate.epsilon!r}",
        f"memory_bypass = {1 if s.memory_bypass else 0}",
        f"gate_bypass = {1 if s.gate_bypass else 0}",
        f"threshold = {params.head.threshold!r}",
    ]
    for name, get, _set, kind in _leaves(params):
        value = get(params)
        if kind == "scalar":
            lines.append(f"{name} = {float(value)!r}")
        else:
            flat = np.asarray(value, dtype=np.float64).ravel()
            lines.append(f"{name} = " + " ".join(repr(float(v)) for v in flat))
    return "\n".join(lines) + "\n"


def _parse_lines(text: str) -> dict:
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"params line {lineno}: expected 'name = value', got {raw!r}")
        name, value = line.split("=", 1)
        table[name.strip()] = value.strip()
    return table


def _finite_floats(name: str, text: str) -> np.ndarray:
    """The whitespace-separated values of one params entry; all must be finite."""
    try:
        values = np.array([float(v) for v in text.split()], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name}: non-finite value")
    return values


def loads_params(text: str) -> ModelParams:
    table = _parse_lines(text)
    if table.get(FORMAT_KEY) != FORMAT_VALUE:
        raise ConfigError(f"unsupported params format {table.get(FORMAT_KEY)!r}")

    def get_scalar(name):
        if name not in table:
            raise ConfigError(f"params file is missing {name}")
        value = _finite_floats(name, table[name])
        if value.size != 1:
            raise ConfigError(f"{name}: expected one value, got {value.size}")
        return float(value[0])

    def get_int(name, default=None):
        if name not in table and default is None:
            raise ConfigError(f"params file is missing {name}")
        try:
            return int(table.get(name, default))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    channels = get_int("channels")
    steps = get_int("steps")
    reduced = get_int("reduced_channels")
    patch_side = get_int("patch_side")
    memory_bypass = bool(get_int("memory_bypass"))
    gate_bypass = bool(get_int("gate_bypass", "0"))
    epsilon = get_scalar("epsilon")
    threshold = get_scalar("threshold")
    d = channels
    shapes = {
        "alpha": (steps,),
        "beta": (steps,),
        "gamma": (steps,),
        "phi_c": (d, 3 * d, 3, 3),
        "phi_n": (d, 3 * d, 3, 3),
        "psi_c": (d, d),
        "psi_n": (d, d),
        "gate_reducer": (reduced, d),
        "head_weights": (d,),
    }
    for branch in ("mem_c", "mem_n"):
        shapes[f"{branch}_w_z"] = (d, 2 * d)
        shapes[f"{branch}_b_z"] = (d,)
        shapes[f"{branch}_w_r"] = (d, 2 * d)
        shapes[f"{branch}_b_r"] = (d,)
        shapes[f"{branch}_w_c"] = (d, 2 * d)
        shapes[f"{branch}_b_c"] = (d,)
    for band in ("a", "h", "v", "d"):
        shapes[f"align_psi_{band}"] = (d, d)

    def get_array(name):
        if name not in table:
            raise ConfigError(f"params file is missing {name}")
        flat = _finite_floats(name, table[name])
        want = shapes[name]
        if flat.size != int(np.prod(want)):
            raise ConfigError(f"{name}: expected {int(np.prod(want))} values, got {flat.size}")
        return flat.reshape(want)

    def cell(branch):
        return MemoryCell(
            w_z=get_array(f"{branch}_w_z"),
            b_z=get_array(f"{branch}_b_z"),
            w_r=get_array(f"{branch}_w_r"),
            b_r=get_array(f"{branch}_b_r"),
            w_c=get_array(f"{branch}_w_c"),
            b_c=get_array(f"{branch}_b_c"),
        )

    solver = SolverParams(
        steps=steps,
        alpha=get_array("alpha"),
        beta=get_array("beta"),
        gamma=get_array("gamma"),
        phi_c=get_array("phi_c"),
        phi_n=get_array("phi_n"),
        psi_c=get_array("psi_c"),
        psi_n=get_array("psi_n"),
        mem_c=cell("mem_c"),
        mem_n=cell("mem_n"),
        gate=GateParams(
            reducer=get_array("gate_reducer"),
            patch_side=patch_side,
            epsilon=epsilon,
            scale=get_scalar("gate_scale"),
            shift=get_scalar("gate_shift"),
        ),
        memory_bypass=memory_bypass,
        gate_bypass=gate_bypass,
    )
    align = AlignParams(
        eta_a=get_scalar("align_eta_a"),
        eta_h=get_scalar("align_eta_h"),
        eta_v=get_scalar("align_eta_v"),
        eta_d=get_scalar("align_eta_d"),
        psi_a=get_array("align_psi_a"),
        psi_h=get_array("align_psi_h"),
        psi_v=get_array("align_psi_v"),
        psi_d=get_array("align_psi_d"),
    )
    head = HeadParams(weights=get_array("head_weights"), bias=get_scalar("head_bias"), threshold=threshold)
    return ModelParams(solver=solver, align=align, head=head)


def save_params(path, params: ModelParams) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_params(params))


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_params(fh.read())
