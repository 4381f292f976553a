"""The full learnable bundle and its flat-text serialization.

The on-disk format is one ``name = value`` line per quantity; arrays are
flattened C-order, entries written with ``repr`` (shortest float64
round-trip) and separated by single spaces.  Shapes are reconstructed from
the integer metadata keys, so the file stays flat.

:data:`LEAVES` is the one list of learnable quantities: the file's entries,
their checks on load, the fit groups and the fit's packing all come from it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .core import ConfigError, parse_name_values, read_utf8
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
    "Leaf",
    "LEAVES",
    "replace_leaves",
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


class Leaf(NamedTuple):
    """One learnable quantity of the bundle.

    ``key`` names it in the params file, ``path`` is its dotted attribute
    path from :class:`ModelParams`, ``group`` is its fit group, and ``shape``
    maps (channels, steps, reduced_channels) to its shape; ``()`` marks a
    scalar, held as a Python float.
    """

    key: str
    path: str
    group: str
    shape: Callable

    def get(self, params: ModelParams):
        return reduce(getattr, self.path.split("."), params)


_SCALAR, _VECTOR, _SQUARE = (lambda *_: ()), (lambda d, *_: (d,)), (lambda d, *_: (d, d))

# Every learnable quantity, in file order.  Serialization, loading, the fit
# groups and the fit's parameter packing are all derived from this tuple.
LEAVES = (
    *(Leaf(n, f"solver.{n}", "steps", lambda d, k, r: (k,)) for n in ("alpha", "beta", "gamma")),
    Leaf("phi_c", "solver.phi_c", "coupling", lambda d, k, r: (d, 3 * d, 3, 3)),
    Leaf("phi_n", "solver.phi_n", "coupling", lambda d, k, r: (d, 3 * d, 3, 3)),
    *(Leaf(n, f"solver.{n}", "injection", _SQUARE) for n in ("psi_c", "psi_n")),
    *(
        Leaf(f"{cell}_w_{g}", f"solver.{cell}.w_{g}", "memory", lambda d, k, r: (d, 2 * d))
        if w == "w"
        else Leaf(f"{cell}_b_{g}", f"solver.{cell}.b_{g}", "memory_bias", _VECTOR)
        for cell in ("mem_c", "mem_n")
        for g in "zrc"
        for w in "wb"
    ),
    Leaf("gate_reducer", "solver.gate.reducer", "gate_reducer", lambda d, k, r: (r, d)),
    Leaf("gate_scale", "solver.gate.scale", "gate", _SCALAR),
    Leaf("gate_shift", "solver.gate.shift", "gate", _SCALAR),
    Leaf("head_weights", "head.weights", "head", _VECTOR),
    Leaf("head_bias", "head.bias", "head", _SCALAR),
    *(
        Leaf(f"align_{x}_{band}", f"align.{x}_{band}", "align", _SQUARE if x == "psi" else _SCALAR)
        for band in "ahvd"
        for x in ("eta", "psi")
    ),
)


def replace_leaves(params: ModelParams, values) -> ModelParams:
    """A bundle holding ``values``, pairs of (:class:`Leaf`, new value).

    All containers are new, so rebinding an attribute of the result never
    reaches ``params``; the arrays of the other leaves are shared.
    """
    s = params.solver
    solver = replace(s, mem_c=replace(s.mem_c), mem_n=replace(s.mem_n), gate=replace(s.gate))
    out = ModelParams(solver=solver, align=replace(params.align), head=replace(params.head))
    for leaf, value in values:
        *parents, name = leaf.path.split(".")
        setattr(reduce(getattr, parents, out), name, value)
    return out


def parameter_count(params: ModelParams) -> int:
    return sum(int(np.size(leaf.get(params))) for leaf in LEAVES)


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
    for leaf in LEAVES:
        flat = np.ravel(np.asarray(leaf.get(params), dtype=np.float64))
        lines.append(f"{leaf.key} = " + " ".join(repr(float(v)) for v in flat))
    return "\n".join(lines) + "\n"


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
    """Parse a params file, checking each entry against the header's sizes.

    A missing, unparsable, non-finite or wrongly sized entry raises
    :class:`ConfigError` naming it.  Arrays are built only from the values
    the file holds, never from the sizes its header claims.
    """
    table = parse_name_values(text, "params")
    if table.get(FORMAT_KEY) != FORMAT_VALUE:
        raise ConfigError(f"unsupported params format {table.get(FORMAT_KEY)!r}")

    def get_value(name, shape):
        if name not in table:
            raise ConfigError(f"params file is missing {name}")
        flat = _finite_floats(name, table[name])
        if flat.size != math.prod(shape):
            raise ConfigError(f"{name}: expected {math.prod(shape)} values, got {flat.size}")
        return float(flat[0]) if shape == () else flat.reshape(shape)

    def get_int(name, default=None):
        if name not in table and default is None:
            raise ConfigError(f"params file is missing {name}")
        try:
            return int(table.get(name, default))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    dims = {name: get_int(name) for name in ("channels", "steps", "reduced_channels")}
    for name, value in dims.items():
        if value < 0:
            raise ConfigError(f"{name}: must be non-negative, got {value}")
    patch_side = get_int("patch_side")
    if patch_side < 1:
        raise ConfigError(f"patch_side: must be >= 1, got {patch_side}")
    memory_bypass, gate_bypass = get_int("memory_bypass"), get_int("gate_bypass", "0")
    for name, value in (("memory_bypass", memory_bypass), ("gate_bypass", gate_bypass)):
        if value not in (0, 1):
            raise ConfigError(f"{name}: must be 0 or 1, got {value}")
    epsilon = get_value("epsilon", ())
    if epsilon < 0:
        raise ConfigError(f"epsilon: must be >= 0, got {epsilon!r}")
    threshold = get_value("threshold", ())
    fields = {}  # container path -> {attribute: value}, filled in file order
    for leaf in LEAVES:
        container, name = leaf.path.rsplit(".", 1)
        fields.setdefault(container, {})[name] = get_value(leaf.key, leaf.shape(*dims.values()))
    solver = SolverParams(
        mem_c=MemoryCell(**fields["solver.mem_c"]),
        mem_n=MemoryCell(**fields["solver.mem_n"]),
        gate=GateParams(patch_side=patch_side, epsilon=epsilon, **fields["solver.gate"]),
        memory_bypass=bool(memory_bypass),
        gate_bypass=bool(gate_bypass),
        **fields["solver"],
    )
    head = HeadParams(threshold=threshold, **fields["head"])
    return ModelParams(solver=solver, align=AlignParams(**fields["align"]), head=head)


def save_params(path, params: ModelParams) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_params(params))


def load_params(path) -> ModelParams:
    return loads_params(read_utf8(path))
