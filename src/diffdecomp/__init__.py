"""Physics-guided decomposition of feature-difference fields.

The package splits a multi-channel difference field D into a change part C
and a nuisance part N with a small unrolled solver, guided by patch-wise
singular-value entropy, wavelet subband alignment, and a staged regularizer.
Everything is plain float64 numpy and deterministic under seeded
counter-based RNG streams.
"""

from .convergence import (
    ContractionReport,
    GeometricBound,
    consistency_distance,
    contraction_report,
    geometric_bound,
    mismatch_score,
    scores_from_residuals,
)
from .core import (
    ConfigError,
    NumericalError,
    PatchLayout,
    frobenius_norm,
    patch_matrices,
    patch_matrix,
    sigmoid,
    singular_values,
)
from .csvio import render_csv, write_csv
from .experiments import ExperimentConfig, parse_config_text, run_checks
from .fit import (
    FitConfig,
    FitDivergedError,
    FitError,
    FitResult,
    fd_gradient,
    fit,
    fit_model,
)
from .objective import (
    LossReport,
    StageConfig,
    band_loss,
    bce_dice_loss,
    exploration_loss,
    f1_score,
    nuisance_mean,
    separation,
    staged_loss,
    total_loss,
)
from .params import (
    ModelParams,
    init_model_params,
    load_params,
    loads_params,
    parameter_count,
    save_params,
    dumps_params,
)
from .solver import (
    HeadParams,
    MemoryCell,
    SolverParams,
    SolverRun,
    SolverState,
    init_solver_params,
    init_state,
    predict,
    run,
    step,
)
from .sve import GateParams, gate_map, init_gate_params, patch_entropies, sve_map
from .synth import BitemporalPair, SynthInstance, SynthSpec, gen_bitemporal, gen_instance
from .tensorio import TensorFormatError, read_tensor, write_tensor
from .wavelet import (
    AlignParams,
    Subbands,
    align_subbands,
    dwt2_haar,
    idwt2_haar,
    suppress_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericalError",
    "PatchLayout",
    "frobenius_norm",
    "patch_matrix",
    "patch_matrices",
    "sigmoid",
    "singular_values",
    "GateParams",
    "init_gate_params",
    "patch_entropies",
    "sve_map",
    "gate_map",
    "Subbands",
    "AlignParams",
    "dwt2_haar",
    "idwt2_haar",
    "align_subbands",
    "suppress_pair",
    "MemoryCell",
    "SolverParams",
    "SolverState",
    "SolverRun",
    "HeadParams",
    "init_solver_params",
    "init_state",
    "step",
    "run",
    "predict",
    "StageConfig",
    "LossReport",
    "separation",
    "nuisance_mean",
    "exploration_loss",
    "band_loss",
    "staged_loss",
    "bce_dice_loss",
    "total_loss",
    "f1_score",
    "ContractionReport",
    "GeometricBound",
    "mismatch_score",
    "scores_from_residuals",
    "contraction_report",
    "geometric_bound",
    "consistency_distance",
    "SynthSpec",
    "SynthInstance",
    "BitemporalPair",
    "gen_instance",
    "gen_bitemporal",
    "FitConfig",
    "FitResult",
    "FitError",
    "FitDivergedError",
    "fd_gradient",
    "fit",
    "fit_model",
    "ModelParams",
    "init_model_params",
    "parameter_count",
    "dumps_params",
    "loads_params",
    "save_params",
    "load_params",
    "TensorFormatError",
    "read_tensor",
    "write_tensor",
    "render_csv",
    "write_csv",
    "ExperimentConfig",
    "parse_config_text",
    "run_checks",
    "__version__",
]
