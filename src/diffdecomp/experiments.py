"""Experiment drivers shared by the command-line tool and the test suite.

Everything here is deterministic in (config, seed): instance seeds are derived
from the base seed (fit batch uses ``seed + 10000 + i``, evaluation uses
``seed + i``), fits are plain seeded gradient descent, and all reported rows
are pure functions of the config.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from . import rng
from .convergence import consistency_distance, contraction_report, scores_from_residuals
from .core import ConfigError, NumericalError, frobenius_norm, parse_name_values, singular_values
from .fit import FitResult, _forked, _selected_leaves, apply_theta, fit, pack_params
from .objective import LossReport, StageConfig, f1_score, nuisance_mean, separation, total_loss
from .params import ModelParams, init_model_params, replace_leaves
from .solver import SolverRun, init_state, predict, run, step
from .sve import group_means, patch_entropies
from .synth import BitemporalPair, SynthInstance, SynthSpec, gen_bitemporal, gen_instance
from .synth import check_spec
from .wavelet import AlignParams, align_subbands, dwt2_haar, idwt2_haar, suppress_pair

__all__ = [
    "ExperimentConfig",
    "config_from_mapping",
    "parse_config_text",
    "canonical_config_text",
    "make_spec",
    "make_item",
    "make_model",
    "make_stage",
    "resolve_lam_rec",
    "difference_field",
    "evaluate_instance",
    "fit_on_batch",
    "sve_prior_rows",
    "contraction_rows",
    "replay_rows",
    "ablation_rows",
    "ksweep_rows",
    "sensitivity_rows",
    "run_checks",
    "MARGIN_GRID",
    "BAND_GRID",
    "WEIGHT_GRID",
]

MARGIN_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
BAND_GRID = ((0.01, 0.20), (0.03, 0.30), (0.05, 0.40), (0.08, 0.50), (0.10, 0.60))
WEIGHT_GRID = ((0.1, 0.5), (0.3, 0.5), (0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration (every key settable via name=value)."""

    seed: int = 0
    channels: int = 4
    height: int = 32
    width: int = 32
    patch_side: int = 8
    steps: int = 3
    reduced_channels: int = 4
    rectangles: str = "4,4,8,8;20,18,8,8"
    change_amplitude: float = 1.0
    nuisance_amplitude: float = 0.5
    noise_sigma: float = 0.05
    illumination: float = 0.3
    margin: float = 0.3
    band_lo: float = 0.05
    band_hi: float = 0.40
    weight_margin: float = 0.5
    weight_band: float = 1.0
    lam_rec: str = "auto"
    threshold: float = 0.4
    eta_a: float = 0.5
    eta_detail: float = 0.1
    epsilon: float = 1e-8
    learning_rate: float = 0.05
    iterations: int = 60
    step_size: float = 1e-4
    groups: str = "steps,gate,head,memory_bias"
    instances: int = 4
    eval_seeds: int = 10
    mode: str = "instance"
    use_align: int = 1
    use_gating: int = 1
    use_staged: int = 1
    memory_bypass: int = 0
    k_max: int = 5


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Typed config from a flat string mapping; unknown keys are errors."""
    kwargs = {}
    defaults = ExperimentConfig()
    for key, raw in mapping.items():
        if not hasattr(defaults, key):
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(defaults, key)
        try:
            if isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = str(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {key!r}: {raw!r} is not finite")
        kwargs[key] = value
    cfg = ExperimentConfig(**kwargs)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.mode not in ("instance", "bitemporal"):
        raise ConfigError(f"mode must be 'instance' or 'bitemporal', got {cfg.mode!r}")
    if cfg.instances < 1 or cfg.eval_seeds < 1:
        raise ConfigError("instances and eval_seeds must be >= 1")
    for key in ("seed", "steps", "iterations", "k_max", "learning_rate"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"config key {key!r} must be >= 0, got {getattr(cfg, key)}")
    # with epsilon = 0, p ln(p + epsilon) is NaN at p = 0
    for key in ("step_size", "epsilon"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"config key {key!r} must be > 0, got {getattr(cfg, key)}")
    # from 0.5 on, the BCE clip [epsilon, 1 - epsilon] is one point or inverted
    if cfg.epsilon >= 0.5:
        raise ConfigError(f"config key 'epsilon' must be < 0.5, got {cfg.epsilon}")
    for key in ("use_align", "use_gating", "use_staged", "memory_bypass"):
        if getattr(cfg, key) not in (0, 1):
            raise ConfigError(f"config key {key!r} must be 0 or 1, got {getattr(cfg, key)}")
    if cfg.band_lo > cfg.band_hi:
        raise ConfigError(f"band ({cfg.band_lo}, {cfg.band_hi}) is inverted")
    if cfg.lam_rec != "auto":
        try:
            lam_rec = float(cfg.lam_rec)
        except ValueError as exc:
            raise ConfigError(f"lam_rec must be 'auto' or a number, got {cfg.lam_rec!r}") from exc
        if not math.isfinite(lam_rec):
            raise ConfigError(f"config key 'lam_rec': {cfg.lam_rec!r} is not finite")
    parse_rectangles(cfg.rectangles)
    _fit_groups(cfg)


def _fit_groups(cfg: ExperimentConfig) -> tuple:
    """The config's comma-separated fit groups; an unknown or repeated one is a ConfigError."""
    groups = tuple(g.strip() for g in cfg.groups.split(",") if g.strip())
    _selected_leaves(groups)
    return groups


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat ``name = value`` lines (hash comments and blanks ignored)."""
    return config_from_mapping(parse_name_values(text, "config"))


def canonical_config_text(cfg: ExperimentConfig) -> str:
    """Stable one-line-per-key rendering used for the CSV provenance hash."""
    items = dataclasses.asdict(cfg)
    return "\n".join(f"{k}={items[k]}" for k in sorted(items)) + "\n"


def parse_rectangles(text: str):
    """'r,c,h,w;r,c,h,w' -> tuple of int 4-tuples; empty string -> ()."""
    text = text.strip()
    if not text:
        return ()
    rects = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        values = [v.strip() for v in part.split(",")]
        if len(values) != 4:
            raise ConfigError(f"rectangle {part!r} is not 'row,col,height,width'")
        try:
            rects.append(tuple(int(v) for v in values))
        except ValueError as exc:
            raise ConfigError(f"rectangle {part!r} has a non-integer entry") from exc
    return tuple(rects)


def make_spec(cfg: ExperimentConfig, seed: int) -> SynthSpec:
    """The config's synthetic spec at ``seed``: every SynthSpec field read from the config."""
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(SynthSpec)}
    values.update(seed=int(seed), rectangles=parse_rectangles(cfg.rectangles))
    return SynthSpec(**values)


def make_item(cfg: ExperimentConfig, seed: int) -> SynthInstance | BitemporalPair:
    """The item at ``seed``: a bi-temporal pair or a decomposition instance, per ``cfg.mode``."""
    spec = make_spec(cfg, seed)
    return gen_bitemporal(spec) if cfg.mode == "bitemporal" else gen_instance(spec)


def make_model(cfg: ExperimentConfig) -> ModelParams:
    model = init_model_params(
        channels=cfg.channels,
        steps=cfg.steps,
        reduced_channels=cfg.reduced_channels,
        patch_side=cfg.patch_side,
        epsilon=cfg.epsilon,
        seed=cfg.seed,
        threshold=cfg.threshold,
        eta_a=cfg.eta_a,
        eta_detail=cfg.eta_detail,
        memory_bypass=bool(cfg.memory_bypass),
    )
    model.solver.gate_bypass = not bool(cfg.use_gating)
    return model


def make_stage(cfg: ExperimentConfig) -> StageConfig:
    wm = cfg.weight_margin if cfg.use_staged else 0.0
    wb = cfg.weight_band if cfg.use_staged else 0.0
    return StageConfig(
        margin=cfg.margin,
        band_lo=cfg.band_lo,
        band_hi=cfg.band_hi,
        weight_margin=wm,
        weight_band=wb,
        epsilon=cfg.epsilon,
    )


def resolve_lam_rec(cfg: ExperimentConfig) -> float:
    """'auto' scales the L1 reconstruction sum to a per-entry mean."""
    if cfg.lam_rec == "auto":
        return 1.0 / float(cfg.channels * cfg.height * cfg.width)
    return float(cfg.lam_rec)


def difference_field(item, align: AlignParams, use_align: bool) -> np.ndarray:
    """The difference field of a generated item.

    Decomposition instances pass through; bi-temporal pairs are subband-
    aligned (unless disabled) and differenced.  A difference that overflows
    raises :class:`NumericalError`.
    """
    if isinstance(item, SynthInstance):
        return item.dfield
    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2 = suppress_pair(item.f1, item.f2, align) if use_align else (item.f1, item.f2)
        dfield = f2 - f1
    if not np.all(np.isfinite(dfield)):
        raise NumericalError("difference field: non-finite entries")
    return dfield


def evaluate_instance(model: ModelParams, item, cfg: ExperimentConfig, stage: StageConfig):
    """(run, LossReport, f1) of one generated item under a bundle.

    Per-group SVE is not computed here; :func:`sve_prior_rows` reports it.
    """
    dfield = difference_field(item, model.align, bool(cfg.use_align))
    solver_run = run(dfield, model.solver)
    report, mask = _score(model, solver_run, dfield, item.labels, cfg, stage)
    return solver_run, report, f1_score(mask, item.labels)


def _score(model: ModelParams, solver_run: SolverRun, dfield, labels, cfg: ExperimentConfig,
           stage: StageConfig):
    """(LossReport, predicted mask) of the bundle's run of an item's difference field."""
    _, probs, mask = predict(solver_run.final.c, model.head)
    return total_loss(dfield, labels, solver_run.states, probs, stage, resolve_lam_rec(cfg)), mask


_LOSS_FIELDS = tuple(f.name for f in dataclasses.fields(LossReport))


def _mean_report(reports) -> LossReport:
    n = float(len(reports))
    return LossReport(**{f: sum(getattr(r, f) for r in reports) / n for f in _LOSS_FIELDS})


def fit_on_batch(cfg: ExperimentConfig, model: ModelParams | None = None,
                 stage: StageConfig | None = None) -> FitResult:
    """Fit the configured groups on the config's instance batch (see :func:`_batch_objective`)."""
    if model is None:
        model = make_model(cfg)
    if stage is None:
        stage = make_stage(cfg)
    groups = _fit_groups(cfg)
    report, coordinate_loss = _batch_objective(cfg, model, stage, groups)
    theta, curve = fit(report, pack_params(model, groups), iterations=cfg.iterations,
                       learning_rate=cfg.learning_rate, step_size=cfg.step_size,
                       coordinate_loss=coordinate_loss)
    return FitResult(params=apply_theta(model, groups, theta), theta=theta, curve=curve)


def _batch_objective(cfg: ExperimentConfig, model: ModelParams, stage: StageConfig, groups):
    """(report, coordinate loss) of the bundle's ``groups`` on the config's fit batch.

    ``report(theta)`` is the mean LossReport of the bundle at ``theta``;
    ``loss(theta, i, value)`` is the mean total of that bundle with entry
    ``i`` set to ``value``.  Both read the centre: the bundle at ``theta`` and
    each item's run of it with drafts kept.  A process makes the centre on its
    first call at a new ``theta`` and keeps that one alone, so in a fit the
    report after each update is the next gradient's centre, and forked
    workers inherit the centre of the first ``theta``.

    Unless ``align`` is fitted, each item's difference field is the same for
    every bundle, so it is made once, here.  A moved entry replaces its leaf
    in the centre's bundle, and its run resumes the centre's where the leaf
    says (:attr:`params.Leaf.reach`), one item at a time: the same arithmetic
    on the same inputs as a whole run, so the same bits.
    """
    batch = [make_item(cfg, cfg.seed + 10_000 + i) for i in range(cfg.instances)]

    def fields_of(bundle: ModelParams):
        return [difference_field(item, bundle.align, bool(cfg.use_align)) for item in batch]

    def mean_report(bundle: ModelParams, fields, runs) -> LossReport:
        """The mean LossReport of the runs of ``fields``, in batch order.

        ``map`` frees each run once scored, before ``runs`` makes the next; a
        comprehension's loop variable would hold it, and two moved runs at
        once made the heap shrink and regrow at every coordinate.
        """
        def item_report(d, solver_run, item):
            return _score(bundle, solver_run, d, item.labels, cfg, stage)[0]

        return _mean_report(list(map(item_report, fields, runs, batch)))

    fixed = None if "align" in groups else fields_of(model)
    # coordinate i -> (leaf, flat index of its entry)
    coordinates = [(leaf, j) for leaf in _selected_leaves(groups)
                   for j in range(np.size(leaf.get(model)))]
    centre = {}  # theta's bytes -> (bundle, fields, runs with drafts), one item each

    def centre_at(theta):
        key = theta.tobytes()
        if key not in centre:
            centre.clear()
            bundle = apply_theta(model, groups, theta)
            fields = fields_of(bundle) if fixed is None else fixed
            centre[key] = bundle, fields, [run(d, bundle.solver, keep_drafts=True) for d in fields]
        return centre[key]

    def report(theta) -> LossReport:
        return mean_report(*centre_at(theta))

    def coordinate_loss(theta, i: int, value) -> float:
        bundle, fields, runs = centre_at(theta)
        leaf, j = coordinates[i]
        entries = np.array(leaf.get(bundle), dtype=np.float64)  # a copy
        entries.flat[j] = value
        moved = replace_leaves(bundle, [(leaf, float(entries) if entries.ndim == 0 else entries)])
        reach = leaf.reach(j, moved.solver.steps)
        if reach is None:
            fields = fields_of(moved)
            moved_runs = (run(d, moved.solver) for d in fields)
        else:
            moved_runs = (run(d, moved.solver, c, reach) for d, c in zip(fields, runs))
        return mean_report(moved, fields, moved_runs).total

    return report, coordinate_loss


# ---------------------------------------------------------------- experiments


def _eval_items(cfg: ExperimentConfig):
    """The item at each eval seed, ``cfg.seed + i`` for ``i < cfg.eval_seeds``, one at a time."""
    for i in range(cfg.eval_seeds):
        yield make_item(cfg, cfg.seed + i)


def _group_sve(field, item, cfg: ExperimentConfig) -> tuple:
    """(changed mean SVE, unchanged mean SVE, gap) of ``field`` over the item's patch groups.

    A mean is ``None`` when its group is empty, and so is the gap.
    """
    ent = patch_entropies(field, cfg.patch_side, cfg.epsilon)
    sve_ch, sve_un = group_means(ent, (item.changed_patches, item.unchanged_patches))
    return sve_ch, sve_un, None if sve_ch is None or sve_un is None else sve_ch - sve_un


def sve_prior_rows(cfg: ExperimentConfig, model: ModelParams):
    """Per-seed, per-step changed/unchanged mean SVE of the change estimate.

    Step 0 reports the raw input field; steps 1..K report C^k.  The gap cell
    stays empty when a group is empty (pure-change or pure-nuisance specs).
    """
    rows = []
    for item in _eval_items(cfg):
        dfield = difference_field(item, model.align, bool(cfg.use_align))
        solver_run = run(dfield, model.solver)
        fields = [dfield] + [state.c for state in solver_run.states[1:]]
        for step_idx, field in enumerate(fields):
            sve_ch, sve_un, gap = _group_sve(field, item, cfg)
            rows.append(
                {
                    "seed": item.spec.seed,
                    "step": step_idx,
                    "sve_changed": sve_ch,
                    "sve_unchanged": sve_un,
                    "gap": gap,
                }
            )
    return ["seed", "step", "sve_changed", "sve_unchanged", "gap"], rows


_CONTRACTION_COLUMNS = ("seed", "k", "r_k", "ratio", "rho", "decrease")


def _report_rows(seed, report):
    """One contraction row per residual score; rho and decrease sit on the last."""
    last = len(report.scores)
    return [
        {
            "seed": seed,
            "k": k,
            "r_k": r_k,
            "ratio": report.ratios[k - 2] if k >= 2 else None,
            "rho": report.rho if k == last else None,
            "decrease": report.decrease if k == last else None,
        }
        for k, r_k in enumerate(report.scores, start=1)
    ]


def contraction_rows(cfg: ExperimentConfig, model: ModelParams):
    """Residual scores, step ratios, and decrease fractions over eval seeds."""
    rows = []
    decreases = []
    ratios_all = []
    rhos = []
    for item in _eval_items(cfg):
        dfield = difference_field(item, model.align, bool(cfg.use_align))
        solver_run = run(dfield, model.solver)
        scores = scores_from_residuals(
            [row.res_norm for row in solver_run.trace], frobenius_norm(dfield)
        )
        report = contraction_report(scores)
        rows.extend(_report_rows(item.spec.seed, report))
        if report.decrease is not None:
            decreases.append(report.decrease)
        ratios_all.extend(r for r in report.ratios if r is not None)
        if report.rho is not None:
            rhos.append(report.rho)
    summary = {
        "seed": "median",
        "k": None,
        "r_k": None,
        "ratio": median(ratios_all) if ratios_all else None,
        "rho": median(rhos) if rhos else None,
        "decrease": median(decreases) if decreases else None,
    }
    rows.append(summary)
    return list(_CONTRACTION_COLUMNS), rows


def replay_rows(scores):
    """Contraction report rows for a hand-set residual score sequence."""
    return list(_CONTRACTION_COLUMNS), _report_rows("replay", contraction_report(scores))


def _fit_and_score(cfg: ExperimentConfig, fit: bool, model: ModelParams) -> dict:
    """Means over the eval seeds of the fitted bundle's scores (with ``fit=False``, the initial's).

    ``model`` is the initial bundle, ``make_model(cfg)``.  ``sve_gap`` is the
    mean changed-minus-unchanged SVE of the final change estimates, over the
    seeds whose two patch groups are both non-empty.
    """
    if fit:
        model = fit_on_batch(cfg, model).params
    stage = make_stage(cfg)
    losses, f1s, mus, seps, gaps = [], [], [], [], []
    for item in _eval_items(cfg):
        solver_run, report, f1 = evaluate_instance(model, item, cfg, stage)
        final = solver_run.final
        losses.append(report.total)
        f1s.append(f1)
        mus.append(nuisance_mean(final.n))
        seps.append(separation(final.c, final.n, cfg.epsilon))
        if item.changed_patches and item.unchanged_patches:
            gaps.append(_group_sve(final.c, item, cfg)[2])
    outside = sum(1 for mu in mus if not cfg.band_lo <= mu <= cfg.band_hi)
    n = float(cfg.eval_seeds)
    return {
        "loss": sum(losses) / n,
        "f1": sum(f1s) / n,
        "mu_n": sum(mus) / n,
        "separation": sum(seps) / n,
        "outside_band": outside / n,
        "sve_gap": sum(gaps) / len(gaps) if gaps else None,
    }


def _score_variants(variants):
    """``_fit_and_score`` of each ``(config, fit)`` variant, fitting each distinct one once.

    Each distinct variant's spec is checked and its initial bundle built
    here, so a bad config fails before any fork.  The distinct variants go
    through one ``fit._forked`` map, told their fits' loss evaluations in all
    (2·P·iterations each); the fits inside a worker are serial.  Either way
    every score has the same bits.
    """
    distinct = list(dict.fromkeys(variants))
    models = []
    for cfg, _fit in distinct:
        check_spec(make_spec(cfg, cfg.seed))
        models.append(make_model(cfg))
    evaluations = sum(2 * pack_params(model, _fit_groups(cfg)).size * cfg.iterations
                      for (cfg, fitted), model in zip(distinct, models) if fitted)

    def score(i: int) -> dict:
        return _fit_and_score(*distinct[i], models[i])

    with _forked(score, evaluations, len(distinct)) as scored:
        scores = list(scored(range(len(distinct))))
    by_variant = dict(zip(distinct, scores))
    return [by_variant[variant] for variant in variants]


def ablation_rows(cfg: ExperimentConfig):
    """Fit and evaluate the eight on/off variants of gating, alignment, staging."""
    switches = list(itertools.product((1, 0), repeat=3))
    variants = [
        (replace(cfg, use_gating=gating, use_align=align_on, use_staged=staged), True)
        for gating, align_on, staged in switches
    ]
    columns = ["gating", "align", "staged", "loss", "f1", "mu_n", "separation", "outside_band"]
    rows = [
        dict(zip(columns[:3], switch)) | {key: scores[key] for key in columns[3:]}
        for switch, scores in zip(switches, _score_variants(variants))
    ]
    return columns, rows


def ksweep_rows(cfg: ExperimentConfig):
    """Fit and evaluate at each unroll depth K = 0..k_max (K = 0 is not fitted).

    ``cost_units`` is the deterministic work proxy K * channels * height *
    width (exactly monotone in K); wall time is deliberately not part of the
    CSV so re-runs are byte-identical.
    """
    depths = range(cfg.k_max + 1)
    variants = [(replace(cfg, steps=k), k > 0) for k in depths]
    rows = [
        {
            "k_steps": k,
            "loss": scores["loss"],
            "f1": scores["f1"],
            "sve_gap": scores["sve_gap"],
            "cost_units": k * cfg.channels * cfg.height * cfg.width,
        }
        for k, scores in zip(depths, _score_variants(variants))
    ]
    return ["k_steps", "loss", "f1", "sve_gap", "cost_units"], rows


def sensitivity_rows(cfg: ExperimentConfig):
    """Refit and score each staged-regularizer setting over three sweeps.

    A setting equal to the config's own (``is_default``) is the same variant
    in each sweep, so it is fitted once.
    """
    settings = (
        *(("margin", f"{m:g}", {"margin": m}) for m in MARGIN_GRID),
        *(("band", f"{lo:g}/{hi:g}", {"band_lo": lo, "band_hi": hi}) for lo, hi in BAND_GRID),
        *(
            ("weights", f"{we:g}/{wc:g}", {"weight_margin": we, "weight_band": wc})
            for we, wc in WEIGHT_GRID
        ),
    )
    variants = [(replace(cfg, **changes), True) for _sweep, _value, changes in settings]
    rows = [
        {
            "sweep": sweep,
            "value": value,
            "f1": scores["f1"],
            "loss": scores["loss"],
            "is_default": int(all(getattr(cfg, k) == v for k, v in changes.items())),
        }
        for (sweep, value, changes), scores in zip(settings, _score_variants(variants))
    ]
    return ["sweep", "value", "f1", "loss", "is_default"], rows


# ---------------------------------------------------------------- invariants


def run_checks(seed: int = 0):
    """Self-contained invariant suite for the ``check`` subcommand.

    Returns (name, ok, detail) triples.
    """
    results = []

    def record(name, ok, detail):
        results.append((name, bool(ok), detail))

    # Haar round-trip and energy preservation
    worst_rt, worst_en = 0.0, 0.0
    for i in range(10):
        x = rng.normals(seed, 900 + i, (3, 16, 16))
        sb = dwt2_haar(x)
        worst_rt = max(worst_rt, float(np.max(np.abs(idwt2_haar(sb) - x))))
        energy_in = float(np.sum(x * x))
        worst_en = max(worst_en, abs(sb.energy() - energy_in) / energy_in)
    record("wavelet_roundtrip", worst_rt < 1e-12, f"max abs error {worst_rt:.3g}")
    record("wavelet_parseval", worst_en < 1e-12, f"max rel energy error {worst_en:.3g}")

    # singular values against the symmetric-eigenvalue oracle
    worst = 0.0
    for i in range(10):
        m = rng.normals(seed, 920 + i, (4, 36))
        sv = singular_values(m)
        gram = m @ m.T
        ref = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[::-1]
        worst = max(worst, float(np.max(np.abs(sv - ref))) / max(ref[0], 1e-300))
    record("svd_oracle", worst < 1e-9, f"max rel deviation {worst:.3g}")

    # alignment sum invariance on exact (dyadic) data
    ok = True
    for i in range(5):
        gen = rng.stream(seed, 940 + i)
        s1 = gen.integers(-64, 65, size=(3, 8, 8)).astype(np.float64) / 16.0
        s2 = gen.integers(-64, 65, size=(3, 8, 8)).astype(np.float64) / 16.0
        p = AlignParams.identity(3, eta_a=0.5, eta_detail=0.25)
        t1, t2 = align_pair_sums(s1, s2, p)
        ok = ok and bool(np.array_equal(t1, t2))
    record("align_sum", ok, "bit-exact per-entry sums on dyadic data")

    # solver null step: zero operators leave the state unchanged
    model = init_model_params(channels=3, steps=1, reduced_channels=2, patch_side=4, seed=seed)
    model.solver.alpha[:] = 0.0
    model.solver.beta[:] = 0.0
    model.solver.gamma[:] = 0.0
    model.solver.memory_bypass = True
    d = rng.normals(seed, 960, (3, 8, 8))
    state0 = init_state(d)
    state1 = step(d, state0, model.solver, 0)[0]
    drift = max(
        float(np.max(np.abs(state1.c - state0.c))),
        float(np.max(np.abs(state1.n - state0.n))),
    )
    record("null_step", drift == 0.0, f"max state drift {drift:.3g}")

    # closure identity: consistency distance vs direct residual norm
    c = rng.normals(seed, 970, (3, 8, 8))
    n = rng.normals(seed, 971, (3, 8, 8))
    dist = consistency_distance(d, c, n)
    err = abs(dist - frobenius_norm(d - c - n) / np.sqrt(2.0))
    record("closure", err < 1e-12, f"deviation {err:.3g}")

    # generator determinism
    spec = SynthSpec(seed=seed)
    a = gen_instance(spec)
    b = gen_instance(spec)
    same = (
        np.array_equal(a.dfield, b.dfield)
        and np.array_equal(a.c_star, b.c_star)
        and np.array_equal(a.n_star, b.n_star)
        and bool(np.array_equal(a.dfield, a.c_star + a.n_star))
    )
    record("generator", same, "bit-identical regeneration and exact additivity")

    return results


def align_pair_sums(x1, x2, params: AlignParams):
    """Per-entry sums before and after subband alignment (for the check)."""
    s1 = dwt2_haar(x1)
    s2 = dwt2_haar(x2)
    a1, a2 = align_subbands(s1, s2, params)
    before = np.concatenate([(getattr(s1, b) + getattr(s2, b)).ravel() for b in "ahvd"])
    after = np.concatenate([(getattr(a1, b) + getattr(a2, b)).ravel() for b in "ahvd"])
    return after, before
