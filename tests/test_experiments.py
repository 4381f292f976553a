"""Experiment drivers: config parsing, row builders, invariant checks."""

from dataclasses import replace

import numpy as np
import pytest

from diffdecomp import experiments
from diffdecomp.core import ConfigError
from diffdecomp.experiments import (
    BAND_GRID,
    MARGIN_GRID,
    WEIGHT_GRID,
    ExperimentConfig,
    canonical_config_text,
    config_from_mapping,
    contraction_rows,
    difference_field,
    evaluate_instance,
    fit_on_batch,
    ksweep_rows,
    make_item,
    make_model,
    make_spec,
    make_stage,
    parse_config_text,
    parse_rectangles,
    replay_rows,
    resolve_lam_rec,
    run_checks,
    sensitivity_rows,
    sve_prior_rows,
)
from diffdecomp.fit import FitConfig, fit_model
from diffdecomp.objective import nuisance_mean, separation
from diffdecomp.params import dumps_params
from diffdecomp.sve import group_means, patch_entropies
from diffdecomp.synth import gen_bitemporal, gen_instance
from diffdecomp.wavelet import Subbands

TINY = ExperimentConfig(
    channels=2,
    height=8,
    width=8,
    patch_side=4,
    reduced_channels=2,
    steps=2,
    rectangles="0,0,4,4",
    instances=1,
    eval_seeds=2,
    iterations=0,
    k_max=1,
)


# ------------------------------------------------------------------ config


def test_mapping_parses_types():
    cfg = config_from_mapping({"seed": "7", "noise_sigma": "0.25", "mode": "bitemporal"})
    assert cfg.seed == 7 and cfg.noise_sigma == 0.25 and cfg.mode == "bitemporal"
    assert cfg.channels == 4  # untouched default


def test_mapping_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"bogus": "1"})


def test_mapping_rejects_bad_value():
    with pytest.raises(ConfigError, match="seed"):
        config_from_mapping({"seed": "not-a-number"})


def test_mapping_validates_semantics():
    with pytest.raises(ConfigError):
        config_from_mapping({"mode": "video"})
    with pytest.raises(ConfigError):
        config_from_mapping({"band_lo": "0.5", "band_hi": "0.1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"instances": "0"})
    with pytest.raises(ConfigError):
        config_from_mapping({"rectangles": "1,2,3"})
    with pytest.raises(ConfigError):
        config_from_mapping({"lam_rec": "soft"})
    for key in ("steps", "iterations", "k_max", "epsilon"):
        with pytest.raises(ConfigError, match=f"'{key}' must be >= 0"):
            config_from_mapping({key: "-1"})
    assert config_from_mapping({"epsilon": "0"}).epsilon == 0.0
    with pytest.raises(ConfigError, match="'learning_rate' must be >= 0"):
        config_from_mapping({"learning_rate": "-0.05"})
    assert config_from_mapping({"learning_rate": "0"}).learning_rate == 0.0
    for raw in ("0", "-1e-4"):
        with pytest.raises(ConfigError, match="'step_size' must be > 0"):
            config_from_mapping({"step_size": raw})


@pytest.mark.parametrize(
    "key, raw",
    [
        ("learning_rate", "nan"),
        ("step_size", "inf"),
        ("change_amplitude", "-inf"),
        ("noise_sigma", "NaN"),
        ("lam_rec", "inf"),
    ],
)
def test_mapping_rejects_non_finite_float(key, raw):
    with pytest.raises(ConfigError, match=f"{key}.*not finite"):
        config_from_mapping({key: raw})


def test_config_text_round_trip():
    cfg = ExperimentConfig(seed=5, margin=0.2, rectangles="", mode="bitemporal")
    assert parse_config_text(canonical_config_text(cfg)) == cfg


def test_config_text_comments_and_errors():
    cfg = parse_config_text("# comment\n\nseed = 3\nmargin=0.1\n")
    assert cfg.seed == 3 and cfg.margin == 0.1
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 3\ngarbage line\n")


def test_parse_rectangles():
    assert parse_rectangles("") == ()
    assert parse_rectangles(" 1,2,3,4 ; 5,6,7,8 ") == ((1, 2, 3, 4), (5, 6, 7, 8))
    with pytest.raises(ConfigError):
        parse_rectangles("1,2,3,4,5")
    with pytest.raises(ConfigError, match="'0,0,a,4'"):
        parse_rectangles("1,2,3,4;0,0,a,4")


def test_resolve_lam_rec():
    assert resolve_lam_rec(ExperimentConfig()) == 1.0 / (4 * 32 * 32)
    assert resolve_lam_rec(ExperimentConfig(lam_rec="0.125")) == 0.125


# ------------------------------------------------------------------ wiring


def test_make_spec_carries_config():
    spec = make_spec(TINY, 11)
    assert spec.seed == 11 and spec.channels == 2 and spec.height == 8
    assert spec.rectangles == ((0, 0, 4, 4),)


def test_make_model_flags():
    assert make_model(TINY).solver.gate_bypass is False
    variant = ExperimentConfig(**{**TINY.__dict__, "use_gating": 0, "memory_bypass": 1})
    model = make_model(variant)
    assert model.solver.gate_bypass is True
    assert model.solver.memory_bypass is True
    assert make_model(replace(TINY, steps=4)).solver.steps == 4


def test_make_stage_staging_switch():
    stage = make_stage(TINY)
    assert stage.weight_margin == TINY.weight_margin
    off = ExperimentConfig(**{**TINY.__dict__, "use_staged": 0})
    stage_off = make_stage(off)
    assert stage_off.weight_margin == 0.0 and stage_off.weight_band == 0.0


def test_difference_field_modes():
    inst = gen_instance(make_spec(TINY, 4))
    model = make_model(TINY)
    dfield, labels, groups = difference_field(inst, model.align, True)
    assert dfield is inst.dfield and labels is inst.labels
    assert groups == (inst.changed_patches, inst.unchanged_patches)

    pair = gen_bitemporal(make_spec(TINY, 4))
    raw, _labels, _groups = difference_field(pair, model.align, False)
    assert np.array_equal(raw, pair.f2 - pair.f1)
    aligned, _labels, _groups = difference_field(pair, model.align, True)
    assert not np.array_equal(aligned, raw)  # alignment moves the shared offset


def test_evaluate_instance_composition():
    model = make_model(TINY)
    stage = make_stage(TINY)
    item = gen_instance(make_spec(TINY, 9))
    solver_run, report, f1 = evaluate_instance(model, item, TINY, stage)
    assert len(solver_run.states) == TINY.steps + 1
    assert report.total == report.seg + resolve_lam_rec(TINY) * report.rec + report.ssec
    assert 0.0 <= f1 <= 1.0
    assert np.isfinite(report.total)


def test_fit_on_batch_deterministic():
    cfg = ExperimentConfig(**{**TINY.__dict__, "iterations": 2, "groups": "steps"})
    a = fit_on_batch(cfg)
    b = fit_on_batch(cfg)
    assert np.array_equal(a.theta, b.theta)
    assert [r.total for r in a.curve] == [r.total for r in b.curve]
    assert len(a.curve) == 3


@pytest.mark.parametrize("groups", ["steps,head", "steps,align"])
def test_fit_on_batch_fields_match_per_evaluation(monkeypatch, groups):
    cfg = replace(TINY, mode="bitemporal", instances=2, iterations=2, groups=groups)
    calls = []
    real_suppress = experiments.suppress_pair

    def counting_suppress(*args):
        calls.append(1)
        return real_suppress(*args)

    monkeypatch.setattr(experiments, "suppress_pair", counting_suppress)
    result = fit_on_batch(cfg)
    if "align" in groups:
        assert len(calls) > cfg.instances
    else:  # one aligned field per item for the whole fit
        assert len(calls) == cfg.instances

    # reference: every loss evaluation aligns and differences each item again
    stage = make_stage(cfg)
    batch = [make_item(cfg, cfg.seed + 10_000 + i) for i in range(cfg.instances)]

    def batch_report(bundle):
        reports = [evaluate_instance(bundle, item, cfg, stage)[1] for item in batch]
        return experiments._mean_report(reports)

    fit_cfg = FitConfig(learning_rate=cfg.learning_rate, iterations=cfg.iterations,
                        step_size=cfg.step_size, groups=tuple(groups.split(",")))
    reference = fit_model(make_model(cfg), batch_report, fit_cfg)
    assert dumps_params(result.params) == dumps_params(reference.params)
    assert result.curve == reference.curve


# ------------------------------------------------------------------ row builders


def test_sve_prior_rows_structure():
    model = make_model(TINY)
    columns, rows = sve_prior_rows(TINY, model)
    assert columns == ["seed", "step", "sve_changed", "sve_unchanged", "gap"]
    assert len(rows) == TINY.eval_seeds * (TINY.steps + 1)
    first = rows[0]
    assert first["seed"] == TINY.seed and first["step"] == 0
    # step-0 row reports the raw input field's per-group entropies
    inst = gen_instance(make_spec(TINY, TINY.seed))
    ent = patch_entropies(inst.dfield, TINY.patch_side, TINY.epsilon)
    want_ch = float(np.mean(ent[list(inst.changed_patches)]))
    want_un = float(np.mean(ent[list(inst.unchanged_patches)]))
    assert first["sve_changed"] == pytest.approx(want_ch, abs=1e-12)
    assert first["sve_unchanged"] == pytest.approx(want_un, abs=1e-12)
    assert first["gap"] == pytest.approx(want_ch - want_un, abs=1e-12)


def test_sve_prior_rows_empty_group_leaves_gap_blank():
    cfg = ExperimentConfig(**{**TINY.__dict__, "rectangles": ""})
    model = make_model(cfg)
    _columns, rows = sve_prior_rows(cfg, model)
    assert all(row["sve_changed"] is None and row["gap"] is None for row in rows)


def test_contraction_rows_structure():
    model = make_model(TINY)
    columns, rows = contraction_rows(TINY, model)
    assert columns == ["seed", "k", "r_k", "ratio", "rho", "decrease"]
    per_seed = TINY.steps
    assert len(rows) == TINY.eval_seeds * per_seed + 1
    assert rows[-1]["seed"] == "median"
    first_seed_rows = rows[:per_seed]
    assert first_seed_rows[0]["ratio"] is None
    r1, r2 = first_seed_rows[0]["r_k"], first_seed_rows[1]["r_k"]
    assert first_seed_rows[1]["ratio"] == pytest.approx(r2 / r1, rel=1e-12)


def test_replay_rows_reference_sequence():
    columns, rows = replay_rows([0.412, 0.173, 0.068])
    assert len(rows) == 3
    assert rows[0]["ratio"] is None
    assert f"{rows[1]['ratio']:.3f}" == "0.420"
    assert f"{rows[2]['ratio']:.3f}" == "0.393"
    assert f"{rows[2]['decrease']:.3f}" == "0.835"
    assert rows[1]["rho"] is None and rows[2]["rho"] is not None


def test_ksweep_rows_cost_units():
    _columns, rows = ksweep_rows(TINY)
    assert [row["k_steps"] for row in rows] == [0, 1]
    costs = [row["cost_units"] for row in rows]
    assert costs == [0, 1 * TINY.channels * TINY.height * TINY.width]
    assert all(np.isfinite(row["loss"]) for row in rows)


def test_sensitivity_rows_grids():
    columns, rows = sensitivity_rows(TINY)
    assert columns == ["sweep", "value", "f1", "loss", "is_default"]
    assert len(rows) == len(MARGIN_GRID) + len(BAND_GRID) + len(WEIGHT_GRID)
    by_sweep = {}
    for row in rows:
        by_sweep.setdefault(row["sweep"], []).append(row)
    assert sum(r["is_default"] for r in by_sweep["margin"]) == 1
    assert sum(r["is_default"] for r in by_sweep["band"]) == 1
    assert sum(r["is_default"] for r in by_sweep["weights"]) == 1


def test_sensitivity_fits_each_distinct_setting_once(monkeypatch):
    # the default margin, band and weights are one variant, fitted once
    fitted = []

    def counted(cfg):
        fitted.append(cfg)
        return fit_on_batch(cfg)

    monkeypatch.setattr(experiments, "fit_on_batch", counted)
    sensitivity_rows(TINY)
    assert len(fitted) == 14 and len(set(fitted)) == 14


def slow_scores(cfg, fit=True):
    """One variant's table scores by the slow path: its own fit, then each eval seed in turn."""
    model = fit_on_batch(cfg).params if fit else make_model(cfg)
    stage = make_stage(cfg)
    seeds = []
    for i in range(cfg.eval_seeds):
        item = make_item(cfg, cfg.seed + i)
        solver_run, report, f1 = evaluate_instance(model, item, cfg, stage)
        c, n = solver_run.final.c, solver_run.final.n
        groups = (item.changed_patches, item.unchanged_patches)
        sve_ch, sve_un = group_means(patch_entropies(c, cfg.patch_side, cfg.epsilon), groups)
        seeds.append(
            {
                "loss": report.total,
                "f1": f1,
                "mu_n": nuisance_mean(n),
                "separation": separation(c, n, cfg.epsilon),
                "outside_band": float(not cfg.band_lo <= nuisance_mean(n) <= cfg.band_hi),
                "gap": None if sve_ch is None or sve_un is None else sve_ch - sve_un,
            }
        )
    scores = {key: sum(s[key] for s in seeds) / len(seeds) for key in seeds[0] if key != "gap"}
    gaps = [s["gap"] for s in seeds if s["gap"] is not None]
    return {**scores, "sve_gap": sum(gaps) / len(gaps) if gaps else None}


# At this noise level the instance config's staged hinges are active, so its
# sensitivity table has 6 distinct rows and its ablation 4 distinct losses.
SWEEP_CONFIGS = {
    "instance": replace(TINY, iterations=2, groups="steps,head", k_max=2, noise_sigma=0.5),
    "bitemporal": replace(
        TINY, mode="bitemporal", iterations=2, groups="steps,gate", k_max=2, eval_seeds=3
    ),
}


@pytest.mark.parametrize("mode", sorted(SWEEP_CONFIGS))
def test_sweep_tables_match_the_slow_path(mode):
    cfg = SWEEP_CONFIGS[mode]
    ablation = []
    for gating, align_on, staged in [(g, a, s) for g in (1, 0) for a in (1, 0) for s in (1, 0)]:
        scores = slow_scores(replace(cfg, use_gating=gating, use_align=align_on, use_staged=staged))
        metrics = ("loss", "f1", "mu_n", "separation", "outside_band")
        switches = {"gating": gating, "align": align_on, "staged": staged}
        ablation.append({**switches, **{key: scores[key] for key in metrics}})
    assert experiments.ablation_rows(cfg)[1] == ablation

    ksweep = []
    for k in range(cfg.k_max + 1):
        scores = slow_scores(replace(cfg, steps=k), fit=k > 0)
        ksweep.append(
            {
                "k_steps": k,
                "loss": scores["loss"],
                "f1": scores["f1"],
                "sve_gap": scores["sve_gap"],
                "cost_units": k * cfg.channels * cfg.height * cfg.width,
            }
        )
    assert ksweep_rows(cfg)[1] == ksweep

    sensitivity = []
    settings = [("margin", f"{m:g}", {"margin": m}) for m in MARGIN_GRID]
    settings += [("band", f"{lo:g}/{hi:g}", {"band_lo": lo, "band_hi": hi}) for lo, hi in BAND_GRID]
    settings += [
        ("weights", f"{we:g}/{wb:g}", {"weight_margin": we, "weight_band": wb})
        for we, wb in WEIGHT_GRID
    ]
    for sweep, value, changes in settings:
        scores = slow_scores(replace(cfg, **changes))
        default = all(getattr(cfg, key) == v for key, v in changes.items())
        sensitivity.append(
            {
                "sweep": sweep,
                "value": value,
                "f1": scores["f1"],
                "loss": scores["loss"],
                "is_default": int(default),
            }
        )
    assert sensitivity_rows(cfg)[1] == sensitivity


def test_fit_and_score_returns_plain_numbers():
    for cfg in (replace(TINY, iterations=1), replace(TINY, rectangles="")):
        scores = experiments._fit_and_score(cfg)
        assert list(scores) == ["loss", "f1", "mu_n", "separation", "outside_band", "sve_gap"]
        assert all(type(value) is float or value is None for value in scores.values())
    assert scores["sve_gap"] is None  # no changed patch, so no gap


# ------------------------------------------------------------------ checks


def test_run_checks_all_pass():
    results = run_checks(seed=0)
    assert len(results) == 7
    assert all(ok for _name, ok, _detail in results)
    names = [name for name, _ok, _detail in results]
    assert names == [
        "wavelet_roundtrip",
        "wavelet_parseval",
        "svd_oracle",
        "align_sum",
        "null_step",
        "closure",
        "generator",
    ]


# check -> (owner, attribute, change to its result) that breaks that check alone
BREAKS = {
    "wavelet_roundtrip": (experiments, "idwt2_haar", lambda x: x + 1e-6),
    "wavelet_parseval": (Subbands, "energy", lambda energy: energy + 1e-6),
    "svd_oracle": (experiments, "singular_values", lambda sv: sv + 1e-6),
    "align_sum": (experiments, "align_pair_sums", lambda sums: (sums[0] + 1e-6, sums[1])),
    "null_step": (experiments, "step", lambda out: (replace(out[0], c=out[0].c + 1e-6), out[1])),
    "closure": (experiments, "consistency_distance", lambda dist: dist + 1e-6),
    "generator": (experiments, "gen_instance", lambda i: replace(i, dfield=i.dfield + 1e-6)),
}


@pytest.mark.parametrize("name", list(BREAKS))
def test_run_checks_injection_flips_only_named_check(monkeypatch, name):
    owner, attribute, change = BREAKS[name]
    real = getattr(owner, attribute)
    monkeypatch.setattr(owner, attribute, lambda *args: change(real(*args)))
    results = run_checks(seed=0)
    failed = [n for n, ok, _ in results if not ok]
    assert failed == [name]
