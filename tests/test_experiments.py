"""Experiment drivers: config parsing, row builders, invariant checks."""

import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from oracles import vector_loss
from test_fit import assert_reaped, with_cpus

from diffdecomp import experiments
from diffdecomp.core import ConfigError
from diffdecomp.experiments import (
    BAND_GRID,
    MARGIN_GRID,
    WEIGHT_GRID,
    ExperimentConfig,
    ablation_rows,
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
from diffdecomp.fit import apply_theta, fit, pack_params
from diffdecomp.objective import nuisance_mean, separation
from diffdecomp.params import LEAVES, dumps_params
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
    for key in ("steps", "iterations", "k_max"):
        with pytest.raises(ConfigError, match=f"'{key}' must be >= 0"):
            config_from_mapping({key: "-1"})
    with pytest.raises(ConfigError, match="'learning_rate' must be >= 0"):
        config_from_mapping({"learning_rate": "-0.05"})
    assert config_from_mapping({"learning_rate": "0"}).learning_rate == 0.0
    for key in ("step_size", "epsilon"):
        for raw in ("0", "-1e-4"):
            with pytest.raises(ConfigError, match=f"'{key}' must be > 0"):
                config_from_mapping({key: raw})


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
    assert difference_field(inst, model.align, True) is inst.dfield

    pair = gen_bitemporal(make_spec(TINY, 4))
    raw = difference_field(pair, model.align, False)
    assert np.array_equal(raw, pair.f2 - pair.f1)
    aligned = difference_field(pair, model.align, True)
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

    model, names = make_model(cfg), tuple(groups.split(","))

    def batch_report(theta):
        bundle = apply_theta(model, names, theta)
        reports = [evaluate_instance(bundle, item, cfg, stage)[1] for item in batch]
        return experiments._mean_report(reports)

    theta, curve = fit(batch_report, pack_params(model, names), iterations=cfg.iterations,
                       learning_rate=cfg.learning_rate, step_size=cfg.step_size,
                       coordinate_loss=vector_loss(lambda th: batch_report(th).total))
    assert dumps_params(result.params) == dumps_params(apply_theta(model, names, theta))
    assert result.curve == curve


ALL_GROUPS = tuple(dict.fromkeys(leaf.group for leaf in LEAVES))


@pytest.mark.parametrize("steps", [0, 1, 3])
@pytest.mark.parametrize("use_gating, memory_bypass", [(1, 0), (0, 0), (1, 1)])
def test_resumed_coordinate_loss_equals_full_run(steps, use_gating, memory_bypass):
    # Every coordinate of every group, moved both ways from a theta off the
    # initial bundle; bi-temporal, so the align coordinates remake the field.
    cfg = replace(TINY, mode="bitemporal", steps=steps, use_gating=use_gating,
                  memory_bypass=memory_bypass, groups=",".join(ALL_GROUPS))
    model, stage = make_model(cfg), make_stage(cfg)
    _, loss = experiments._batch_objective(cfg, model, stage, ALL_GROUPS)
    batch = [make_item(cfg, cfg.seed + 10_000 + i) for i in range(cfg.instances)]

    def whole_run_total(theta):  # evaluate_instance: a whole run and _score
        bundle = apply_theta(model, ALL_GROUPS, theta)
        reports = [evaluate_instance(bundle, item, cfg, stage)[1] for item in batch]
        return experiments._mean_report(reports).total

    theta0 = pack_params(model, ALL_GROUPS)
    theta = theta0 + np.random.default_rng(steps).normal(0.0, 0.05, theta0.size)
    h = cfg.step_size
    for i in range(theta.size):
        for value in (theta[i] + h, theta[i] - h):
            moved = theta.copy()
            moved[i] = value
            assert loss(theta, i, value) == whole_run_total(moved), (i, value)


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

    def counted(cfg, *args):
        fitted.append(cfg)
        return fit_on_batch(cfg, *args)

    monkeypatch.setattr(experiments, "fit_on_batch", counted)
    with_cpus(monkeypatch, 1, lambda: sensitivity_rows(TINY))
    assert len(fitted) == 14 and len(set(fitted)) == 14


def test_forked_sensitivity_maps_each_distinct_setting_once(monkeypatch, forks, tmp_path):
    # The workers fit; each writes the pid and config of every fit it makes.
    log = tmp_path / "fitted"

    def counted(cfg, *args):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {cfg!r}\n")
        return fit_on_batch(cfg, *args)

    monkeypatch.setattr(experiments, "fit_on_batch", counted)
    with_cpus(monkeypatch, 2, lambda: sensitivity_rows(replace(TINY, iterations=1)))
    assert len(forks) == 2
    pids, configs = zip(*(line.split(" ", 1) for line in log.read_text("utf-8").splitlines()))
    assert len(configs) == 14 and len(set(configs)) == 14
    assert {int(pid) for pid in pids} <= set(forks)


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


def slow_tables(cfg):
    """The ablation, k-sweep and sensitivity rows of ``cfg`` by the slow path."""
    ablation = []
    for gating, align_on, staged in [(g, a, s) for g in (1, 0) for a in (1, 0) for s in (1, 0)]:
        scores = slow_scores(replace(cfg, use_gating=gating, use_align=align_on, use_staged=staged))
        metrics = ("loss", "f1", "mu_n", "separation", "outside_band")
        switches = {"gating": gating, "align": align_on, "staged": staged}
        ablation.append({**switches, **{key: scores[key] for key in metrics}})

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
    return [ablation, ksweep, sensitivity]




@pytest.mark.parametrize("mode", sorted(SWEEP_CONFIGS))
def test_sweep_tables_match_the_slow_path(monkeypatch, forks, mode):
    # On 2 CPUs each sweep forks 2 workers, whatever this machine has.
    cfg = SWEEP_CONFIGS[mode]
    want = with_cpus(monkeypatch, 1, lambda: slow_tables(cfg))
    sweeps = (ablation_rows, ksweep_rows, sensitivity_rows)
    for cpus, workers in ((1, 0), (2, 2 * len(sweeps))):
        forks.clear()
        assert with_cpus(monkeypatch, cpus, lambda: [rows(cfg)[1] for rows in sweeps]) == want
        assert len(forks) == workers


# A k-sweep has k_max + 1 variants, and MAX_WORKERS is 4.
@pytest.mark.parametrize("rows, cpus, workers",
                         [(ablation_rows, 3, 3), (ablation_rows, 8, 4), (ksweep_rows, 4, 2)])
def test_forked_sweep_forks_its_workers_alone(monkeypatch, forks, tmp_path, rows, cpus, workers):
    # Every fork, here or in a worker, writes the pid that made it.
    log = tmp_path / "forks"
    recording_fork = os.fork

    def logged_fork():
        parent = os.getpid()
        pid = recording_fork()
        if pid:
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{parent}\n")
        return pid

    monkeypatch.setattr(os, "fork", logged_fork)
    threads = threading.active_count()
    with_cpus(monkeypatch, cpus, lambda: rows(replace(TINY, iterations=1)))
    assert len(forks) == workers
    assert log.read_text("utf-8").split() == [str(os.getpid())] * workers
    assert_reaped(forks, threads)


def test_one_cpu_sweep_forks_nothing(monkeypatch, forks):
    with_cpus(monkeypatch, 1, lambda: ablation_rows(replace(TINY, iterations=1)))
    assert forks == []


# The cli-study benchmark workload's config: P = 26 at K = 3, one iteration.
STUDY = ExperimentConfig(channels=2, height=16, width=16, patch_side=4, reduced_channels=2,
                         steps=3, rectangles="2,2,6,6;9,8,5,5", instances=1, eval_seeds=2,
                         iterations=1, k_max=2, mode="bitemporal")


# The ablation makes 8 * 2 * 26 = 416 loss evaluations.  The k-sweep fits
# P = 20 and 23 at K = 1 and 2: 2 * (20 + 23) = 86, under MIN_FORK_EVALUATIONS.
@pytest.mark.parametrize("rows, workers", [(ablation_rows, 2), (ksweep_rows, 0)])
def test_sweep_forks_from_min_fork_evaluations(monkeypatch, forks, rows, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rows(STUDY)
    assert len(forks) == workers


def test_fit_and_score_returns_plain_numbers():
    for cfg in (replace(TINY, iterations=1), replace(TINY, rectangles="")):
        scores = experiments._fit_and_score(cfg, True, make_model(cfg))
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
