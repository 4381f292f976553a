"""End-to-end acceptance checks.

Each test prints one PASS line with its measured numbers so the verbose run
log doubles as a scorecard.  Tolerances are asserted, never widened at
runtime.  The fitted-model checks share one fit (module-level cache) and the
first of them times it against the stated budget.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import diffdecomp
import oracles
from diffdecomp.convergence import (
    consistency_distance,
    contraction_report,
    scores_from_residuals,
)
from diffdecomp.core import frobenius_norm, singular_values
from diffdecomp.experiments import (
    ExperimentConfig,
    difference_field,
    fit_on_batch,
    make_spec,
)
from diffdecomp.fit import fd_gradient
from diffdecomp.objective import (
    band_loss,
    bce_dice_loss,
    exploration_loss,
    nuisance_mean,
    reconstruction_loss,
    separation,
)
from diffdecomp.solver import init_solver_params, run, step
from diffdecomp.sve import normalized_spectrum, patch_entropies, patch_entropy, sve_map
from diffdecomp.synth import gen_instance
from diffdecomp.wavelet import AlignParams, dwt2_haar, idwt2_haar, suppress_pair


def report(num, name, detail):
    print(f"PASS criterion {num:02d} {name}: {detail}")


# ---------------------------------------------------------------------------
# shared fitted model (criteria 7 and 8)

_FIT_CACHE = {}


def fitted_default_model():
    """Fit solver parameters on default-spec instances, once per session."""
    if "model" not in _FIT_CACHE:
        # default synthetic specs and the default parameter-group set; the
        # batch is trimmed to 2 instances to fit the stated time budget
        cfg = ExperimentConfig(seed=0, instances=2, iterations=60)
        t0 = time.monotonic()
        result = fit_on_batch(cfg)
        _FIT_CACHE["fit_seconds"] = time.monotonic() - t0
        _FIT_CACHE["model"] = result.params
        _FIT_CACHE["config"] = cfg
    return _FIT_CACHE["model"], _FIT_CACHE["config"], _FIT_CACHE["fit_seconds"]


def eval_instance_fields(cfg, model, seed):
    """(dfield, patch groups, solver run) for one evaluation seed."""
    item = gen_instance(make_spec(cfg, seed))
    dfield = difference_field(item, model.align, bool(cfg.use_align))
    return dfield, (item.changed_patches, item.unchanged_patches), run(dfield, model.solver)


# ---------------------------------------------------------------------------
# 1. wavelet exactness


def test_criterion_01_wavelet_exactness():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst_rt = 0.0
    worst_energy = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        h = 2 * int(rng.integers(2, 17))
        w = 2 * int(rng.integers(2, 17))
        field = rng.normal(size=(d, h, w))
        bands = dwt2_haar(field)
        back = idwt2_haar(bands)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - field))))
        e_field = float(np.sum(field * field))
        worst_energy = max(worst_energy, abs(e_field - bands.energy()) / e_field)
    elapsed = time.monotonic() - t0
    assert worst_rt < 1e-12
    assert worst_energy < 1e-12
    assert elapsed < 10.0
    report(1, "wavelet exactness",
           f"round-trip {worst_rt:.2e}, energy {worst_energy:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. singular values against the Gram-eigenvalue oracle


def test_criterion_02_svd_oracle():
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        mat = rng.normal(size=(d, 64))
        ours = singular_values(mat)
        ref = oracles.gram_singular_values(mat)
        scale = max(float(ref[0]), 1e-30)
        worst = max(worst, float(np.max(np.abs(ours - ref))) / scale)
    elapsed = time.monotonic() - t0
    assert worst < 1e-9
    assert elapsed < 30.0
    report(2, "svd oracle", f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. spectrum entropy analytics and scale invariance


def test_criterion_03_sve_analytics():
    uniform = patch_entropy(normalized_spectrum(np.array([3.0, 3.0, 3.0, 3.0])))
    assert abs(uniform - 1.386294) < 1e-6

    onehot = patch_entropy(normalized_spectrum(np.array([5.0, 0.0, 0.0])))
    assert abs(onehot) < 2e-8

    rng = np.random.default_rng(303)
    field = rng.normal(size=(4, 32, 32))
    base = sve_map(field, patch_side=8)
    for factor in (2.0, 0.25, 512.0, 2.0 ** -20):
        assert np.array_equal(sve_map(factor * field, patch_side=8), base)

    worst_general = 0.0
    for factor in (3.7, 0.013, 129.5):
        scaled = sve_map(factor * field, patch_side=8)
        worst_general = max(worst_general, float(np.max(np.abs(scaled - base))))
    assert worst_general < 1e-9
    report(3, "sve analytics",
           f"uniform {uniform:.6f}, one-hot {onehot:.1e}, dyadic scaling bit-exact, "
           f"general scaling {worst_general:.1e}")


# ---------------------------------------------------------------------------
# 4. subband suppression preserves the pairwise sum


def test_criterion_04_subband_sum_invariant():
    rng = np.random.default_rng(404)

    def lattice(*shape):
        return rng.integers(-64, 65, size=shape).astype(np.float64) / 16.0

    def dyadic_map(channels):
        return rng.integers(-8, 9, size=(channels, channels)).astype(np.float64) / 4.0

    etas = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
    settings = 0
    for _ in range(10):
        f1 = lattice(3, 16, 16)
        f2 = lattice(3, 16, 16)
        for eta_a in etas:
            for eta_detail in (0.0, 0.125, 0.75):
                params = AlignParams(
                    eta_a=eta_a, eta_h=eta_detail, eta_v=eta_detail, eta_d=eta_detail,
                    psi_a=dyadic_map(3), psi_h=dyadic_map(3),
                    psi_v=dyadic_map(3), psi_d=dyadic_map(3),
                )
                s1, s2 = suppress_pair(f1, f2, params)
                assert np.array_equal(s1 + s2, f1 + f2)
                settings += 1

    # both suppression strengths at zero must leave the pair untouched
    worst_identity = 0.0
    for _ in range(10):
        f1 = rng.normal(size=(4, 16, 16))
        f2 = rng.normal(size=(4, 16, 16))
        s1, s2 = suppress_pair(f1, f2, AlignParams.identity(4, eta_a=0.0, eta_detail=0.0))
        worst_identity = max(
            worst_identity,
            float(np.max(np.abs(s1 - f1))),
            float(np.max(np.abs(s2 - f2))),
        )
    assert worst_identity < 1e-12
    report(4, "subband sum invariant",
           f"bit-equal over {settings} settings, zero-strength identity {worst_identity:.1e}")


# ---------------------------------------------------------------------------
# 5. solver step against the straight-line oracle


def test_criterion_05_step_oracle():
    from diffdecomp.solver import SolverState

    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(10):
        channels = int(rng.integers(2, 5))
        steps = int(rng.integers(1, 4))
        params = init_solver_params(
            channels, steps=steps, reduced_channels=channels, patch_side=4, seed=trial
        )
        params.alpha = rng.uniform(0.1, 1.0, steps)
        params.beta = rng.uniform(0.1, 1.0, steps)
        params.gamma = rng.uniform(0.1, 1.0, steps)
        params.psi_c = rng.normal(0.0, 0.5, (channels, channels))
        params.psi_n = rng.normal(0.0, 0.5, (channels, channels))
        params.gate.scale = rng.uniform(0.5, 2.0)
        params.gate.shift = rng.uniform(-1.0, 1.0)
        state = SolverState(
            c=rng.normal(size=(channels, 8, 8)),
            n=rng.normal(size=(channels, 8, 8)),
            mem_c=rng.normal(size=(channels, 8, 8)),
            mem_n=rng.normal(size=(channels, 8, 8)),
        )
        dfield = rng.normal(size=(channels, 8, 8))
        k = int(rng.integers(0, steps))
        got, got_gate, _drafts = step(dfield, state, params, k)
        ref_c, ref_n, ref_mc, ref_mn, ref_gate = oracles.step_oracle(
            dfield, state.c, state.n, state.mem_c, state.mem_n, params, k
        )
        worst = max(
            worst,
            float(np.max(np.abs(got.c - ref_c))),
            float(np.max(np.abs(got.n - ref_n))),
            float(np.max(np.abs(got.mem_c - ref_mc))),
            float(np.max(np.abs(got.mem_n - ref_mn))),
            float(np.max(np.abs(got_gate - ref_gate))),
        )
    assert worst < 1e-12

    # zero step scales with memory bypassed keep (0, D) an exact fixed point
    params = init_solver_params(3, steps=5, reduced_channels=3, patch_side=4, seed=99)
    params.alpha[:] = 0.0
    params.beta[:] = 0.0
    params.gamma[:] = 0.0
    params.memory_bypass = True
    dfield = rng.normal(size=(3, 8, 8))
    solver_run = run(dfield, params)
    zero = np.zeros_like(dfield)
    assert all(
        np.array_equal(s.c, zero) and np.array_equal(s.n, dfield)
        for s in solver_run.states
    )
    report(5, "step oracle", f"worst dev {worst:.2e} over 10 configs, null step fixed")


# ---------------------------------------------------------------------------
# 6. consistency distance equals the brute-force line search


def test_criterion_06_consistency_distance():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        h = 2 * int(rng.integers(2, 9))
        w = 2 * int(rng.integers(2, 9))
        dfield = rng.normal(size=(d, h, w))
        c = rng.normal(size=(d, h, w))
        n = rng.normal(size=(d, h, w))
        got = consistency_distance(dfield, c, n)
        ref = oracles.closure_distance_line_search(dfield, c, n)
        worst = max(worst, abs(got - ref))
    assert worst < 1e-6
    report(6, "consistency distance", f"worst dev from line search {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. fitted solver contracts the mismatch score


@pytest.mark.slow
def test_criterion_07_contraction_after_fit():
    t0 = time.monotonic()
    model, cfg, fit_seconds = fitted_default_model()
    ratios_step1 = []
    ratios_step2 = []
    decreases = []
    for i in range(50):
        dfield, _groups, solver_run = eval_instance_fields(cfg, model, cfg.seed + i)
        scores = scores_from_residuals(
            [row.res_norm for row in solver_run.trace], frobenius_norm(dfield)
        )
        ratios_step1.append(scores[1] / scores[0])
        ratios_step2.append(scores[2] / scores[1])
        decreases.append(1.0 - scores[2] / scores[0])
    med1 = float(np.median(ratios_step1))
    med2 = float(np.median(ratios_step2))
    med_dec = float(np.median(decreases))
    elapsed = time.monotonic() - t0
    assert med1 < 1.0
    assert med2 < 1.0
    assert med_dec >= 0.5
    assert elapsed < 300.0
    report(7, "contraction after fit",
           f"median ratios {med1:.3f}/{med2:.3f}, median decrease {med_dec:.3f}, "
           f"fit {fit_seconds:.1f}s, total {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. entropy gap between changed and unchanged patches grows with depth


@pytest.mark.slow
def test_criterion_08_sve_prior():
    model, cfg, _ = fitted_default_model()
    gaps = np.zeros((20, cfg.steps))
    for i in range(20):
        _dfield, groups, solver_run = eval_instance_fields(cfg, model, cfg.seed + i)
        changed = list(groups[0])
        unchanged = list(groups[1])
        for k in range(1, cfg.steps + 1):
            ent = patch_entropies(solver_run.states[k].c, cfg.patch_side, cfg.epsilon)
            gaps[i, k - 1] = float(np.mean(ent[changed]) - np.mean(ent[unchanged]))
    mean_gaps = gaps.mean(axis=0)
    assert np.all(mean_gaps > 0.0)
    grew = int(np.sum(gaps[:, 2] > gaps[:, 0]))
    assert grew >= 16  # 80% of 20 seeds
    report(8, "sve prior",
           f"mean gaps {mean_gaps[0]:.3f}/{mean_gaps[1]:.3f}/{mean_gaps[2]:.3f}, "
           f"deepest exceeds first in {grew}/20 seeds")


# ---------------------------------------------------------------------------
# 9. the staged band penalty keeps the nuisance mean inside its band


@pytest.mark.slow
def test_criterion_09_band_keeps_nuisance_in_range():
    lo, hi = 0.05, 0.40
    # fitting pushes the nuisance mean upward without bound here (the
    # read-out rewards a global shift of C on imbalanced labels and the
    # reconstruction term transmits it to N); the staged band hinge is the
    # only thing holding mu inside
    base = dict(
        channels=2, height=16, width=16, patch_side=4, reduced_channels=2,
        rectangles="2,2,8,8", change_amplitude=0.2,
        nuisance_amplitude=0.02, noise_sigma=0.01, illumination=0.01,
        instances=1, iterations=25, learning_rate=0.055,
        groups="memory_bias", steps=3,
        band_lo=lo, band_hi=hi,
    )
    outside_off = 0
    inside_on = 0
    for r in range(30):
        for staged in (0, 1):
            cfg = ExperimentConfig(seed=1000 + r, use_staged=staged, **base)
            result = fit_on_batch(cfg)
            item = gen_instance(make_spec(cfg, cfg.seed + 10_000))
            dfield = difference_field(item, result.params.align, bool(cfg.use_align))
            solver_run = run(dfield, result.params.solver)
            mu = nuisance_mean(solver_run.final.n)
            if staged == 0 and not lo <= mu <= hi:
                outside_off += 1
            if staged == 1 and lo <= mu <= hi:
                inside_on += 1
    assert outside_off >= 9   # 30% of 30
    assert inside_on >= 27    # 90% of 30
    report(9, "band penalty",
           f"unstaged outside band {outside_off}/30, staged inside band {inside_on}/30")


# ---------------------------------------------------------------------------
# 10. finite-difference schemes agree away from kinks


def _forward_diff(fn, theta, h):
    grad = np.zeros_like(theta)
    base = fn(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] += h
        grad[i] = (fn(bumped) - base) / h
    return grad


def test_criterion_10_gradient_checks():
    rng = np.random.default_rng(1010)
    h = 1e-5
    labels = (rng.uniform(size=(6, 6)) < 0.4).astype(np.float64)
    dfield = np.zeros((2, 3, 3))

    def seg_fn(theta):
        return bce_dice_loss(theta.reshape(6, 6), labels)

    def rec_fn(theta):
        return reconstruction_loss(dfield, theta[:18].reshape(2, 3, 3),
                                   theta[18:].reshape(2, 3, 3))

    def exp_fn(theta):
        c = theta[:18].reshape(2, 3, 3)
        n = theta[18:].reshape(2, 3, 3)
        return exploration_loss([separation(c, n)], margin=0.3)

    def con_fn(theta):
        return band_loss([nuisance_mean(theta.reshape(2, 3, 3))], 0.05, 0.40)

    def signed_uniform(size, lo_mag, hi_mag):
        return rng.uniform(lo_mag, hi_mag, size=size) * rng.choice([-1.0, 1.0], size=size)

    cases = []
    for _ in range(20):
        # points are sampled clear of every kink: probabilities well inside
        # (0, 1), residual and mean-magnitude entries > 1e-2 from zero, hinge
        # slacks > 1e-2
        cases.append(("seg", seg_fn, rng.uniform(0.2, 0.8, size=36)))
        rec_theta = np.concatenate([signed_uniform(18, 0.05, 1.0), np.zeros(18)])
        cases.append(("rec", rec_fn, rec_theta))
        exp_theta = rng.normal(size=36)
        sep = separation(exp_theta[:18].reshape(2, 3, 3), exp_theta[18:].reshape(2, 3, 3))
        assert abs(sep - 0.3) > 1e-2
        cases.append(("exp", exp_fn, exp_theta))
        mu_target = float(rng.choice([rng.uniform(0.08, 0.37), rng.uniform(0.45, 0.9)]))
        raw = signed_uniform(18, 0.5, 1.5)
        con_theta = raw * (mu_target / np.mean(np.abs(raw)))
        assert min(abs(mu_target - 0.05), abs(mu_target - 0.40)) > 1e-2
        cases.append(("con", con_fn, con_theta))

    worst = {"seg": 0.0, "rec": 0.0, "exp": 0.0, "con": 0.0}
    for name, fn, theta in cases:
        central = fd_gradient(oracles.vector_loss(fn), theta, step_size=h)
        forward = _forward_diff(fn, theta, h)
        scale = max(float(np.max(np.abs(central))), 1e-12)
        worst[name] = max(worst[name], float(np.max(np.abs(central - forward))) / scale)
    for name, dev in worst.items():
        assert dev < 1e-4, f"{name} scheme disagreement {dev:.2e}"

    quad = fd_gradient(oracles.vector_loss(lambda t: float(t[0]) ** 2), np.array([3.0]))
    assert abs(quad[0] - 6.0) < 1e-6
    report(10, "gradient checks",
           "scheme agreement " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
           + f", quadratic slope {quad[0]:.8f}")


# ---------------------------------------------------------------------------
# 11. every CLI subcommand is byte-deterministic


CLI_CONFIG = """\
channels = 2
height = 8
width = 8
patch_side = 4
reduced_channels = 2
steps = 2
rectangles = 0,0,4,4
instances = 1
eval_seeds = 2
iterations = 1
groups = steps
k_max = 2
"""


def _run_cli(args, cwd):
    # The child runs the package this process imported.  A relative
    # PYTHONPATH entry (e.g. ``src`` from a checkout) does not resolve from
    # ``cwd``, so the package root goes first as an absolute path; the rest
    # of the environment is passed through unchanged.
    env = dict(os.environ)
    pkg_root = str(Path(diffdecomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "diffdecomp.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_11_cli_determinism(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(CLI_CONFIG)
    params_path = tmp_path / "model.params"
    _run_cli(["fit", "--config", str(cfg_path), "--seed", "3",
              "--out", str(params_path)], tmp_path)

    runs = {
        "gen": (["gen", "--config", str(cfg_path), "--seed", "3",
                 "--out", "gen_{n}"], "gen_{n}/manifest.csv"),
        "fit": (["fit", "--config", str(cfg_path), "--seed", "3",
                 "--out", "fit_{n}.params"], "fit_{n}.params.curve.csv"),
        "sve-prior": (["sve-prior", "--config", str(cfg_path), "--seed", "3",
                       "--params", str(params_path), "--out", "sve_{n}.csv"],
                      "sve_{n}.csv"),
        "contraction": (["contraction", "--config", str(cfg_path), "--seed", "3",
                         "--params", str(params_path), "--out", "con_{n}.csv"],
                        "con_{n}.csv"),
        "ablation": (["ablation", "--config", str(cfg_path), "--seed", "3",
                      "--out", "abl_{n}.csv"], "abl_{n}.csv"),
        "k-sweep": (["k-sweep", "--config", str(cfg_path), "--seed", "3",
                     "--out", "ks_{n}.csv"], "ks_{n}.csv"),
        "sensitivity": (["sensitivity", "--config", str(cfg_path), "--seed", "3",
                         "--out", "sen_{n}.csv"], "sen_{n}.csv"),
        "check": (["check", "--out", "chk_{n}.csv"], "chk_{n}.csv"),
    }
    for name, (args, out_tpl) in runs.items():
        blobs = []
        for n in (1, 2):
            concrete = [a.replace("{n}", str(n)) for a in args]
            _run_cli(concrete, tmp_path)
            blobs.append((tmp_path / out_tpl.replace("{n}", str(n))).read_bytes())
        assert blobs[0] == blobs[1], f"{name} output changed between runs"
    report(11, "cli determinism", f"{len(runs)} subcommands byte-identical on rerun")


# ---------------------------------------------------------------------------
# 12. reference trace replay


def test_criterion_12_reference_replay():
    summary = contraction_report([0.412, 0.173, 0.068])
    r1, r2 = summary.ratios
    assert f"{r1:.3f}" == "0.420"
    assert f"{r2:.3f}" == "0.393"
    assert f"{summary.decrease:.3f}" == "0.835"
    report(12, "reference replay",
           f"ratios {r1:.3f}/{r2:.3f}, decrease {summary.decrease:.3f}")
