"""Command-line tool: exit codes, file outputs, byte-identical reruns."""

import os

import numpy as np
import pytest

from diffdecomp import experiments
from diffdecomp.cli import main
from diffdecomp.objective import LossReport
from diffdecomp.params import dumps_params, load_params
from diffdecomp.tensorio import read_tensor

TINY_CFG = """\
channels = 2
height = 8
width = 8
patch_side = 4
reduced_channels = 2
steps = 2
rectangles = 0,0,4,4
instances = 1
eval_seeds = 2
iterations = 0
k_max = 1
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


# ------------------------------------------------------------------ exit codes


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_seed_is_usage_error(capsys):
    assert main(["gen", "--out", "somewhere"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_missing_out_is_usage_error(capsys, tiny_cfg):
    assert main(["gen", "--seed", "0", "--config", tiny_cfg]) == 1


def test_missing_config_file(capsys, tmp_path):
    code = main(
        ["gen", "--seed", "0", "--config", str(tmp_path / "absent.cfg"),
         "--out", str(tmp_path / "g")]
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_bad_config_key(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    code = main(["gen", "--seed", "0", "--config", str(bad), "--out", str(tmp_path / "g")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("fit", "--config", b"channels = 4\n\xff = 1\n"),
        ("sve-prior", "--params", b"format = diffdecomp-params-1\n\xff = 1\n"),
    ],
)
def test_non_utf8_file_is_config_error(capsys, tmp_path, tiny_cfg, command, option, text):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text)
    out = tmp_path / "out"
    config = [] if option == "--config" else ["--config", tiny_cfg]
    assert main([command, "--seed", "0", *config, option, str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad} is not UTF-8 text" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_bad_rectangle_is_config_error(capsys, tmp_path):
    # one that does not parse, and one that the draw finds outside the 8x8 grid
    for rect, message in [("0,0,a,4", "'0,0,a,4'"), ("2,2,30,30", "exceeds the 8x8 grid")]:
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("0,0,4,4", rect))
        out = tmp_path / "g"
        assert main(["gen", "--seed", "0", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("k-sweep", "k_max = -1"),
        ("fit", "iterations = -3"),
        ("fit", "epsilon = -1"),
        ("fit", "learning_rate = -5"),
        ("gen", "seed = -1"),
    ],
)
def test_negative_setting_is_config_error(capsys, tmp_path, command, line):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(TINY_CFG + line + "\n")
    out = tmp_path / "out"
    code = main([command, "--seed", "0", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    key = line.split()[0]
    bound = "> 0" if key == "epsilon" else ">= 0"  # epsilon = 0 is rejected too
    assert err.startswith("error:") and f"'{key}' must be {bound}" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_zero_epsilon_is_config_error(capsys, tmp_path):
    # k-sweep's K = 0 row has C = 0, whose separation divides by epsilon.
    cfg = tmp_path / "eps.cfg"
    cfg.write_text(TINY_CFG + "epsilon = 0\n")
    out = tmp_path / "ks.csv"
    assert main(["k-sweep", "--seed", "0", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config key 'epsilon' must be > 0, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["0.5", "0.6", "1", "2"])
def test_epsilon_from_half_is_config_error(capsys, tmp_path, epsilon):
    # The BCE clip [epsilon, 1 - epsilon] is one point or inverted; from 1 on, its logs warn.
    cfg = tmp_path / "eps.cfg"
    cfg.write_text(TINY_CFG + f"epsilon = {epsilon}\n")
    out = tmp_path / "m"
    assert main(["fit", "--seed", "0", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config key 'epsilon' must be < 0.5, got {float(epsilon)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["gen", "--seed", "-1"], ["fit", "--seed", "-5"], ["check", "--seed", "-1"]]
)
def test_negative_seed_is_config_error(capsys, tmp_path, tiny_cfg, argv):
    out = tmp_path / "out"
    config = [] if argv[0] == "check" else ["--config", tiny_cfg]
    assert main([*argv, *config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be") and len(err.strip().splitlines()) == 1
    assert not out.exists()



@pytest.mark.parametrize(
    "command, line, message",
    [
        ("fit", "groups = head,steps,head", "repeat a group"),
        ("sve-prior", "groups = steps,nonsense", "unknown parameter group 'nonsense'"),
        ("contraction", "groups = Head", "unknown parameter group 'Head'"),
    ],
)
def test_bad_groups_are_config_errors(capsys, tmp_path, command, line, message):
    cfg = tmp_path / "groups.cfg"
    cfg.write_text(TINY_CFG + line + "\n")
    out = tmp_path / "out"
    assert main([command, "--seed", "0", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1e-4"])
def test_non_positive_step_size_is_config_error(capsys, tmp_path, value):
    cfg = tmp_path / "step.cfg"
    cfg.write_text(TINY_CFG + f"step_size = {value}\n")
    out = tmp_path / "model.params"
    code = main(["fit", "--seed", "0", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'step_size' must be > 0" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("fit", "use_gating = 7"),
        ("ablation", "memory_bypass = -3"),
        ("gen", "use_align = 2"),
        ("sensitivity", "use_staged = -1"),
    ],
)
def test_switch_other_than_0_or_1_is_config_error(capsys, tmp_path, command, line):
    cfg = tmp_path / "switch.cfg"
    cfg.write_text(TINY_CFG + line + "\n")
    out = tmp_path / "out"
    assert main([command, "--seed", "0", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{line.split()[0]}' must be 0 or 1" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("line", ["memory_bypass = 2", "gate_bypass = -1"])
def test_params_switch_other_than_0_or_1_is_config_error(capsys, tmp_path, tiny_cfg, line):
    key = line.split()[0]
    text = dumps_params(experiments.make_model(experiments.parse_config_text(TINY_CFG)))
    assert f"\n{key} = 0\n" in text
    params = tmp_path / "model.params"
    params.write_text(text.replace(f"\n{key} = 0\n", f"\n{line}\n"))
    out = tmp_path / "sve.csv"
    argv = ["sve-prior", "--seed", "0", "--config", tiny_cfg, "--params", str(params)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: must be 0 or 1") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_interrupt_exits_130(capsys, tmp_path, tiny_cfg, monkeypatch):
    from diffdecomp import cli

    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "fit_on_batch", interrupted)
    out = tmp_path / "m"
    assert main(["fit", "--seed", "0", "--config", tiny_cfg, "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()


def test_dead_pool_worker_is_one_error_line(capsys, tmp_path, tiny_cfg, monkeypatch):
    # The fit forks a pool of two workers, and each exits as it takes a task.
    from diffdecomp import cli, fit

    me = os.getpid()

    def report_fn(th):
        if os.getpid() != me:
            os._exit(3)
        return LossReport(seg=0.0, rec=0.0, exp=0.0, con=0.0, ssec=0.0, total=float(th @ th))

    def dying_fit(cfg):
        return fit.fit(report_fn, np.ones(6), iterations=3)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fit, "MIN_FORK_EVALUATIONS", 0)
    monkeypatch.setattr(cli, "fit_on_batch", dying_fit)
    out = tmp_path / "m"
    assert main(["fit", "--seed", "0", "--config", tiny_cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: A process in the process pool was terminated abruptly")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_sve_prior_requires_params(capsys, tmp_path, tiny_cfg):
    code = main(
        ["sve-prior", "--seed", "0", "--config", tiny_cfg, "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "--params" in capsys.readouterr().err


def test_bad_replay_is_usage_error(capsys, tmp_path):
    code = main(
        ["contraction", "--seed", "0", "--replay", "a,b", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1


@pytest.mark.parametrize("replay", ["1,-0.5", ",", "1,nan,0.5", "0.4,inf"])
def test_invalid_replay_scores_are_usage_errors(capsys, tmp_path, replay):
    out = tmp_path / "x.csv"
    code = main(["contraction", "--seed", "0", "--replay", replay, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    # f1 == f2 bit for bit, so the difference field is all zeros
    ("mode = bitemporal\nillumination = 0\nrectangles =\n",
     "scores are undefined for a zero-norm input field"),
    ("steps = 0\n", "contraction_report needs at least one score"),
], ids=["zero-field", "no-steps"])
def test_contraction_without_scores_is_config_error(capsys, tmp_path, lines, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG + lines)
    fitted, out = tmp_path / "m.params", tmp_path / "con.csv"
    assert main(["fit", "--seed", "0", "--config", str(cfg), "--out", str(fitted)]) == 0
    capsys.readouterr()
    code = main(["contraction", "--seed", "0", "--config", str(cfg),
                 "--params", str(fitted), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# A floating-point warning would escape as an exception: the failure line is
# all the command prints.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solver_overflow_is_numerical_failure(capsys, tmp_path):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "channels = 2\nheight = 8\nwidth = 8\npatch_side = 4\nreduced_channels = 2\n"
        "rectangles = 1,1,3,3\ninstances = 1\niterations = 1\nchange_amplitude = 1e305\n"
    )
    code = main(["fit", "--seed", "0", "--config", str(cfg), "--out", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: step 1: non-finite change or nuisance estimate\n"


def test_lapack_failure_is_numerical_failure(capsys, tmp_path, tiny_cfg, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code = main(["fit", "--seed", "0", "--config", tiny_cfg, "--out", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: singular_values_batch: SVD did not converge\n"


def test_non_finite_fit_is_numerical_failure(capsys, tmp_path, tiny_cfg, monkeypatch):
    from diffdecomp import cli
    from diffdecomp.fit import FitError

    def diverge(cfg):
        raise FitError("initial loss is non-finite: nan")

    monkeypatch.setattr(cli, "fit_on_batch", diverge)
    code = main(["fit", "--seed", "0", "--config", tiny_cfg, "--out", str(tmp_path / "m")])
    assert code == 2
    assert "numerical failure: initial loss is non-finite" in capsys.readouterr().err


# ------------------------------------------------------------------ check


def test_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all 7 checks passed" in out
    assert "FAIL" not in out


def test_check_injection_fails(capsys, monkeypatch):
    real = experiments.consistency_distance
    monkeypatch.setattr(experiments, "consistency_distance", lambda *a: real(*a) + 1e-6)
    assert main(["check"]) == 2
    out = capsys.readouterr().out
    assert "FAIL closure" in out
    assert main(["check", "--inject", "closure"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_check_takes_no_config(capsys, tmp_path):
    assert main(["check", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_check_writes_csv(capsys, tmp_path):
    out = tmp_path / "checks.csv"
    assert main(["check", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "check,ok,detail"
    assert len(lines) == 2 + 7


# ------------------------------------------------------------------ gen


def test_gen_writes_tensors_and_manifest(capsys, tmp_path, tiny_cfg):
    out = tmp_path / "gen"
    assert main(["gen", "--seed", "3", "--config", tiny_cfg, "--out", str(out)]) == 0
    d = read_tensor(out / "seed3_d.pufd")
    c = read_tensor(out / "seed3_cstar.pufd")
    n = read_tensor(out / "seed3_nstar.pufd")
    labels = read_tensor(out / "seed3_labels.pufd")
    assert d.shape == (2, 8, 8) and labels.shape == (8, 8)
    assert np.array_equal(d, c + n)
    specs = (out / "specs.txt").read_text()
    assert "seed=3" in specs and "rectangles=0,0,4,4" in specs
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[1] == "seed,tensor,file,shape"
    assert "seed3_d.pufd" in manifest[2]


def test_gen_bitemporal_mode(tmp_path, tiny_cfg, capsys):
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(TINY_CFG + "mode = bitemporal\n")
    out = tmp_path / "gen"
    assert main(["gen", "--seed", "0", "--config", str(cfg), "--out", str(out)]) == 0
    f1 = read_tensor(out / "seed0_f1.pufd")
    f2 = read_tensor(out / "seed0_f2.pufd")
    assert f1.shape == f2.shape == (2, 8, 8)
    assert not np.array_equal(f1, f2)


# ------------------------------------------------------------------ fit + consumers


def test_fit_then_downstream(capsys, tmp_path, tiny_cfg):
    fitted = tmp_path / "fitted.params"
    assert main(["fit", "--seed", "0", "--config", tiny_cfg, "--out", str(fitted)]) == 0
    params = load_params(fitted)
    assert params.solver.steps == 2
    curve = (fitted.parent / (fitted.name + ".curve.csv")).read_text().splitlines()
    assert curve[1] == "iteration,seg,rec,ssec,total"
    assert len(curve) == 2 + 1  # provenance + header + single iterate (iterations = 0)

    sve_out = tmp_path / "sve.csv"
    code = main(
        ["sve-prior", "--seed", "0", "--config", tiny_cfg,
         "--params", str(fitted), "--out", str(sve_out)]
    )
    assert code == 0
    lines = sve_out.read_text().splitlines()
    assert lines[1] == "seed,step,sve_changed,sve_unchanged,gap"
    assert len(lines) == 2 + 2 * 3  # eval_seeds * (steps + 1)

    con_out = tmp_path / "con.csv"
    code = main(
        ["contraction", "--seed", "0", "--config", tiny_cfg,
         "--params", str(fitted), "--out", str(con_out)]
    )
    assert code == 0
    assert con_out.read_text().splitlines()[-1].startswith("median,")


def test_replay_reference_values(tmp_path, capsys):
    out = tmp_path / "replay.csv"
    code = main(
        ["contraction", "--seed", "0", "--replay", "0.412,0.173,0.068", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "seed,k,r_k,ratio,rho,decrease"
    assert lines[2] == "replay,1,0.412,,,"
    assert lines[3] == "replay,2,0.173,0.419903,,"
    assert lines[4].startswith("replay,3,0.068,0.393064,")
    assert lines[4].endswith("0.834951")


def test_sweep_commands_write_rows(tmp_path, tiny_cfg, capsys):
    kout = tmp_path / "k.csv"
    assert main(["k-sweep", "--seed", "0", "--config", tiny_cfg, "--out", str(kout)]) == 0
    klines = kout.read_text().splitlines()
    assert klines[1] == "k_steps,loss,f1,sve_gap,cost_units"
    assert len(klines) == 2 + 2  # k = 0, 1

    abl = tmp_path / "abl.csv"
    assert main(["ablation", "--seed", "0", "--config", tiny_cfg, "--out", str(abl)]) == 0
    assert len(abl.read_text().splitlines()) == 2 + 8

    sens = tmp_path / "sens.csv"
    assert main(["sensitivity", "--seed", "0", "--config", tiny_cfg, "--out", str(sens)]) == 0
    assert len(sens.read_text().splitlines()) == 2 + 16


def test_reruns_are_byte_identical(tmp_path, tiny_cfg, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["contraction", "--seed", "5", "--replay", "0.9,0.5,0.3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ga = tmp_path / "ga"
    gb = tmp_path / "gb"
    assert main(["gen", "--seed", "2", "--config", tiny_cfg, "--out", str(ga)]) == 0
    assert main(["gen", "--seed", "2", "--config", tiny_cfg, "--out", str(gb)]) == 0
    assert (ga / "manifest.csv").read_bytes() == (gb / "manifest.csv").read_bytes()
    assert (ga / "seed2_d.pufd").read_bytes() == (gb / "seed2_d.pufd").read_bytes()
