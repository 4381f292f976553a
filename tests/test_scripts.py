"""The scripts under scripts/ run end to end on a tiny config."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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
iterations = 1
groups = head
k_max = 1
"""


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = {
    "reproduce_contraction": ["model.params", "contraction.csv", "replay.csv"],
    "reproduce_sve_prior": ["model.params", "sve_prior.csv"],
    "run_study": ["ablation.csv", "ksweep.csv", "sensitivity.csv"],
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_script_runs_on_a_tiny_config(tmp_path, capsys, name):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out_dir = tmp_path / "out"
    load_script(name).main(["--out-dir", str(out_dir), "--config", str(cfg)])
    assert all((out_dir / f).is_file() for f in OUTPUTS[name])
    # each script ends by naming where its tables are
    assert str(out_dir) in capsys.readouterr().out.splitlines()[-1]
