"""Every output of the command-line tool keeps its bits (tests/golden/cli_digests.json).

The digests are recomputed twice: here, on this process's CPUs (on more than
one, the fits of the ``forking`` config fork a pool), and in a child that
limits its own affinity to one CPU, so that every fit runs serially.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffdecomp
from test_scripts import SCRIPTS, load_script

digests = load_script("cli_digests")


def golden():
    return json.loads(digests.GOLDEN.read_text(encoding="utf-8"))


def test_golden_names_every_command_of_every_config():
    assert sorted(golden()) == sorted(digests.CONFIGS)
    for commands in golden().values():
        assert sorted(commands) == sorted(name for name, _args in digests.COMMANDS)
        assert all(entry["files"] for entry in commands.values())


def test_cli_outputs_match_golden_digests():
    assert digests.differences(digests.digests(), golden()) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity to set")
def test_cli_outputs_match_golden_digests_on_one_cpu():
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ)
    pkg_root = str(Path(diffdecomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "cli_digests.py"), "--check"],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert (proc.stdout.split(), proc.returncode) == ([], 0), proc.stderr


def test_differences_name_each_changed_output():
    want = golden()
    got = json.loads(json.dumps(want))
    got["tiny"]["fit"]["stdout"] = "0"
    got["tiny"]["gen"]["files"]["gen/extra.pufd"] = "0"
    del got["forking"]["check"]["files"]["check.csv"]
    assert digests.differences(got, want) == [
        "forking/check/check.csv", "tiny/fit/stdout", "tiny/gen/gen/extra.pufd"]
    assert digests.differences(want, want) == []
