#!/usr/bin/env python3
"""The sha256 of every output of the command-line tool, on two fixed configs.

For each config the eight subcommands and ``contraction --replay`` run once,
in order, in a fresh directory; each gets the digest of its stdout and of
every file it writes.  ``tests/golden/cli_digests.json`` holds the digests,
and ``tests/test_cli_digests.py`` recomputes them, so a change that must keep
every output bit passes that test unchanged.  A change that alters outputs
on purpose (a ``TOOL_VERSION`` bump is one: every CSV names the version)
rewrites the file and says why:

    PYTHONPATH=src python scripts/cli_digests.py --write

``--print`` writes the digests as JSON to stdout instead.  ``--check`` prints
the ``config/command/file`` (``.../stdout`` for stdout) of each output whose
digest differs from the file's, one a line, and exits 1 if there is one.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from diffdecomp.cli import main as cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli_digests.json"

CONFIGS = {
    # the config of acceptance criterion 11 (tests/test_acceptance.py)
    "tiny": """\
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
""",
    # P = 26 and 2·P·iterations = 156 loss evaluations: on more than one CPU
    # `fit` forks for its gradients, and each sweep forks for its variants,
    # whose fits then run serially in the workers
    "forking": """\
channels = 2
height = 16
width = 16
patch_side = 4
reduced_channels = 2
steps = 3
rectangles = 2,2,6,6;9,8,5,5
instances = 1
eval_seeds = 2
iterations = 3
k_max = 2
""",
}

_RUN = ["--config", "run.cfg", "--seed", "3"]
# (name, arguments) of each command, in the order they run
COMMANDS = (
    ("gen", ["gen", *_RUN, "--out", "gen"]),
    ("fit", ["fit", *_RUN, "--out", "model.params"]),
    ("sve-prior", ["sve-prior", *_RUN, "--params", "model.params", "--out", "sve.csv"]),
    ("contraction", ["contraction", *_RUN, "--params", "model.params", "--out", "con.csv"]),
    ("contraction-replay",
     ["contraction", *_RUN, "--replay", "0.412,0.173,0.068", "--out", "replay.csv"]),
    ("ablation", ["ablation", *_RUN, "--out", "ablation.csv"]),
    ("k-sweep", ["k-sweep", *_RUN, "--out", "ksweep.csv"]),
    ("sensitivity", ["sensitivity", *_RUN, "--out", "sensitivity.csv"]),
    ("check", ["check", "--seed", "3", "--out", "check.csv"]),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def config_digests(text: str, workdir: Path) -> dict:
    """Per command: the digest of its stdout and of each file it wrote under ``workdir``."""
    (workdir / "run.cfg").write_text(text, encoding="utf-8")
    out = {}
    with contextlib.chdir(workdir):
        for name, args in COMMANDS:
            before = set(_files(workdir))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli(args)
            if code != 0:
                raise RuntimeError(f"{name} exited {code}")
            written = {k: _sha256(p.read_bytes()) for k, p in _files(workdir).items()
                       if k not in before}
            out[name] = {"stdout": _sha256(stdout.getvalue().encode("utf-8")), "files": written}
    return out


def digests() -> dict:
    """The digests of every config, each run in its own temporary directory."""
    result = {}
    for name, text in CONFIGS.items():
        with tempfile.TemporaryDirectory(prefix=f"cli-digests-{name}-") as tmp:
            result[name] = config_digests(text, Path(tmp))
    return result


def differences(got: dict, want: dict) -> list:
    """``config/command/output`` of each digest that differs, or that one side lacks."""

    def flat(values):
        return {f"{config}/{command}/{output}": digest
                for config, commands in values.items()
                for command, entry in commands.items()
                for output, digest in [("stdout", entry["stdout"]), *entry["files"].items()]}

    a, b = flat(got), flat(want)
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def dumps(values: dict) -> str:
    return json.dumps(values, indent=1, sort_keys=True) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN}")
    mode.add_argument("--print", action="store_true", help="write the digests to stdout")
    mode.add_argument("--check", action="store_true",
                      help=f"list the outputs whose digests differ from {GOLDEN.name}")
    args = ap.parse_args(argv)
    values = digests()
    if args.check:
        changed = differences(values, json.loads(GOLDEN.read_text(encoding="utf-8")))
        for name in changed:
            print(name)
        return 1 if changed else 0
    text = dumps(values)
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
