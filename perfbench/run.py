#!/usr/bin/env python3
"""Benchmark of the diffdecomp package: three checked workloads.

    python3 perfbench/run.py --workload fit-default --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the reference solver from ``tests/oracles.py``.  The timed loop
repeats whole rounds of the workload for about ``--seconds`` (at least two
rounds) and reports the median over rounds of the operations completed per
second.  With ``--trace 1`` there is no timed loop: round 1 runs as a
warm-up, then round 0 runs untraced and again with every layer wrapped by
the tracer, and the per-layer metrics are printed instead; the spans go to
``.bench_out/``.  The outputs of every round are checked before the result
is printed.  The last line of standard output is
the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fit-default", "report-bitemporal", "cli-study")
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time import and set-up in this fresh process")
    return ap.parse_args(argv)


def prepare_environment() -> None:
    """Pin BLAS threads to the CPUs this process may use and find the sources."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = threads
    src = ROOT / "src"
    if not (src / "diffdecomp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'diffdecomp'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise SystemExit(f"perfbench: no reference solver at {ROOT / 'tests' / 'oracles.py'}")
    sys.path.insert(0, str(src))


def import_workloads():
    import workloads

    import diffdecomp

    if Path(diffdecomp.__file__).resolve().parent != ROOT / "src" / "diffdecomp":
        raise SystemExit(f"perfbench: imported diffdecomp from {diffdecomp.__file__}")
    return workloads


def setup_probe(args, workdir: Path) -> int:
    """Time import, input generation and model construction in this process."""
    start = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    workload.prepare(workload.setup(args.seed, workdir), 0)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(args, workdir: Path) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for n in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--trace", "0"]
        env = dict(os.environ, PERFBENCH_WORKDIR=str(workdir / f"probe{n}"))
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    if args.setup_probe:
        return setup_probe(args, Path(os.environ["PERFBENCH_WORKDIR"]))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        return benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, workdir: Path) -> int:
    setup_s = None if args.trace else measure_setup(args, workdir)
    workloads = import_workloads()
    from metrics import END_TO_END, PER_LAYER, layer_values
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.setup(args.seed, workdir / "main")
    # (record, output) of every round; the checks rebuild their reference
    # inputs from the record, so what the run holds does not grow with rounds
    rounds = []
    attempted = failed = 0

    def play(index, inputs=None, span=lambda name: nullcontext()) -> float:
        """Run round ``index`` (inputs made before the clock starts); its seconds."""
        nonlocal attempted, failed
        if inputs is None:
            inputs = workload.prepare(ctx, index)
        t0 = time.perf_counter()
        try:
            output, bad = workload.run_round(ctx, inputs, span)
        finally:
            seconds = time.perf_counter() - t0
        rounds.append((workload.record(inputs), output))
        attempted += workload.ops_per_round
        failed += bad
        return seconds

    # The checks compare every repeat of round 0 with round 0's output, so
    # the traced round is seen to change no output.  Its overhead is taken
    # against an untraced run of the same round just before it, because the
    # machine's speed drifts over tens of seconds; round 1 runs first so that
    # neither of the two is the process's cold first round.
    if args.trace:
        play(1)
        baseline_s = play(0)
        inputs = workload.prepare(ctx, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = play(0, inputs, tracer.span)
        finally:
            tracer.uninstall()
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(trace_path))
        print(f"round 0 again: untraced {baseline_s:.3f} s, traced {traced_s:.3f} s; "
              f"spans in {trace_path}", flush=True)
        values = layer_values(tracer, traced_s - baseline_s)
        table = PER_LAYER
    else:
        times = []
        start = time.perf_counter()
        # a round starts only if it is expected to end closer to the deadline than to stop now
        while len(times) < MIN_ROUNDS or time.perf_counter() - start + times[-1] / 2 < args.seconds:
            times.append(play(len(times)))
            if len(times) == MIN_ROUNDS:
                # the peak over the rounds every run makes, so that it does
                # not change with the number of rounds that fit in the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{args.workload}: {len(times)} rounds of {workload.ops_per_round} operations, "
              f"round s {[round(t, 4) for t in times]}", flush=True)
        if workload.repeats_round_0:
            play(0)
        values = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(workload.ops_per_round / t for t in times),
            "peak_rss_mb": peak_rss_mb,
        }
        table = END_TO_END

    try:
        problems = workload.check(ctx, rounds, ROOT)
    except Exception as exc:  # output too malformed for the checks to read
        traceback.print_exception(exc)
        problems = [f"the checks could not read the outputs: {exc!r}"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
