#!/usr/bin/env python3
"""Self-test: the metrics the benchmark prints are the ones BENCHMARK.json declares.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with a one-second timed
loop (about two minutes in all) and checks that

* every metric name printed appears in BENCHMARK.json with the same unit,
  in the section the run mode prints (``end_to_end`` untraced,
  ``per_layer`` traced), and every name there is printed;
* the units in ``metrics.py`` match BENCHMARK.json, which alone holds each
  metric's better direction, and every direction there is ``higher`` or
  ``lower``;
* the workload names match, and each run is correct with no failed
  operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def compare_tables(bench: dict) -> list:
    problems = []
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        if declared != table:
            problems.append(f"{section}: BENCHMARK.json and metrics.py differ in "
                            f"{sorted(set(declared.items()) ^ set(table.items()))}")
        problems += [f"{section}: {m['name']} better={m['better']!r}" for m in bench[section]
                     if m["better"] not in ("higher", "lower")]
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOAD_NAMES):
        problems.append(f"workloads {names} != {list(WORKLOAD_NAMES)}")
    return problems


def compare_run(bench: dict, workload: str, trace: int) -> list:
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    for name, unit in printed.items():
        if name not in declared:
            problems.append(f"{where}: prints {name}, which {section} does not declare")
        elif declared[name] != unit:
            problems.append(f"{where}: {name} printed in {unit}, declared in {declared[name]}")
    missing = sorted(set(declared) - set(printed))
    if missing:
        problems.append(f"{where}: does not print {missing}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = compare_tables(bench)
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            found = compare_run(bench, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
