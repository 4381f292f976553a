"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` declares the same names and units, and is the one place
that holds each metric's better direction; ``selftest.py`` checks that what
``run.py`` prints agrees with it.
"""

from __future__ import annotations

# name -> unit
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

STATS = {
    "calls": "count",
    "ms": "ms",
    "self_ms": "ms",
    "gflop": "GFLOP",
    "gflop_per_s": "GFLOP/s",
    "matrices": "count",
    "us_per_matrix": "us",
    "bytes": "B",
}

LAYERS = (
    ("solver.conv3x3_reflect", ("calls", "ms", "gflop", "gflop_per_s")),
    ("core.singular_values_batch", ("calls", "matrices", "ms", "us_per_matrix")),
    ("sve.gate_map", ("calls", "self_ms")),
    ("sve.patch_entropies", ("calls", "self_ms")),
    ("solver.run", ("calls", "self_ms")),
    ("solver.step", ("calls", "self_ms")),
    ("solver.memory_update", ("calls", "ms")),
    ("solver.predict", ("ms",)),
    ("objective.total_loss", ("calls", "ms")),
    ("fit.fd_gradient", ("calls", "self_ms")),
    ("fit.apply_theta", ("calls", "ms")),
    ("params.copy_params", ("calls", "ms")),
    ("core.as_field", ("calls",)),
    ("experiments.fit_on_batch", ("calls", "ms")),
    ("experiments.evaluate_instance", ("calls", "self_ms")),
    ("experiments.difference_field", ("calls", "ms")),
    ("wavelet.suppress_pair", ("calls", "ms")),
    ("experiments.sve_prior_rows", ("ms",)),
    ("experiments.contraction_rows", ("ms",)),
    ("convergence.contraction_report", ("calls", "ms")),
    ("synth.gen_instance", ("ms",)),
    ("synth.gen_bitemporal", ("ms",)),
    ("params.save_params", ("ms",)),
    ("params.load_params", ("ms",)),
    ("tensorio.write_tensor", ("calls", "bytes", "ms")),
    ("csvio.write_csv", ("calls", "bytes", "ms")),
)

CLI_SUBCOMMANDS = (
    "gen", "fit", "sve-prior", "contraction", "ablation", "k-sweep", "sensitivity", "check",
)

PER_LAYER = {f"{layer}.{stat}": STATS[stat] for layer, stats in LAYERS for stat in stats}
PER_LAYER.update({f"cli.{sub}.ms": "ms" for sub in CLI_SUBCOMMANDS})
PER_LAYER["fit.runs_per_iter"] = "runs/iter"
PER_LAYER["trace.overhead_ms"] = "ms"


def layer_values(tracer, overhead_s: float) -> dict:
    """Every per-layer metric from one traced round (0 where a layer did no work)."""
    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    values = {}
    for layer, stats in LAYERS:
        if layer == "core.as_field":
            values["core.as_field.calls"] = tracer.counts.get(layer, 0)
            continue
        ms = 1e3 * get(layer, "s")
        derived = {
            "calls": get(layer, "calls"),
            "ms": ms,
            "self_ms": 1e3 * get(layer, "self_s"),
            "gflop": tracer.amounts.get(f"{layer}.gflop", 0.0),
            "matrices": tracer.amounts.get(f"{layer}.matrices", 0.0),
            "bytes": tracer.amounts.get(f"{layer}.bytes", 0.0),
        }
        derived["gflop_per_s"] = derived["gflop"] / (ms / 1e3) if ms > 0 else 0.0
        derived["us_per_matrix"] = 1e3 * ms / derived["matrices"] if derived["matrices"] else 0.0
        for stat in stats:
            values[f"{layer}.{stat}"] = derived[stat]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.ms"] = 1e3 * get(f"cli.{sub}", "s")
    iterations = get("fit.fd_gradient", "calls")
    runs_in_fits = tracer.count_within("solver.run", "experiments.fit_on_batch")
    values["fit.runs_per_iter"] = runs_in_fits / iterations if iterations else 0.0
    values["trace.overhead_ms"] = 1e3 * overhead_s
    return values
