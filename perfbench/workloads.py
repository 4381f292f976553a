"""The benchmark's workloads: set-up, one timed round, and the output checks.

Every workload drives the package through its public functions or through
``cli.main`` and calls them as module attributes, so the tracer's wrappers
see every call.  A round is the unit the timed loop repeats; its operations
(fit iterations, eval seeds, subcommands) are what ``attempted`` counts.
``setup`` returns the run's context; ``prepare(ctx, index)`` makes a round's
inputs before its clock starts; ``run_round(ctx, inputs, span)`` is the
timed part and returns (output, failed operations); ``record(inputs)`` is
the small part of the inputs kept for the checks (the round's config or
output directory), so the memory a run holds does not grow with its round
count; ``check(ctx, rounds, root)`` gets every round's record and output
after the timed loop and rebuilds from the record any reference input it
needs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diffdecomp import cli, experiments, params, solver, synth

import refs

# criterion 05 of the acceptance tests holds the solver step to this
# absolute deviation from the reference solver
ORACLE_TOL = 1e-12
# LAPACK and the package's Jacobi SVD agree to about 1e-15 per singular
# value; an entropy sums eight such terms
ENTROPY_TOL = 1e-10
SCORE_REL_TOL = 1e-12


def round_seed(seed: int, index: int, stride: int) -> int:
    """Config seed of round ``index``; the rounds of a run share no inputs."""
    return 1000 * seed + stride * index


def check_rounds(rounds, seed_of, check_first, same):
    """Check each seed's first round in full and every repeat against it.

    Returns (problems, number of repeats); a round whose output is None
    raised, and its failure is already counted.
    """
    problems, first = [], {}
    for n, (rec, output) in enumerate(rounds):
        seed = seed_of(rec)
        if output is None:
            found = ["the round raised"]
        elif seed in first:
            same_output = same((rec, output), first[seed])
            found = [] if same_output else [f"the repeat of seed {seed} gave other output"]
        else:
            first[seed] = (rec, output)
            found = check_first(n, rec, output)
        problems += [f"round {n}: {p}" for p in found]
    return problems, len(rounds) - len(first)


def _max_state_deviation(states, reference) -> float:
    if len(states) != len(reference):
        return float("inf")
    return max(float(np.max(np.abs(got - want)))
               for state, ref in zip(states, reference)
               for got, want in zip((state.c, state.n, state.mem_c, state.mem_n), ref))


# ------------------------------------------------------------------ fit


@dataclass
class FitRound:
    cfg: experiments.ExperimentConfig
    model: object
    stage: object


class FitDefault:
    """``fit_on_batch`` at the package-default field on 2 instances."""

    name = "fit-default"
    repeats_round_0 = False
    iterations = 2
    instances = 2
    ops_per_round = iterations

    def setup(self, seed: int, workdir: Path):
        return seed

    def prepare(self, seed: int, index: int) -> FitRound:
        cfg = experiments.ExperimentConfig(seed=round_seed(seed, index, self.instances),
                                           instances=self.instances, iterations=self.iterations)
        return FitRound(cfg=cfg, model=experiments.make_model(cfg), stage=experiments.make_stage(cfg))

    def record(self, inp: FitRound):
        return inp.cfg

    def run_round(self, seed: int, inp: FitRound, span):
        try:
            return experiments.fit_on_batch(inp.cfg, model=inp.model, stage=inp.stage), 0
        except Exception as exc:  # a fit that raises fails all its iterations
            traceback.print_exception(exc)
            return None, self.ops_per_round

    def check(self, seed: int, rounds, root: Path):
        oracles = refs.load_oracles(root)
        problems, _repeats = check_rounds(
            rounds, lambda cfg: cfg.seed,
            lambda n, cfg, result: self._check_round(cfg, result, oracles),
            lambda a, b: np.array_equal(a[1].theta, b[1].theta) and a[1].curve == b[1].curve,
        )
        return problems

    def _check_round(self, cfg, result, oracles):
        problems = []
        lam_rec = 1.0 / (cfg.channels * cfg.height * cfg.width)
        curve = result.curve
        if len(curve) != cfg.iterations + 1:
            problems.append(f"{len(curve)} loss reports, want {cfg.iterations + 1}")
        for i, rep in enumerate(curve):
            parts = (rep.seg, rep.rec, rep.exp, rep.con, rep.ssec, rep.total)
            if not all(np.isfinite(parts)):
                problems.append(f"report {i}: non-finite {parts}")
            elif not refs.close(rep.total, rep.seg + lam_rec * rep.rec + rep.ssec, 1e-12, 1e-15):
                problems.append(f"report {i}: total != seg + lam_rec*rec + ssec")
        if not curve[-1].total < curve[0].total:
            problems.append(f"loss {curve[0].total} -> {curve[-1].total} did not fall")
        # the first batch instance and the initial model, rebuilt from the config
        d = synth.gen_instance(experiments.make_spec(cfg, cfg.seed + 10_000)).dfield
        for label, bundle in (("initial", experiments.make_model(cfg)), ("fitted", result.params)):
            dev = _max_state_deviation(solver.run(d, bundle.solver).states,
                                       oracles.run_oracle(d, bundle.solver))
            if not dev <= ORACLE_TOL:
                problems.append(f"{label} bundle: solver states deviate {dev:.3g} from the reference")
        return problems


# --------------------------------------------------------------- report


@dataclass
class ReportRound:
    cfg: experiments.ExperimentConfig
    model: object


class ReportBitemporal:
    """Both report tables in bi-temporal mode on 8-channel 128x128 fields."""

    name = "report-bitemporal"
    repeats_round_0 = False
    eval_seeds = 2
    # the package-default rectangles (made for 32x32) scaled to the 128x128
    # grid, so change covers the same eighth of the field as by default
    rectangles = "16,16,32,32;80,72,32,32"
    ops_per_round = eval_seeds

    def setup(self, seed: int, workdir: Path):
        return seed

    def prepare(self, seed: int, index: int) -> ReportRound:
        cfg = experiments.ExperimentConfig(
            seed=round_seed(seed, index, self.eval_seeds), channels=8, height=128, width=128,
            patch_side=8, reduced_channels=4, steps=3, mode="bitemporal",
            eval_seeds=self.eval_seeds, rectangles=self.rectangles,
        )
        return ReportRound(cfg=cfg, model=experiments.make_model(cfg))

    def record(self, inp: ReportRound):
        return inp.cfg

    def run_round(self, seed: int, inp: ReportRound, span):
        try:
            sve = experiments.sve_prior_rows(inp.cfg, inp.model)
            con = experiments.contraction_rows(inp.cfg, inp.model)
            return (sve[1], con[1]), 0
        except Exception as exc:  # a failed round fails all its seeds
            traceback.print_exception(exc)
            return None, self.ops_per_round

    def check(self, seed: int, rounds, root: Path):
        oracles = refs.load_oracles(root)
        problems, _repeats = check_rounds(
            rounds, lambda cfg: cfg.seed,
            # the reference solver takes seconds at this size: one seed is enough
            lambda n, cfg, output: self._check_round(cfg, *output, oracles if n == 0 else None),
            lambda a, b: a[1] == b[1],
        )
        return problems

    def _check_round(self, cfg, sve_rows, con_rows, oracles):
        problems = []
        model = experiments.make_model(cfg)
        align = model.align
        eye = np.eye(cfg.channels)
        if not (all(np.array_equal(p, eye) for p in (align.psi_a, align.psi_h, align.psi_v, align.psi_d))
                and align.eta_h == align.eta_v == align.eta_d):
            return ["alignment is not the identity-map form the reference assumes"]
        if len(sve_rows) != cfg.eval_seeds * (cfg.steps + 1):
            problems.append(f"sve-prior: {len(sve_rows)} rows")
        if len(con_rows) != cfg.eval_seeds * cfg.steps + 1:
            problems.append(f"contraction: {len(con_rows)} rows")
        changed, unchanged = refs.patch_groups(
            refs.rectangle_mask(cfg.rectangles, cfg.height, cfg.width), cfg.patch_side)
        ratios, decreases = [], []
        for i in range(cfg.eval_seeds):
            seed = cfg.seed + i
            pair = synth.gen_bitemporal(experiments.make_spec(cfg, seed))
            f1, f2 = refs.haar_suppress(pair.f1, pair.f2, align.eta_a, align.eta_h)
            d = f2 - f1
            states = solver.run(d, model.solver).states
            if oracles is not None and i == 0:
                dev = _max_state_deviation(states, oracles.run_oracle(d, model.solver))
                if not dev <= ORACLE_TOL:
                    problems.append(f"seed {seed}: solver states deviate {dev:.3g} from the reference")
            fields = [d] + [s.c for s in states[1:]]
            rows = [r for r in sve_rows if r["seed"] == seed]
            for k, (fld, row) in enumerate(zip(fields, rows)):
                ent = refs.patch_entropies(fld, cfg.patch_side, cfg.epsilon)
                want_ch, want_un = float(ent[changed].mean()), float(ent[unchanged].mean())
                if row["step"] != k or not (
                    abs(row["sve_changed"] - want_ch) <= ENTROPY_TOL
                    and abs(row["sve_unchanged"] - want_un) <= ENTROPY_TOL
                    and abs(row["gap"] - (want_ch - want_un)) <= 2 * ENTROPY_TOL
                ):
                    problems.append(f"seed {seed} step {k}: SVE columns {row} != "
                                    f"LAPACK {want_ch!r}/{want_un!r}")
            scores = [refs.residual_score(d, s.c, s.n) for s in states[1:]]
            rows = [r for r in con_rows if r["seed"] == seed]
            for k, (score, row) in enumerate(zip(scores, rows), start=1):
                if row["k"] != k or not refs.close(row["r_k"], score, SCORE_REL_TOL):
                    problems.append(f"seed {seed} k={k}: r_k {row['r_k']!r} != {score!r}")
                if k >= 2:
                    ratio = row["r_k"] / rows[k - 2]["r_k"]
                    ratios.append(ratio)
                    if not refs.close(row["ratio"], ratio, SCORE_REL_TOL):
                        problems.append(f"seed {seed} k={k}: ratio {row['ratio']!r} != {ratio!r}")
            decrease = 1.0 - rows[-1]["r_k"] / rows[0]["r_k"]
            decreases.append(decrease)
            if not refs.close(rows[-1]["decrease"], decrease, SCORE_REL_TOL, 1e-15):
                problems.append(f"seed {seed}: decrease {rows[-1]['decrease']!r} != {decrease!r}")
        summary = con_rows[-1]
        if summary["seed"] != "median" or not (
            refs.close(summary["ratio"], statistics.median(ratios), SCORE_REL_TOL)
            and refs.close(summary["decrease"], statistics.median(decreases), SCORE_REL_TOL, 1e-15)
        ):
            problems.append(f"contraction summary row {summary} disagrees with the scores")
        return problems


# ---------------------------------------------------------------- study

# The reduced study config of scripts/run_study.py (2 channels, 16x16,
# patch 4), in bi-temporal mode and cut to one instance, one fit iteration,
# two eval seeds and depths 0..2, so the eight subcommands take seconds.
STUDY_CONFIG = """\
channels = 2
height = 16
width = 16
patch_side = 4
reduced_channels = 2
steps = 3
rectangles = 2,2,6,6;9,8,5,5
instances = 1
eval_seeds = 2
iterations = 1
k_max = 2
mode = bitemporal
"""

CSV_ROWS = {  # CSV output -> data rows it must hold under the config above
    "gen/manifest.csv": 3,
    "model.params.curve.csv": 2,
    "sve.csv": 2 * 4,
    "contraction.csv": 2 * 3 + 1,
    "ablation.csv": 8,
    "ksweep.csv": 3,
    "sensitivity.csv": 16,
    "check.csv": None,
}

PROVENANCE = re.compile(r"# tool=diffdecomp version=\S+ seed=(\d+) config=[0-9a-f]{12}\n")


@dataclass
class StudyContext:
    seed: int
    workdir: Path
    config_path: Path
    cfg: experiments.ExperimentConfig


@dataclass
class StudyRound:
    seed: int
    out: Path


class CliStudy:
    """All eight subcommands of ``cli.main`` in order, in one process."""

    name = "cli-study"
    ops_per_round = 8
    # the CLI promises byte-identical output when a command is repeated
    repeats_round_0 = True

    def setup(self, seed: int, workdir: Path) -> StudyContext:
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "study.cfg"
        config_path.write_text(STUDY_CONFIG, encoding="utf-8")
        cfg = experiments.parse_config_text(STUDY_CONFIG)
        return StudyContext(seed=seed, workdir=workdir, config_path=config_path, cfg=cfg)

    def prepare(self, ctx: StudyContext, index: int) -> StudyRound:
        seed = round_seed(ctx.seed, index, ctx.cfg.eval_seeds)
        out = ctx.workdir / f"seed{seed}"
        while out.exists():
            out = out.with_name(out.name + "-again")
        out.mkdir()
        return StudyRound(seed=seed, out=out)

    def record(self, inp: StudyRound) -> StudyRound:
        return inp

    def argvs(self, ctx: StudyContext, inp: StudyRound):
        out = inp.out
        base = ["--seed", str(inp.seed), "--config", str(ctx.config_path)]
        model = str(out / "model.params")
        return (
            ("gen", ["gen", *base, "--out", str(out / "gen")]),
            ("fit", ["fit", *base, "--out", model]),
            ("sve-prior", ["sve-prior", *base, "--params", model, "--out", str(out / "sve.csv")]),
            ("contraction", ["contraction", *base, "--params", model,
                             "--out", str(out / "contraction.csv")]),
            ("ablation", ["ablation", *base, "--out", str(out / "ablation.csv")]),
            ("k-sweep", ["k-sweep", *base, "--out", str(out / "ksweep.csv")]),
            ("sensitivity", ["sensitivity", *base, "--out", str(out / "sensitivity.csv")]),
            ("check", ["check", "--seed", str(inp.seed), "--out", str(out / "check.csv")]),
        )

    def run_round(self, ctx: StudyContext, inp: StudyRound, span):
        codes, texts, failed = {}, {}, 0
        for sub, argv in self.argvs(ctx, inp):
            buf = io.StringIO()
            with span(f"cli.{sub}"), contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                try:
                    codes[sub] = cli.main(argv)
                except Exception as exc:  # an escaped exception fails the subcommand
                    codes[sub] = repr(exc)
            texts[sub] = buf.getvalue()
            if codes[sub] != 0:
                failed += 1
                print(f"{sub} returned {codes[sub]!r}: {texts[sub]}", flush=True)
        return (codes, texts), failed

    def check(self, ctx: StudyContext, rounds, root: Path):
        problems, repeats = check_rounds(
            rounds, lambda inp: inp.seed,
            lambda n, inp, output: self._check_round(ctx, inp, *output),
            lambda a, b: (_snapshot(a[0].out) == _snapshot(b[0].out)
                          and a[1][1]["check"] == b[1][1]["check"]),
        )
        if not repeats:
            problems.append("no round repeated an earlier one")
        return problems

    def _check_round(self, ctx: StudyContext, inp: StudyRound, codes, texts):
        failed = {sub: code for sub, code in codes.items() if code != 0}
        if failed:
            return [f"subcommands failed: {failed}"]
        problems = []
        if not re.search(r"^all \d+ checks passed$", texts["check"], re.M):
            problems.append("check did not report all checks passed")
        problems += self._check_csvs(inp)
        problems += self._check_tensors(ctx, inp)
        model = inp.out / "model.params"
        if params.dumps_params(params.load_params(model)).encode("utf-8") != model.read_bytes():
            problems.append("params file does not round-trip byte for byte")
        return problems

    def _check_csvs(self, inp: StudyRound):
        problems = []
        for name, want_rows in CSV_ROWS.items():
            lines = (inp.out / name).read_text(encoding="utf-8").splitlines(keepends=True)
            match = PROVENANCE.fullmatch(lines[0]) if lines else None
            if not match or int(match.group(1)) != inp.seed:
                problems.append(f"{name}: first line {lines[:1]} is not the provenance line")
            rows = list(csv.DictReader(lines[1:]))
            if want_rows is not None and len(rows) != want_rows:
                problems.append(f"{name}: {len(rows)} rows, want {want_rows}")
            if name == "check.csv" and (not rows or any(r.get("ok") != "1" for r in rows)):
                problems.append("check.csv: not every check passed")
        return problems

    def _check_tensors(self, ctx: StudyContext, inp: StudyRound):
        problems = []
        out = inp.out
        cfg = ctx.cfg
        mask = refs.rectangle_mask(cfg.rectangles, cfg.height, cfg.width)
        lines = (out / "gen" / "manifest.csv").read_text(encoding="utf-8").splitlines()[1:]
        tensors = {}
        for row in csv.DictReader(lines):
            array = refs.read_pufd(out / "gen" / row["file"])
            if "x".join(map(str, array.shape)) != row["shape"]:
                problems.append(f"{row['file']}: shape {array.shape} != manifest {row['shape']}")
            tensors[(int(row["seed"]), row["tensor"])] = array
        seeds = [inp.seed + i for i in range(cfg.instances)]
        if sorted(tensors) != sorted((s, t) for s in seeds for t in ("f1", "f2", "labels")):
            return problems + [f"manifest lists {sorted(tensors)}"]
        for s in seeds:
            if not np.array_equal(tensors[(s, "labels")], mask):
                problems.append(f"seed {s}: labels differ from the config rectangles")
            offset = (tensors[(s, "f2")] - tensors[(s, "f1")])[:, mask == 0]
            dev = float(np.max(np.abs(offset - cfg.illumination)))
            if not dev <= 1e-12:
                problems.append(f"seed {s}: f2 - f1 outside the rectangles deviates {dev:.3g} "
                                f"from the illumination offset")
        return problems


def _snapshot(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


WORKLOADS = {w.name: w for w in (FitDefault(), ReportBitemporal(), CliStudy())}
