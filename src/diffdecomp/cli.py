"""Command-line experiment runner.

Subcommands: gen, fit, sve-prior, contraction, ablation, k-sweep,
sensitivity, check.  Exit codes: 0 success, 1 usage or configuration error,
2 numerical-check failure, 130 interrupted.  With a fixed seed every command
writes byte-identical output on repeated runs; nothing time-dependent is
emitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .core import ConfigError, NumericalError, read_utf8
from .csvio import write_csv
from .experiments import (
    ExperimentConfig,
    ablation_rows,
    canonical_config_text,
    contraction_rows,
    fit_on_batch,
    ksweep_rows,
    make_item,
    parse_config_text,
    replay_rows,
    run_checks,
    sensitivity_rows,
    sve_prior_rows,
)
from .params import load_params, save_params
from .synth import BitemporalPair
from .tensorio import TensorFormatError, write_tensor

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for numerical
    # failures, so usage problems are rethrown and mapped to exit 1.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffdecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--config", type=str, default=None, help="flat name=value file")
        p.add_argument("--out", type=str, required=True)
        return p

    add("gen", "generate instances to PUFD tensors in the output directory")
    add("fit", "fit selected parameter groups; writes params + loss curve CSV")
    p_sve = add("sve-prior", "per-step changed/unchanged SVE means and gap")
    p_sve.add_argument("--params", type=str, default=None, help="fitted params file")
    p_con = add("contraction", "residual scores, ratios, and decrease fractions")
    p_con.add_argument("--params", type=str, default=None, help="fitted params file")
    p_con.add_argument(
        "--replay", type=str, default=None, help="comma-separated residual scores"
    )
    add("ablation", "fit and evaluate the 8 gating/align/staged variants")
    add("k-sweep", "fit and evaluate at unroll depths 0..k_max")
    add("sensitivity", "margin, band, and weight sweeps of the staged penalty")
    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", type=str, default=None, help="optional results CSV")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        if not os.path.isfile(args.config):
            raise UsageError(f"config file not found: {args.config}")
        cfg = parse_config_text(read_utf8(args.config))
    else:
        cfg = ExperimentConfig()
    return dataclasses.replace(cfg, seed=args.seed)


def _load_fitted(path):
    if not path:
        raise UsageError("--params is required (fit first, then point --params at it)")
    if not os.path.isfile(path):
        raise UsageError(f"params file not found: {path}")
    return load_params(path)


def _spec_record(spec) -> str:
    """One ``name=value`` line of every spec field; rectangles as ``r,c,h,w;...``."""
    rects = ";".join(",".join(str(v) for v in r) for r in spec.rectangles)
    return " ".join(
        f"{f.name}={rects if f.name == 'rectangles' else repr(getattr(spec, f.name))}"
        for f in dataclasses.fields(spec)
    )


def cmd_gen(cfg: ExperimentConfig, out_dir: str) -> int:
    # Every item is drawn before the directory is made, so a failed draw
    # leaves nothing behind.
    files = []
    manifest = []
    records = []
    for i in range(cfg.instances):
        item = make_item(cfg, cfg.seed + i)
        records.append(_spec_record(item.spec))
        if isinstance(item, BitemporalPair):
            tensors = [("f1", item.f1), ("f2", item.f2), ("labels", item.labels)]
        else:
            tensors = [
                ("d", item.dfield),
                ("cstar", item.c_star),
                ("nstar", item.n_star),
                ("labels", item.labels),
            ]
        for name, tensor in tensors:
            fname = f"seed{item.spec.seed}_{name}.pufd"
            files.append((fname, tensor))
            manifest.append(
                {
                    "seed": item.spec.seed,
                    "tensor": name,
                    "file": fname,
                    "shape": "x".join(str(s) for s in tensor.shape),
                }
            )
    os.makedirs(out_dir, exist_ok=True)
    for fname, tensor in files:
        write_tensor(os.path.join(out_dir, fname), tensor)
    with open(os.path.join(out_dir, "specs.txt"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(records) + "\n")
    write_csv(
        os.path.join(out_dir, "manifest.csv"),
        ["seed", "tensor", "file", "shape"],
        manifest,
        cfg.seed,
        canonical_config_text(cfg),
    )
    print(f"wrote {len(manifest)} tensors for {cfg.instances} instances to {out_dir}")
    return 0


def cmd_fit(cfg: ExperimentConfig, out_path: str) -> int:
    result = fit_on_batch(cfg)
    save_params(out_path, result.params)
    curve_rows = [
        {
            "iteration": i,
            "seg": rep.seg,
            "rec": rep.rec,
            "ssec": rep.ssec,
            "total": rep.total,
        }
        for i, rep in enumerate(result.curve)
    ]
    write_csv(
        out_path + ".curve.csv",
        ["iteration", "seg", "rec", "ssec", "total"],
        curve_rows,
        cfg.seed,
        canonical_config_text(cfg),
    )
    print(
        f"fit {result.theta.size} parameters: total loss "
        f"{result.initial.total:.6g} -> {result.final.total:.6g}"
    )
    return 0


def cmd_check(seed: int, out_path) -> int:
    results = run_checks(seed)
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if out_path:
        write_csv(
            out_path,
            ["check", "ok", "detail"],
            [{"check": n, "ok": int(ok), "detail": d} for n, ok, d in results],
            seed,
            f"check seed={seed}",
        )
    failed = [name for name, ok, _ in results if not ok]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def _run(args) -> int:
    if args.command == "check":
        return cmd_check(args.seed, args.out)

    cfg = _load_config(args)
    if args.command == "gen":
        return cmd_gen(cfg, args.out)
    if args.command == "fit":
        return cmd_fit(cfg, args.out)

    if args.command == "sve-prior":
        model = _load_fitted(args.params)
        columns, rows = sve_prior_rows(cfg, model)
    elif args.command == "contraction":
        if args.replay:
            # float() and the report reject unparsable, empty, negative and
            # non-finite score lists alike.
            try:
                scores = [float(v) for v in args.replay.split(",") if v.strip()]
                columns, rows = replay_rows(scores)
            except ValueError as exc:
                raise UsageError(f"bad --replay value {args.replay!r}: {exc}") from exc
        else:
            model = _load_fitted(args.params)
            columns, rows = contraction_rows(cfg, model)
    elif args.command == "ablation":
        columns, rows = ablation_rows(cfg)
    elif args.command == "k-sweep":
        columns, rows = ksweep_rows(cfg)
    elif args.command == "sensitivity":
        columns, rows = sensitivity_rows(cfg)
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown command {args.command!r}")

    write_csv(args.out, columns, rows, cfg.seed, canonical_config_text(cfg))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, TensorFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
