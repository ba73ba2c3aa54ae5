"""Command-line entry point.

Subcommands: gen, train, infer, invert, eval, export-plot. A JSON config
file supplies defaults per command; explicit flags override it, and the
merged configuration is echoed into the output directory. Exit codes:
0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import (DESK_MODEL, PAPER_MODEL, ModelConfig, PsoConfig, SamplingConfig,
                     SolverConfig, TrainConfig, config_as_dict)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="pdedag", description="PDE-to-DAG neural surrogate toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON file with defaults for this command")
        p.add_argument("--seed", type=int)
        p.add_argument("--scale", choices=["desk", "paper"], default="desk")

    gen = sub.add_parser("gen", help="generate a dataset")
    common(gen)
    gen.add_argument("--count", type=int)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--workers", type=int)

    tr = sub.add_parser("train", help="train the surrogate on a dataset")
    common(tr)
    tr.add_argument("--data", type=Path, required=True)
    tr.add_argument("--out", type=Path, required=True)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--points", type=int)
    tr.add_argument("--steps-per-sample", type=int)
    tr.add_argument("--test-fraction", type=float)
    tr.add_argument("--no-augment", action="store_true")
    tr.add_argument("--sequential", action="store_true", help="bit-reproducible reductions")
    tr.add_argument("--init-checkpoint", type=Path, help="fine-tune from this checkpoint")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(ev)
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--data", type=Path, required=True)
    ev.add_argument("--out", type=Path)
    ev.add_argument("--sequential", action="store_true")

    inf = sub.add_parser("infer", help="predict a solution grid for a DSL equation")
    common(inf)
    inf.add_argument("--checkpoint", type=Path, required=True)
    inf.add_argument("--pde", type=str, required=True, help='e.g. "dt(u) + c*dx(u) = 0"')
    inf.add_argument("--coef", action="append", metavar="NAME=VALUE")
    inf.add_argument("--ic", type=Path, required=True, help="CSV file with n_x initial values")
    inf.add_argument("--out", type=Path, required=True, help="CSV file for the prediction grid")
    inf.add_argument("--nt", type=int)

    inv = sub.add_parser("invert", help="recover coefficients from one observation")
    common(inv)
    inv.add_argument("--checkpoint", type=Path, required=True)
    inv.add_argument("--data", type=Path, required=True)
    inv.add_argument("--sample-index", type=int)
    inv.add_argument("--noise", type=float)
    inv.add_argument("--swarm", type=int)
    inv.add_argument("--iterations", type=int)
    inv.add_argument("--subsample", type=int)
    inv.add_argument("--out", type=Path)

    pl = sub.add_parser("export-plot", help="render a sample as an SVG heatmap")
    common(pl)
    pl.add_argument("--data", type=Path, required=True)
    pl.add_argument("--sample-index", type=int)
    pl.add_argument("--out", type=Path, required=True)
    return parser


def _load_config_file(path: Path | None, command: str, known: set[str]) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text())
    section = doc.get(command, doc) if isinstance(doc, dict) else None
    if not isinstance(section, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(section) - known
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    return section


def _merged(args, defaults: dict, key: str, fallback):
    explicit = getattr(args, key.replace("-", "_"), None)
    if explicit is not None and explicit is not False:
        return explicit
    if key in defaults:
        return defaults[key]
    return fallback


def _overrides(args, defaults: dict, fields: dict[str, str]) -> dict:
    """Config-field updates (flag key -> field name) for the keys set by a
    flag or the config file; unset keys keep the dataclass default."""
    updates = {}
    for key, fname in fields.items():
        val = _merged(args, defaults, key, None)
        if val is not None:
            updates[fname] = val
    return updates


def _model_cfg(scale: str) -> ModelConfig:
    return PAPER_MODEL if scale == "paper" else DESK_MODEL


def _echo_config(out_dir: Path, command: str, doc: dict) -> None:
    from .dataio import write_effective_config

    write_effective_config(out_dir, {"command": command, "config": doc})


def _cmd_gen(args) -> int:
    from .datagen import generate_dataset

    defaults = _load_config_file(args.config, "gen", {"count", "seed", "workers", "sampling", "solver"})
    count = _merged(args, defaults, "count", 10)
    if count < 1:
        raise UsageError(f"count must be at least 1, got {count}")
    seed = _merged(args, defaults, "seed", 0)
    workers = _merged(args, defaults, "workers", 1)
    sampling = SamplingConfig(**defaults.get("sampling", {}))
    solver = SolverConfig(**defaults.get("solver", {}))
    generate_dataset(args.out, count=count, base_seed=seed, sampling=sampling,
                     solver_cfg=solver, workers=workers)
    _echo_config(args.out, "gen", {"count": count, "seed": seed, "workers": workers,
                                   "sampling": config_as_dict(sampling), "solver": config_as_dict(solver)})
    print(f"wrote {count} samples to {args.out}")
    return 0


def _train_cfg_from(args, defaults: dict) -> TrainConfig:
    cfg = TrainConfig(seed=_merged(args, defaults, "seed", 0))
    updates = _overrides(args, defaults, {
        "epochs": "epochs", "batch_size": "batch_size", "lr": "base_lr", "points": "points_per_sample",
        "steps_per_sample": "steps_per_sample", "test_fraction": "test_fraction"})
    if getattr(args, "no_augment", False) or defaults.get("no_augment"):
        updates["augment"] = False
    if getattr(args, "sequential", False) or defaults.get("sequential"):
        updates["sequential"] = True
    return dataclasses.replace(cfg, **updates)


def _cmd_train(args) -> int:
    from .dataio import load_checkpoint, read_dataset
    from .training import train

    known = {"seed", "epochs", "batch_size", "lr", "points", "steps_per_sample",
             "test_fraction", "no_augment", "sequential"}
    defaults = _load_config_file(args.config, "train", known)
    model_cfg = _model_cfg(args.scale)
    cfg = _train_cfg_from(args, defaults)
    bundle = read_dataset(args.data)
    initial = None
    if args.init_checkpoint is not None:
        initial, model_cfg, _, _ = load_checkpoint(args.init_checkpoint)
    result = train(bundle.samples, model_cfg, cfg, out_dir=args.out, initial=initial)
    _echo_config(args.out, "train", {"model": config_as_dict(model_cfg), "train": config_as_dict(cfg),
                                     "data": str(args.data)})
    print(f"final train loss {result.final_train_loss:.6f}; checkpoint at {result.checkpoint_dir}")
    return 0


def _cmd_eval(args) -> int:
    from .dataio import load_checkpoint, read_dataset
    from .training import evaluate

    defaults = _load_config_file(args.config, "eval", {"sequential"})
    sequential = _merged(args, defaults, "sequential", False)
    params, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    bundle = read_dataset(args.data)
    with ad.sequential_mode() if sequential else contextlib.nullcontext():
        metrics = evaluate(params, model_cfg, bundle.samples)
    doc = {"mean_relative_l2": metrics["mean"], "per_sample": metrics["per_sample"]}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"mean relative L2: {metrics['mean']:.17g}")
    return 0


def _cmd_infer(args) -> int:
    from .dataio import load_checkpoint
    from .dsl import parse_pde
    from .model import predict_grid

    defaults = _load_config_file(args.config, "infer", {"coef", "nt"})
    params, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    coefficients = {}
    for item in _merged(args, defaults, "coef", []):
        if "=" not in item:
            raise UsageError(f"--coef expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        coefficients[name.strip()] = float(value)
    ast = parse_pde(args.pde, coefficients)
    ic = np.loadtxt(args.ic, delimiter=",", dtype=np.float64).ravel()
    n_t = _merged(args, defaults, "nt", 101)
    grid = predict_grid(ast, ic.astype(np.float32), params, model_cfg, n_t=n_t)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(args.out, grid, delimiter=",", fmt="%.9g")
    print(f"wrote {grid.shape[0]}x{grid.shape[1]} prediction grid to {args.out}")
    return 0


def _cmd_invert(args) -> int:
    from .dataio import load_checkpoint, read_dataset
    from .inverse import InverseProblem, add_noise, build_inverse_template, recover_coefficients, save_report

    defaults = _load_config_file(args.config, "invert",
                                 {"seed", "sample_index", "noise", "swarm", "iterations", "subsample"})
    seed = _merged(args, defaults, "seed", 0)
    noise = _merged(args, defaults, "noise", 0.0)
    params, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    bundle = read_dataset(args.data)
    sample = bundle.samples[_merged(args, defaults, "sample_index", 0)]
    template, names = build_inverse_template(sample.coefficients)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    observation = add_noise(sample.solution.astype(np.float64), noise, rng)
    problem = InverseProblem(template=template, observation=observation, noise_level=noise,
                             **_overrides(args, defaults, {"subsample": "subsample"}))
    pso = dataclasses.replace(PsoConfig(seed=seed), **_overrides(
        args, defaults, {"swarm": "swarm_size", "iterations": "iterations"}))
    report = recover_coefficients(problem, params, model_cfg, pso)
    truth = {name: float(sample.coefficients.c[int(name[1]), int(name[2])]) for name in names if name != "nu"}
    print(f"objective {report.objective:.6f}")
    for name in names:
        line = f"  {name}: recovered {report.values[name]:+.4f}"
        if name in truth:
            line += f" (truth {truth[name]:+.4f})"
        print(line)
    if args.out:
        save_report(report, args.out)
    return 0


def _cmd_export_plot(args) -> int:
    from .dataio import read_dataset
    from .plotting import export_heatmap

    defaults = _load_config_file(args.config, "export-plot", {"sample_index"})
    bundle = read_dataset(args.data)
    sample = bundle.samples[_merged(args, defaults, "sample_index", 0)]
    export_heatmap(sample.solution, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "invert": _cmd_invert,
    "export-plot": _cmd_export_plot,
}


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure -> exit 2 with diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
