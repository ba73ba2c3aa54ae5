"""Command-line entry point.

Subcommands: gen, train, infer, invert, eval, export-plot. A JSON config
file supplies defaults per command; explicit flags override it, and gen and
train echo their effective configuration into the output directory. Exit
codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import (DESK_MODEL, PAPER_MODEL, PsoConfig, SamplingConfig, SolverConfig,
                     TrainConfig, config_as_dict)
from .inverse import InverseProblem

_SCALES = {"desk": DESK_MODEL, "paper": PAPER_MODEL}
_TRAIN, _PSO = TrainConfig(), PsoConfig()

# The options a config file may set, declared once per command as (flag,
# add_argument keywords). The config key is the flag name with "_" for "-";
# the file's value becomes the flag's default, so an explicit flag still wins
# and an appended flag (--coef) adds to the file's list.
_OPTIONS: dict[str, list[tuple[str, dict]]] = {
    "gen": [
        ("--count", dict(type=int, default=10)),
        ("--seed", dict(type=int, default=0)),
        ("--workers", dict(type=int, default=1)),
    ],
    "train": [
        ("--seed", dict(type=int, default=_TRAIN.seed)),
        ("--epochs", dict(type=int, default=_TRAIN.epochs)),
        ("--batch-size", dict(type=int, default=_TRAIN.batch_size)),
        ("--lr", dict(type=float, default=_TRAIN.base_lr)),
        ("--points", dict(type=int, default=_TRAIN.points_per_sample)),
        ("--steps-per-sample", dict(type=int, default=_TRAIN.steps_per_sample)),
        ("--test-fraction", dict(type=float, default=_TRAIN.test_fraction)),
        ("--no-augment", dict(action="store_true")),
        ("--sequential", dict(action="store_true", help="bit-reproducible reductions")),
    ],
    "eval": [("--sequential", dict(action="store_true"))],
    "infer": [
        ("--coef", dict(action="append", default=[], metavar="NAME=VALUE")),
        ("--nt", dict(type=int, default=101)),
    ],
    "invert": [
        ("--seed", dict(type=int, default=_PSO.seed)),
        ("--sample-index", dict(type=int, default=0)),
        ("--noise", dict(type=float, default=0.0)),
        ("--swarm", dict(type=int, default=_PSO.swarm_size)),
        ("--iterations", dict(type=int, default=_PSO.iterations)),
        ("--subsample", dict(type=int, default=InverseProblem.subsample)),
    ],
    "export-plot": [("--sample-index", dict(type=int, default=0))],
}
# config sections with no flag: gen's sampling and solver settings
_SECTIONS = {"gen": {"sampling": {}, "solver": {}}}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser(config: dict[str, dict] | None = None) -> _Parser:
    """The CLI parser; ``config`` maps a command to config-file defaults."""
    parser = _Parser(prog="pdedag", description="PDE-to-DAG neural surrogate toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON file with defaults for this command")
        for flag, kwargs in _OPTIONS[name]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(**_SECTIONS.get(name, {}))
        p.set_defaults(**(config or {}).get(name, {}))
        return p

    gen = command("gen", "generate a dataset")
    gen.add_argument("--out", type=Path, required=True)

    tr = command("train", "train the surrogate on a dataset")
    tr.add_argument("--scale", choices=_SCALES, default="desk")
    tr.add_argument("--data", type=Path, required=True)
    tr.add_argument("--out", type=Path, required=True)
    tr.add_argument("--init-checkpoint", type=Path, help="fine-tune from this checkpoint")

    ev = command("eval", "evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--data", type=Path, required=True)
    ev.add_argument("--out", type=Path)

    inf = command("infer", "predict a solution grid for a DSL equation")
    inf.add_argument("--checkpoint", type=Path, required=True)
    inf.add_argument("--pde", type=str, required=True, help='e.g. "dt(u) + c*dx(u) = 0"')
    inf.add_argument("--ic", type=Path, required=True, help="CSV file with n_x initial values")
    inf.add_argument("--out", type=Path, required=True, help="CSV file for the prediction grid")

    inv = command("invert", "recover coefficients from one observation")
    inv.add_argument("--checkpoint", type=Path, required=True)
    inv.add_argument("--data", type=Path, required=True)
    inv.add_argument("--out", type=Path)

    pl = command("export-plot", "render a sample as an SVG heatmap")
    pl.add_argument("--data", type=Path, required=True)
    pl.add_argument("--out", type=Path, required=True)
    return parser


def _load_config_file(path: Path, command: str) -> dict:
    doc = json.loads(Path(path).read_text())
    section = doc.get(command, doc) if isinstance(doc, dict) else None
    if not isinstance(section, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    known = {flag[2:].replace("-", "_") for flag, _ in _OPTIONS[command]} | set(_SECTIONS.get(command, {}))
    unknown = set(section) - known
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    return section


def _sample(bundle, index: int):
    if not 0 <= index < len(bundle.samples):
        raise UsageError(f"--sample-index {index} is outside the dataset's {len(bundle.samples)} samples")
    return bundle.samples[index]


def _echo_config(out_dir: Path, command: str, doc: dict) -> None:
    from .dataio import write_effective_config

    write_effective_config(out_dir, {"command": command, "config": doc})


def _cmd_gen(args) -> int:
    from .datagen import generate_dataset

    if args.count < 1:
        raise UsageError(f"count must be at least 1, got {args.count}")
    sampling = SamplingConfig(**args.sampling)
    solver = SolverConfig(**args.solver)
    generate_dataset(args.out, count=args.count, base_seed=args.seed, sampling=sampling,
                     solver_cfg=solver, workers=args.workers)
    _echo_config(args.out, "gen", {"count": args.count, "seed": args.seed, "workers": args.workers,
                                   "sampling": config_as_dict(sampling), "solver": config_as_dict(solver)})
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    from .dataio import load_checkpoint, read_dataset
    from .training import train

    model_cfg = _SCALES[args.scale]
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
                      points_per_sample=args.points, steps_per_sample=args.steps_per_sample,
                      test_fraction=args.test_fraction, augment=not args.no_augment,
                      sequential=bool(args.sequential))
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

    params, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    bundle = read_dataset(args.data)
    with ad.sequential_mode() if args.sequential else contextlib.nullcontext():
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

    params, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    coefficients = {}
    for item in args.coef:
        if "=" not in item:
            raise UsageError(f"--coef expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        coefficients[name.strip()] = float(value)
    ast = parse_pde(args.pde, coefficients)
    ic = np.loadtxt(args.ic, delimiter=",", dtype=np.float64).ravel()
    grid = predict_grid(ast, ic.astype(np.float32), params, model_cfg, n_t=args.nt)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(args.out, grid, delimiter=",", fmt="%.9g")
    print(f"wrote {grid.shape[0]}x{grid.shape[1]} prediction grid to {args.out}")
    return 0


def _cmd_invert(args) -> int:
    from .dataio import load_checkpoint, read_dataset
    from .inverse import add_noise, build_inverse_template, recover_coefficients, save_report

    params, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    sample = _sample(read_dataset(args.data), args.sample_index)
    template, names = build_inverse_template(sample.coefficients)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 3]))
    observation = add_noise(sample.solution.astype(np.float64), args.noise, rng)
    problem = InverseProblem(template=template, observation=observation, noise_level=args.noise,
                             subsample=args.subsample)
    pso = PsoConfig(swarm_size=args.swarm, iterations=args.iterations, seed=args.seed)
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

    export_heatmap(_sample(read_dataset(args.data), args.sample_index).solution, args.out)
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
        if args.config is not None:
            config = {args.command: _load_config_file(args.config, args.command)}
            args = build_parser(config).parse_args(argv)
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
