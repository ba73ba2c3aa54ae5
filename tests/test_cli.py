import hashlib
import json

import numpy as np
import pytest

from pdedag import autodiff as ad
from pdedag import cli
from pdedag.cli import run_cli
from pdedag.config import ModelConfig, SamplingConfig, SolverConfig, TrainConfig, config_as_dict
from pdedag.dataio import save_checkpoint
from pdedag.datagen import generate_dataset
from pdedag.model import init_model_params


def _digest(path):
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


SMALL = SolverConfig(n_x=64, n_t=11)
TINY_MODEL = ModelConfig(d_f=8, n_patches=8, n_mod=2, d_e=16, n_layers=1, n_heads=2,
                         ffn_dim=16, feat_hidden=16, d_h=8, hyper_hidden=16)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    generate_dataset(out, count=2, base_seed=77, solver_cfg=SMALL)
    return out


def test_gen_deterministic_directories(tmp_path):
    code1 = run_cli(["gen", "--count", "2", "--seed", "1", "--out", str(tmp_path / "a")])
    code2 = run_cli(["gen", "--count", "2", "--seed", "1", "--out", str(tmp_path / "b")])
    assert code1 == 0 and code2 == 0
    a = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir() if p.suffix == ".bin"}
    b = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir() if p.suffix == ".bin"}
    assert a == b
    assert (tmp_path / "a" / "effective_config.json").exists()


def test_unknown_flag_usage_error(capsys):
    assert run_cli(["gen", "--nope", "1"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_count_below_one_is_a_usage_error(tmp_path, capsys, count):
    assert run_cli(["gen", "--count", count, "--out", str(tmp_path / "o")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_command_usage_error():
    assert run_cli(["frobnicate"]) == 1


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0


def test_missing_dataset_is_runtime_error(tmp_path, capsys):
    code = run_cli(["eval", "--checkpoint", str(tmp_path / "nope"),
                    "--data", str(tmp_path / "alsono")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"bogus_key": 1}}))
    assert run_cli(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_gen_takes_count_and_seed_from_the_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"count": 1, "seed": 5}}))
    assert run_cli(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    echoed = json.loads((tmp_path / "o" / "effective_config.json").read_text())["config"]
    assert (echoed["count"], echoed["seed"]) == (1, 5)


def test_gen_takes_its_sampling_and_solver_sections_from_the_config_file(tmp_path):
    sampling = SamplingConfig(zero_prob=0.25)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"count": 1, "sampling": {"zero_prob": 0.25},
                                       "solver": {"n_x": 64, "n_t": 11}}}))
    assert run_cli(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    echoed = json.loads((tmp_path / "o" / "effective_config.json").read_text())["config"]
    assert (echoed["sampling"], echoed["solver"]) == (config_as_dict(sampling), config_as_dict(SMALL))


# placeholder paths: the tests that use them fail while parsing or replace the command
_ARGV = {
    "gen": ["--out", "o"],
    "train": ["--data", "d", "--out", "o"],
    "eval": ["--checkpoint", "c", "--data", "d"],
    "infer": ["--checkpoint", "c", "--pde", "dt(u) = 0", "--ic", "i", "--out", "o"],
    "invert": ["--checkpoint", "c", "--data", "d"],
    "export-plot": ["--data", "d", "--out", "o"],
}


def _parsed_args(monkeypatch, argv):
    seen = []

    def fake_command(args):
        seen.append(args)
        return 0

    monkeypatch.setitem(cli._COMMANDS, argv[0], fake_command)
    assert run_cli(argv) == 0
    return seen[0]


@pytest.mark.parametrize("command,flag", [(c, f) for c, opts in cli._OPTIONS.items() for f, _ in opts])
def test_every_config_key_reaches_its_command_and_the_flag_wins(monkeypatch, tmp_path, command, flag):
    kwargs = dict(cli._OPTIONS[command])[flag]
    key = flag[2:].replace("-", "_")
    action = kwargs.get("action")
    if action == "store_true":  # a flag can only switch it on, over a file's false
        in_file, under_flag, flag_argv, flagged = True, False, [flag], True
    elif action == "append":  # flags add to the file's list
        in_file, under_flag, flag_argv, flagged = ["c=1"], ["c=1"], [flag, "c=2"], ["c=1", "c=2"]
    else:
        in_file, flag_value = {int: (3, 5), float: (0.25, 0.5)}[kwargs["type"]]
        under_flag, flag_argv, flagged = in_file, [flag, str(flag_value)], flag_value
    assert in_file != kwargs.get("default", False)
    cfg = tmp_path / "cfg.json"
    argv = [command, "--config", str(cfg)] + _ARGV[command]
    cfg.write_text(json.dumps({command: {key: in_file}}))
    assert getattr(_parsed_args(monkeypatch, argv), key) == in_file
    cfg.write_text(json.dumps({command: {key: under_flag}}))
    assert getattr(_parsed_args(monkeypatch, argv + flag_argv), key) == flagged


@pytest.mark.parametrize("command,flag", [
    ("gen", "--scale"), ("eval", "--scale"), ("infer", "--scale"), ("invert", "--scale"),
    ("export-plot", "--scale"), ("eval", "--seed"), ("infer", "--seed"), ("export-plot", "--seed")])
def test_flags_no_command_reads_are_gone(capsys, command, flag):
    value = "paper" if flag == "--scale" else "1"
    assert run_cli([command, flag, value] + _ARGV[command]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_train_takes_every_setting_from_the_config_file(tmp_path, tiny_dataset):
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(TINY_MODEL, seed=0), TINY_MODEL)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {
        "seed": 3, "epochs": 2, "batch_size": 1, "lr": 1e-3, "points": 16, "steps_per_sample": 2,
        "test_fraction": 0.5, "no_augment": True, "sequential": True}}))
    argv = ["train", "--config", str(cfg), "--data", str(tiny_dataset), "--out", str(tmp_path / "run"),
            "--init-checkpoint", str(ckpt), "--epochs", "1"]
    assert run_cli(argv) == 0
    echoed = json.loads((tmp_path / "run" / "effective_config.json").read_text())["config"]
    assert echoed["train"] == config_as_dict(TrainConfig(
        seed=3, epochs=1, batch_size=1, base_lr=1e-3, points_per_sample=16, steps_per_sample=2,
        test_fraction=0.5, augment=False, sequential=True))


@pytest.mark.parametrize("command", ["train", "eval", "infer", "invert", "export-plot"])
def test_config_file_unknown_key_rejected_by_every_command(tmp_path, tiny_dataset, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: {"bogus_key": 1}}))
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(TINY_MODEL, seed=0), TINY_MODEL)
    argv = {
        "train": ["--data", str(tiny_dataset), "--out", str(tmp_path / "run")],
        "eval": ["--checkpoint", str(ckpt), "--data", str(tiny_dataset)],
        "infer": ["--checkpoint", str(ckpt), "--pde", "dt(u) = 0", "--ic", str(tmp_path / "ic.csv"),
                  "--out", str(tmp_path / "p.csv")],
        "invert": ["--checkpoint", str(ckpt), "--data", str(tiny_dataset)],
        "export-plot": ["--data", str(tiny_dataset), "--out", str(tmp_path / "p.svg")],
    }[command]
    assert run_cli([command, "--config", str(cfg)] + argv) == 1


def _invert_inputs(monkeypatch, tmp_path, tiny_dataset, extra):
    import pdedag.inverse as inverse

    seen = {}

    def fake_recover(problem, params, model_cfg, pso_cfg):
        seen.update(problem=problem, pso=pso_cfg)
        names = inverse.dsl.unbound_names(problem.template)
        return inverse.InversionReport(names=names, values=dict.fromkeys(names, 0.0), objective=0.0,
                                       trace=[0.0], seed=pso_cfg.seed, bounds=[])

    monkeypatch.setattr(inverse, "recover_coefficients", fake_recover)
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(TINY_MODEL, seed=0), TINY_MODEL)
    assert run_cli(["invert", "--checkpoint", str(ckpt), "--data", str(tiny_dataset)] + extra) == 0
    return seen["problem"], seen["pso"]


def test_invert_keeps_the_library_defaults_for_missing_flags(monkeypatch, tmp_path, tiny_dataset):
    from pdedag.config import PsoConfig
    from pdedag.inverse import InverseProblem

    problem, pso = _invert_inputs(monkeypatch, tmp_path, tiny_dataset, [])
    default = InverseProblem.__dataclass_fields__["subsample"].default
    assert default == 4096 and problem.subsample == default
    assert pso == PsoConfig(seed=0)
    problem, pso = _invert_inputs(monkeypatch, tmp_path, tiny_dataset,
                                  ["--subsample", "100", "--swarm", "3", "--seed", "2"])
    assert problem.subsample == 100
    assert (pso.swarm_size, pso.iterations, pso.seed) == (3, PsoConfig().iterations, 2)


def test_invert_reads_its_config_file_and_flags_win(monkeypatch, tmp_path, tiny_dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"invert": {"subsample": 200, "iterations": 5, "noise": 0.01}}))
    problem, pso = _invert_inputs(monkeypatch, tmp_path, tiny_dataset,
                                  ["--config", str(cfg), "--iterations", "7"])
    assert problem.subsample == 200 and problem.noise_level == 0.01
    assert pso.iterations == 7


@pytest.mark.parametrize("command", ["invert", "export-plot"])
@pytest.mark.parametrize("index", ["2", "7", "-1"])
def test_sample_index_outside_the_dataset_is_a_usage_error(tmp_path, tiny_dataset, capsys, command, index):
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(TINY_MODEL, seed=0), TINY_MODEL)
    argv = {"invert": ["--checkpoint", str(ckpt), "--data", str(tiny_dataset)],
            "export-plot": ["--data", str(tiny_dataset), "--out", str(tmp_path / "p.svg")]}[command]
    assert run_cli([command, "--sample-index", index] + argv) == 1
    err = capsys.readouterr().err
    assert f"--sample-index {index} is outside" in err and "2 samples" in err
    assert not (tmp_path / "p.svg").exists()


def test_export_plot(tmp_path, tiny_dataset):
    out = tmp_path / "plot.svg"
    assert run_cli(["export-plot", "--data", str(tiny_dataset),
                    "--sample-index", "0", "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_corrupt_checkpoint_eval_exits_two(tmp_path, tiny_dataset):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "manifest.json").write_text(json.dumps({
        "format_version": "1.0",
        "model_config": {"d_f": 8, "n_patches": 8},
        "param_layout": [], "n_params": 0,
    }))
    (ckpt / "params.bin").write_bytes(b"")
    code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_dataset)])
    assert code == 2


def test_eval_sequential_restores_the_callers_mode(tmp_path, tiny_dataset):
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(TINY_MODEL, seed=0), TINY_MODEL)
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(tiny_dataset)]
    with ad.sequential_mode(True):
        assert run_cli(argv + ["--sequential"]) == 0
        assert ad._SEQUENTIAL
        assert run_cli(argv) == 0
        assert ad._SEQUENTIAL
    assert not ad._SEQUENTIAL
    assert run_cli(argv + ["--sequential"]) == 0
    assert not ad._SEQUENTIAL


def test_infer_writes_grid(tmp_path):
    # train nothing: a freshly initialised checkpoint is enough to exercise
    # the infer path end to end
    cfg = TINY_MODEL
    params = init_model_params(cfg, seed=0)
    ckpt = save_checkpoint(tmp_path / "ckpt", params, cfg)
    ic_path = tmp_path / "ic.csv"
    x = -1.0 + 2.0 * np.arange(cfg.n_x) / cfg.n_x
    np.savetxt(ic_path, np.sin(np.pi * x)[None, :], delimiter=",")
    out = tmp_path / "pred.csv"
    code = run_cli(["infer", "--checkpoint", str(ckpt), "--pde", "dt(u) + c*dx(u) = 0",
                    "--coef", "c=0.5", "--ic", str(ic_path), "--out", str(out), "--nt", "5"])
    assert code == 0
    grid = np.loadtxt(out, delimiter=",")
    assert grid.shape == (5, cfg.n_x)
    assert np.all(np.isfinite(grid))


def test_infer_bad_coef_flag_is_usage_error(tmp_path):
    cfg = TINY_MODEL
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(cfg, seed=0), cfg)
    ic_path = tmp_path / "ic.csv"
    np.savetxt(ic_path, np.zeros((1, cfg.n_x)), delimiter=",")
    code = run_cli(["infer", "--checkpoint", str(ckpt), "--pde", "dt(u) = 0",
                    "--coef", "oops", "--ic", str(ic_path), "--out", str(tmp_path / "p.csv")])
    assert code == 1


def test_infer_coef_flags_win_per_name_over_the_config_list(monkeypatch, tmp_path):
    import pdedag.dsl as dsl

    seen = []
    real_parse = dsl.parse_pde

    def recording_parse(text, coefficients):
        seen.append(coefficients)
        return real_parse(text, coefficients)

    monkeypatch.setattr(dsl, "parse_pde", recording_parse)
    ckpt = save_checkpoint(tmp_path / "ckpt", init_model_params(TINY_MODEL, seed=0), TINY_MODEL)
    ic_path = tmp_path / "ic.csv"
    np.savetxt(ic_path, np.zeros((1, TINY_MODEL.n_x)), delimiter=",")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"infer": {"coef": ["c=0.1", "d=0.2"]}}))
    argv = ["infer", "--checkpoint", str(ckpt), "--pde", "dt(u) + c*dx(u) + d*u = 0", "--ic", str(ic_path),
            "--out", str(tmp_path / "p.csv"), "--nt", "2"]
    assert run_cli(argv + ["--config", str(cfg)]) == 0
    assert run_cli(argv + ["--config", str(cfg), "--coef", "c=0.5"]) == 0
    assert seen == [{"c": 0.1, "d": 0.2}, {"c": 0.5, "d": 0.2}]
