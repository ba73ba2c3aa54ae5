import numpy as np
import pytest

from pdedag.config import PsoConfig, SamplingConfig, SolverConfig
from pdedag.datagen import PdeCoefficients, generate_sample
from pdedag.dsl import parse_pde, unbound_names
from pdedag.inverse import (InverseProblem, add_noise, build_inverse_template,
                            pso_minimize, recover_coefficients, save_report)
from pdedag.model import init_model_params, predict_grid
from pdedag.training import relative_l2


def test_add_noise_zero_level_is_exact():
    u = np.random.default_rng(0).standard_normal((5, 7))
    noisy = add_noise(u, 0.0, np.random.default_rng(1))
    assert np.array_equal(noisy, u)


def test_add_noise_respects_bound():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((20, 30))
    for r in (0.001, 0.01, 0.1):
        noisy = add_noise(u, r, rng)
        assert np.max(np.abs(noisy - u)) <= r * np.max(np.abs(u)) + 1e-15


def test_add_noise_mean_is_centred():
    rng = np.random.default_rng(3)
    u = np.ones((1000, 100))
    r = 0.1
    noise = add_noise(u, r, rng) - u
    bound = r * 1.0
    sigma = bound / np.sqrt(3.0)
    assert abs(noise.mean()) < 3.0 * sigma / np.sqrt(noise.size)


def test_pso_sphere():
    cfg = PsoConfig(swarm_size=40, iterations=200, seed=11)
    result = pso_minimize(lambda x: float(np.sum(x * x)), dim=4, cfg=cfg)
    assert result.best_value < 1e-3
    assert np.all(np.abs(result.best_position) <= 3.0)


def test_pso_trace_monotone_and_deterministic():
    cfg = PsoConfig(swarm_size=16, iterations=50, seed=5)
    obj = lambda x: float(np.sum((x - 1.2) ** 2) + np.sin(3 * x).sum())
    a = pso_minimize(obj, dim=3, cfg=cfg)
    b = pso_minimize(obj, dim=3, cfg=cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.best_position, b.best_position)
    assert all(x >= y for x, y in zip(a.trace, a.trace[1:]))
    assert len(a.trace) == cfg.iterations + 1


def test_pso_stationary_particle():
    # one particle, zero initial velocity, no attraction terms: it never moves
    cfg = PsoConfig(swarm_size=1, iterations=20, inertia=0.7, cognitive=0.0,
                    social=0.0, seed=0)
    result = pso_minimize(lambda x: float(np.sum(x * x)), dim=2, cfg=cfg)
    assert np.array_equal(result.best_position, np.zeros(2))  # box centre
    assert result.trace == [result.best_value] * 21


def test_pso_bounds_and_velocity_clamp():
    cfg = PsoConfig(swarm_size=8, iterations=40, bounds_lo=-2.0, bounds_hi=1.0, seed=9)
    result = pso_minimize(lambda x: float(-np.sum(x)), dim=3, cfg=cfg)
    assert np.all(result.best_position <= 1.0) and np.all(result.best_position >= -2.0)
    assert result.best_value == pytest.approx(-3.0)


def test_metric_scale_invariance():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((6, 8))
    v = rng.standard_normal((6, 8))
    assert relative_l2(2.5 * v, 2.5 * u) == pytest.approx(relative_l2(v, u))


def test_build_inverse_template_excludes_c10():
    coeffs = PdeCoefficients(
        c=np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.5, 0.0, 0.0]]), nu=0.1)
    template, names = build_inverse_template(coeffs)
    assert names == ["c00", "c11"]
    assert "c10" not in names  # it has no effect on solutions


def test_inverse_problem_validation():
    coeffs = PdeCoefficients(c=np.array([[0, 1.0, 0, 0], [0] * 4]), nu=0.0)
    bound_ast = parse_pde("dt(u) + c01*u = 0", {"c01": 1.0})
    with pytest.raises(ValueError):
        InverseProblem(template=bound_ast, observation=np.zeros((3, 4)))
    template, _ = build_inverse_template(coeffs)
    with pytest.raises(ValueError):
        InverseProblem(template=template, observation=np.full((3, 4), np.nan))


def test_recovery_self_consistency_with_truth_injection(micro_cfg):
    # observation produced by the model itself: the optimizer can never end
    # worse than the injected truth particle
    from pdedag.config import ModelConfig

    cfg = ModelConfig(d_f=16, n_patches=4, n_mod=2, d_e=16, n_layers=1, n_heads=2,
                      ffn_dim=16, feat_hidden=16, d_h=8, hyper_hidden=16)
    params = init_model_params(cfg, seed=3)
    truth = {"c01": 1.1, "c11": -0.7}
    coeffs = PdeCoefficients(c=np.array([[0.0, 1.1, 0, 0], [0.0, -0.7, 0, 0]]), nu=0.0)
    template, names = build_inverse_template(coeffs)
    assert names == sorted(truth)

    from pdedag.datagen import ast_from_coefficients

    ast = ast_from_coefficients(coeffs)
    rng = np.random.default_rng(0)
    ic = rng.uniform(-1, 1, cfg.n_x).astype(np.float32)
    observation = predict_grid(ast, ic, params, cfg, n_t=6)

    problem = InverseProblem(template=template, observation=observation,
                             subsample=128, dt_data=0.01, ic=ic)
    pso = PsoConfig(swarm_size=6, iterations=8, seed=2)
    truth_vec = np.array([truth[n] for n in names])
    report = recover_coefficients(problem, params, cfg, pso,
                                  initial_positions=truth_vec[None, :])
    # objective at the truth is ~0 (model reproduces its own field exactly)
    assert report.objective <= 1e-6
    for name in names:
        assert abs(report.values[name] - truth[name]) < 1e-9
    assert all(-3.0 <= v <= 3.0 for v in report.values.values())


def test_reported_objective_is_model_forward_at_recovered_values(small_cfg, sine_ic):
    from pdedag.datagen import ast_from_coefficients
    from pdedag.dsl import bind_coefficients
    from pdedag.model import compile_for_model, grid_coords, model_forward

    params = init_model_params(small_cfg, seed=5)
    coeffs = PdeCoefficients(c=np.array([[0.0, 0.8, 0, 0], [0.0, 0.0, -1.3, 0]]), nu=0.02)
    ic = sine_ic(small_cfg.n_x)
    clean = predict_grid(ast_from_coefficients(coeffs), ic, params, small_cfg, n_t=5)
    observation = add_noise(clean.astype(np.float64), 0.05, np.random.default_rng(1))
    template, _ = build_inverse_template(coeffs)
    problem = InverseProblem(template=template, observation=observation, subsample=None, ic=ic)
    report = recover_coefficients(problem, params, small_cfg, PsoConfig(swarm_size=5, iterations=3, seed=7))

    n_t, n_x = observation.shape
    coords = grid_coords(*np.divmod(np.arange(n_t * n_x), n_x), n_x)
    graph = compile_for_model(bind_coefficients(template, report.values), ic, small_cfg)
    pred = model_forward(graph, coords, params, small_cfg).data
    assert report.objective == relative_l2(pred, observation.ravel())
    assert report.objective == report.trace[-1]


def test_forward_only_paths_record_no_tape(monkeypatch, small_cfg, sine_ic):
    import pdedag.inverse as inverse
    import pdedag.model as model
    from pdedag.datagen import ast_from_coefficients

    outputs = []

    def recording(real):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            outputs.append(out)
            return out
        return wrapper

    params = init_model_params(small_cfg, seed=2)
    coeffs = PdeCoefficients(c=np.array([[0.0, 0.6, 0, 0], [0.0, 0.0, 0.9, 0]]), nu=0.0)
    ic = sine_ic(small_cfg.n_x)
    monkeypatch.setattr(model, "encode", recording(model.encode))
    monkeypatch.setattr(model, "decode", recording(model.decode))
    observation = predict_grid(ast_from_coefficients(coeffs), ic, params, small_cfg, n_t=4, chunk=20)
    monkeypatch.setattr(inverse, "model_forward", recording(inverse.model_forward))
    template, _ = build_inverse_template(coeffs)
    problem = InverseProblem(template=template, observation=observation, subsample=None, ic=ic)
    recover_coefficients(problem, params, small_cfg, PsoConfig(swarm_size=3, iterations=2, seed=1))
    # predict_grid: one encode and 4 decode chunks; each of the 9 objective
    # calls: model_forward and the encode and decode inside it
    assert len(outputs) == 1 + 4 + 9 * 3
    assert all(out._backward is None and out._parents == () for out in outputs)
    assert all(t.requires_grad for t in params.tensors())


def test_report_serialisation(tmp_path):
    coeffs = PdeCoefficients(c=np.array([[0, 1.0, 0, 0], [0] * 4]), nu=0.0)
    template, names = build_inverse_template(coeffs)
    from pdedag.inverse import InversionReport

    report = InversionReport(names=names, values={"c01": 0.5}, objective=0.25,
                             trace=[1.0, 0.5, 0.25], seed=4, bounds=[[-3, 3]])
    path = save_report(report, tmp_path / "report.json")
    import json

    doc = json.loads(path.read_text())
    assert doc["recovered"] == {"c01": 0.5}
    assert doc["trace"] == [1.0, 0.5, 0.25]
    assert doc["format_version"] == "1.0"
