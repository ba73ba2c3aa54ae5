import numpy as np
import pytest

from pdedag.config import SamplingConfig, SolverConfig
from pdedag.datagen import PdeCoefficients, sample_initial_condition, sample_pde
from pdedag.spectral import Rejected, SpectralSolver, solve_pde


def _coeffs(c=None, nu=0.0):
    arr = np.zeros((2, 4))
    if c:
        for (i, k), v in c.items():
            arr[i, k] = v
    return PdeCoefficients(c=arr, nu=nu)


CFG = SolverConfig()
X = CFG.x_grid()


def test_advection_matches_translated_wave():
    c = 0.5
    sol = solve_pde(_coeffs({(1, 1): c}), np.sin(np.pi * X))
    exact = np.sin(np.pi * (X - c))
    rel = np.linalg.norm(sol[-1] - exact) / np.linalg.norm(exact)
    assert rel < 1e-3


def test_diffusion_mode_decay():
    nu = 0.05
    sol = solve_pde(_coeffs(nu=nu), np.sin(np.pi * X))
    for snap, t in ((50, 0.5), (100, 1.0)):
        exact = np.exp(-nu * np.pi**2 * t) * np.sin(np.pi * X)
        rel = np.linalg.norm(sol[snap] - exact) / np.linalg.norm(exact)
        assert rel < 1e-3


def test_constant_source_blowup_is_rejected():
    # u_t = -c00 with c00 = -3: u grows past the bound around t = 0.17
    outcome = solve_pde(_coeffs({(0, 0): -3.0}), np.full(CFG.n_x, 9.5))
    assert isinstance(outcome, Rejected)
    assert outcome.reason == "linf"
    assert outcome.step <= int(round(0.25 / CFG.dt_solver))


def test_non_finite_blowup_is_rejected_not_raised():
    outcome = solve_pde(_coeffs({(1, 3): 3.0, (0, 2): -3.0}), 9.0 * np.sin(np.pi * X))
    assert isinstance(outcome, Rejected)


def test_snapshot_layout_and_ic_row():
    g = 0.3 * np.sin(np.pi * X) + 0.2 * np.cos(2 * np.pi * X)
    sol = solve_pde(_coeffs({(1, 1): 0.4}, nu=0.01), g)
    assert sol.shape == (CFG.n_t, CFG.n_x)
    assert np.array_equal(sol[0], g)


def test_flux_form_conserves_mass_without_diffusion():
    g = 0.4 * np.sin(np.pi * X) + 0.1
    sol = solve_pde(_coeffs({(1, 1): 0.5, (1, 2): 1.0}), g)
    means = sol.mean(axis=1)
    assert np.max(np.abs(means - means[0])) <= 1e-6 * max(abs(means[0]), 1.0)


def test_translate_then_solve_equals_solve_then_translate_linear():
    # exact equivariance holds for linear constant-coefficient equations
    shift = 37
    g = 0.5 * np.sin(np.pi * X) + 0.25 * np.sin(3 * np.pi * X + 0.7)
    coeffs = _coeffs({(1, 1): 0.8}, nu=0.02)
    direct = solve_pde(coeffs, np.roll(g, shift))
    rolled = np.roll(solve_pde(coeffs, g), shift, axis=1)
    assert np.max(np.abs(direct - rolled)) < 1e-6


def test_time_refinement_converged():
    coeffs = _coeffs({(0, 1): 0.3, (1, 1): 1.2, (1, 2): 0.9}, nu=0.05)
    g = 0.7 * np.sin(np.pi * X) + 0.3 * np.sin(2 * np.pi * X + 1.0)
    coarse = solve_pde(coeffs, g)
    fine = solve_pde(coeffs, g, SolverConfig(dt_solver=2e-4))
    rel = np.linalg.norm(coarse[-1] - fine[-1]) / np.linalg.norm(fine[-1])
    assert rel < 1e-4


def test_flux_constant_term_has_no_effect():
    g = 0.5 * np.sin(np.pi * X)
    a = solve_pde(_coeffs({(1, 0): 2.5, (1, 1): 0.6}), g)
    b = solve_pde(_coeffs({(1, 1): 0.6}), g)
    assert np.array_equal(a, b)


def test_solver_validates_inputs():
    with pytest.raises(ValueError):
        solve_pde(_coeffs(), np.zeros(100))
    with pytest.raises(ValueError):
        SpectralSolver(SolverConfig(dt_solver=3e-4))  # not a divisor of dt_data


def _seed_8_draw_1():
    # the coefficients and IC of corpus draw 1 of seed 8, non-finite at step 2113
    rng = np.random.default_rng(np.random.SeedSequence([8, 1]))
    coeffs = sample_pde(rng, SamplingConfig())
    return coeffs, sample_initial_condition(rng, CFG.n_x, SamplingConfig())


def _assert_batch_equals_one_row_solves(draws, cfg=CFG):
    solver = SpectralSolver(cfg)
    batch = solver.solve_batch([c for c, _ in draws], np.stack([g for _, g in draws]))
    assert len(batch) == len(draws)
    for (coeffs, g), got in zip(draws, batch):
        alone = solver.solve(coeffs, g)
        if isinstance(alone, Rejected):
            assert got == alone
        else:
            assert not isinstance(got, Rejected) and np.array_equal(got, alone)
    return batch


def test_batch_rows_equal_one_row_solves_in_input_order():
    draws = [
        (_coeffs({(1, 1): 0.5}), np.sin(np.pi * X)),
        (_coeffs({(1, 1): 0.4}), np.full(CFG.n_x, 10.5)),
        (_coeffs({(0, 0): -3.0}), np.full(CFG.n_x, 9.5)),
        _seed_8_draw_1(),
        (_coeffs({(0, 1): 0.3, (1, 2): 0.9}, nu=0.05), 0.7 * np.sin(np.pi * X + 1.0)),
    ]
    batch = _assert_batch_equals_one_row_solves(draws)
    assert batch[1] == Rejected(reason="linf", step=0)
    assert batch[2].reason == "linf" and 0 < batch[2].step < 2500
    assert batch[3] == Rejected(reason="non_finite", step=2113)
    assert batch[0].shape == batch[4].shape == (CFG.n_t, CFG.n_x)


def test_batch_with_every_row_rejected():
    draws = [
        (_coeffs({(0, 0): -3.0}), np.full(CFG.n_x, 9.5)),
        (_coeffs(), np.full(CFG.n_x, -11.0)),
        (_coeffs({(1, 3): 3.0, (0, 2): -3.0}), 9.0 * np.sin(np.pi * X)),
    ]
    batch = _assert_batch_equals_one_row_solves(draws)
    assert all(isinstance(o, Rejected) for o in batch)


def test_batch_validates_its_shape():
    solver = SpectralSolver(CFG)
    two = [_coeffs(), _coeffs()]
    for g in (np.zeros((2, 100)), np.zeros((3, CFG.n_x)), np.zeros(2 * CFG.n_x)):
        with pytest.raises(ValueError):
            solver.solve_batch(two, g)


def test_batch_row_rejected_on_a_snapshot_step_keeps_the_others_snapshots():
    # every step is a snapshot and the bound never fires, so the cubic
    # source's blow-up is a non_finite rejection on a snapshot step while
    # the other rows stay in the batch
    cfg = SolverConfig(dt_data=CFG.dt_solver, n_t=201, reject_linf=np.inf)
    x = cfg.x_grid()
    draws = [
        (_coeffs({(1, 1): 0.5}), np.sin(np.pi * x)),
        (_coeffs({(0, 3): -3.0}), np.full(cfg.n_x, 2.0)),
        (_coeffs({(0, 1): 0.3, (1, 2): 0.9}, nu=0.05), 0.7 * np.sin(np.pi * x + 1.0)),
    ]
    batch = _assert_batch_equals_one_row_solves(draws, cfg)
    assert batch[1].reason == "non_finite" and 0 < batch[1].step < cfg.n_t - 1
