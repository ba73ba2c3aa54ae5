"""Coefficient recovery from one noisy observed solution via particle swarm.

The objective feeds candidate coefficients through the surrogate (compile ->
encode -> decode) and scores the relative L2 mismatch against the observed
field on a fixed coordinate subsample. Swarm optimisation handles the many
local minima of that landscape without needing gradients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsl
from .autodiff import no_grad
from .config import ModelConfig, PsoConfig
from .datagen import PdeCoefficients, ast_from_coefficients
from .model import ModelParams, compile_for_model, grid_coords, model_forward
from .training import relative_l2


class ModelIncompatible(ValueError):
    pass


def add_noise(u: np.ndarray, r: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. uniform noise bounded per point by r * max|u|."""
    if r < 0:
        raise ValueError("noise level must be non-negative")
    u = np.asarray(u, dtype=np.float64)
    if r == 0.0:
        return u.copy()
    bound = r * float(np.max(np.abs(u)))
    return u + rng.uniform(-bound, bound, size=u.shape)


@dataclass
class PsoResult:
    best_position: np.ndarray
    best_value: float
    trace: list[float] = field(default_factory=list)


def pso_minimize(
    objective,
    dim: int,
    cfg: PsoConfig,
    bounds: np.ndarray | None = None,
    initial_positions: np.ndarray | None = None,
) -> PsoResult:
    """Global-best PSO with inertia; deterministic given the config seed.

    Positions clamp to the box and velocities to a fraction of its width.
    One particle starts at the box centre unless explicit initial positions
    are supplied (the self-consistency fixtures inject the truth that way).
    """
    rng = np.random.default_rng(cfg.seed)
    if bounds is None:
        bounds = np.tile([[cfg.bounds_lo, cfg.bounds_hi]], (dim, 1))
    bounds = np.asarray(bounds, dtype=np.float64)
    lo, hi = bounds[:, 0], bounds[:, 1]
    if (lo >= hi).any():
        raise ValueError("bounds must satisfy lo < hi per dimension")
    v_max = cfg.velocity_clamp * (hi - lo)

    pos = rng.uniform(lo, hi, size=(cfg.swarm_size, dim))
    pos[0] = (lo + hi) / 2.0
    if initial_positions is not None:
        injected = np.atleast_2d(np.asarray(initial_positions, dtype=np.float64))
        pos[: len(injected)] = np.clip(injected, lo, hi)
    vel = np.zeros_like(pos)

    def score_all(positions: np.ndarray) -> np.ndarray:
        return np.asarray([float(objective(p)) for p in positions])

    pbest_pos = pos.copy()
    pbest_val = score_all(pos)
    g = int(np.argmin(pbest_val))
    gbest_pos, gbest_val = pbest_pos[g].copy(), float(pbest_val[g])
    trace = [gbest_val]

    for _ in range(cfg.iterations):
        r1 = rng.random((cfg.swarm_size, dim))
        r2 = rng.random((cfg.swarm_size, dim))
        vel = (
            cfg.inertia * vel
            + cfg.cognitive * r1 * (pbest_pos - pos)
            + cfg.social * r2 * (gbest_pos[None, :] - pos)
        )
        vel = np.clip(vel, -v_max, v_max)
        pos = np.clip(pos + vel, lo, hi)
        values = score_all(pos)
        improved = values < pbest_val
        pbest_pos[improved] = pos[improved]
        pbest_val[improved] = values[improved]
        g = int(np.argmin(pbest_val))
        if pbest_val[g] < gbest_val:
            gbest_val = float(pbest_val[g])
            gbest_pos = pbest_pos[g].copy()
        trace.append(gbest_val)
    return PsoResult(best_position=gbest_pos, best_value=gbest_val, trace=trace)


@dataclass
class InverseProblem:
    template: dsl.Eq0              # AST with unbound coefficient slots
    observation: np.ndarray        # (n_t, n_x) noisy field
    noise_level: float = 0.0       # recorded metadata; the objective never reads it
    subsample: int | None = 4096   # None scores the full grid
    subsample_seed: int = 0
    dt_data: float = 0.01
    ic: np.ndarray | None = None   # defaults to the observed first row

    def __post_init__(self):
        if not dsl.unbound_names(self.template):
            raise ValueError("template has no unbound coefficients to recover")
        if not np.all(np.isfinite(self.observation)):
            raise ValueError("observation contains non-finite values")
        if self.ic is None:
            self.ic = np.asarray(self.observation[0], dtype=np.float32)


def build_inverse_template(coeffs: PdeCoefficients, search_nu: bool = False) -> tuple[dsl.Eq0, list[str]]:
    """Template with every nonzero coefficient unbound, except c10 (it has no
    effect on solutions) and, by default, the viscosity."""
    unbound = {f"c{i}{k}" for i in range(2) for k in range(4) if coeffs.c[i, k] != 0.0}
    unbound.discard("c10")
    if search_nu and coeffs.nu != 0.0:
        unbound.add("nu")
    ast = ast_from_coefficients(coeffs, unbound=unbound)
    return ast, dsl.unbound_names(ast)


@dataclass
class InversionReport:
    names: list[str]
    values: dict
    objective: float
    trace: list[float]
    seed: int
    bounds: list[list[float]]

    def to_json(self) -> str:
        doc = {
            "format_version": "1.0",
            "recovered": self.values,
            "objective": self.objective,
            "trace": self.trace,
            "seed": self.seed,
            "bounds": self.bounds,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def recover_coefficients(
    problem: InverseProblem,
    params: ModelParams,
    model_cfg: ModelConfig,
    pso_cfg: PsoConfig,
    initial_positions: np.ndarray | None = None,
) -> InversionReport:
    """Minimise model-vs-observation mismatch over the unbound coefficients."""
    names = dsl.unbound_names(problem.template)
    n_t, n_x = problem.observation.shape
    if n_x != model_cfg.n_x:
        raise ModelIncompatible(f"observation has {n_x} grid points, model expects {model_cfg.n_x}")

    ic = np.asarray(problem.ic, dtype=np.float32)
    if problem.subsample is None or problem.subsample >= n_t * n_x:
        flat = np.arange(n_t * n_x)
    else:
        sub_rng = np.random.default_rng(problem.subsample_seed)
        flat = sub_rng.choice(n_t * n_x, size=problem.subsample, replace=False)
    t_idx, x_idx = np.divmod(flat, n_x)
    coords = grid_coords(t_idx, x_idx, n_x, problem.dt_data)
    targets = problem.observation[t_idx, x_idx]

    def objective(vec: np.ndarray) -> float:
        ast = dsl.bind_coefficients(problem.template, dict(zip(names, vec)))
        with no_grad():
            pred = model_forward(compile_for_model(ast, ic, model_cfg), coords, params, model_cfg)
        return relative_l2(pred.data, targets)

    result = pso_minimize(objective, dim=len(names), cfg=pso_cfg, initial_positions=initial_positions)
    bounds = [[pso_cfg.bounds_lo, pso_cfg.bounds_hi] for _ in names]
    return InversionReport(
        names=names,
        values={name: float(v) for name, v in zip(names, result.best_position)},
        objective=result.best_value,
        trace=result.trace,
        seed=pso_cfg.seed,
        bounds=bounds,
    )


def save_report(report: InversionReport, path) -> Path:
    out = Path(path)
    out.write_text(report.to_json() + "\n")
    return out
