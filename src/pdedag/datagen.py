"""Pretraining corpus generation: random PDEs, random ICs, solve, reject.

The family is u_t + f0(u) + f1(u)_x - nu*u_xx = 0 with cubic polynomials
f_i(u) = sum_k c_ik u^k. Each draw derives its RNG stream from
(base_seed, draw_index), so any sample can be regenerated in isolation and
the output directory is identical no matter how generation is parallelised.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import dsl
from .config import SamplingConfig, SolverConfig
from .spectral import Rejected, SpectralSolver


class CountTooLarge(ValueError):
    pass


@dataclass
class PdeCoefficients:
    c: np.ndarray          # (2, 4): rows f0, f1; columns u^0..u^3
    nu: float

    @property
    def zero_mask(self) -> np.ndarray:
        return self.c == 0.0

    def as_dict(self) -> dict:
        return {"c": [[float(v) for v in row] for row in self.c], "nu": float(self.nu)}

    @classmethod
    def from_dict(cls, d: dict) -> "PdeCoefficients":
        return cls(c=np.asarray(d["c"], dtype=np.float64), nu=float(d["nu"]))


@dataclass
class PdeSample:
    seed: int
    draw_index: int
    coefficients: PdeCoefficients
    ic: np.ndarray         # (n_x,) float32
    solution: np.ndarray   # (n_t, n_x) float32
    rejections_before: int = 0

    @property
    def n_t(self) -> int:
        return self.solution.shape[0]

    @property
    def n_x(self) -> int:
        return self.solution.shape[1]


def draw_seed(base_seed: int, draw_index: int) -> int:
    """64-bit per-draw seed; each draw is regenerable independently."""
    ss = np.random.SeedSequence([int(base_seed), int(draw_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_pde(rng: np.random.Generator, config: SamplingConfig | None = None) -> PdeCoefficients:
    """Draw coefficients: each c_ik zero w.p. 0.5 else U[-3,3]; log-uniform
    viscosity, forced to zero half the time when the flux is linear."""
    cfg = config or SamplingConfig()
    c = np.where(
        rng.random((2, 4)) < cfg.zero_prob,
        0.0,
        rng.uniform(cfg.coef_lo, cfg.coef_hi, (2, 4)),
    )
    nu = float(np.exp(rng.uniform(cfg.nu_log_lo, cfg.nu_log_hi)))
    if c[1, 2] == 0.0 and c[1, 3] == 0.0 and rng.random() < cfg.linear_nu_zero_prob:
        nu = 0.0
    return PdeCoefficients(c=c, nu=nu)


def sample_initial_condition(
    rng: np.random.Generator,
    n_x: int,
    config: SamplingConfig | None = None,
    domain_length: float = 2.0,
    x_lo: float = -1.0,
) -> np.ndarray:
    """Random sum of sinusoids, optionally folded to one sign or windowed.

    Component frequencies are whole numbers of periods over the domain, so
    the raw draw is spectrally sparse and exactly periodic.
    """
    cfg = config or SamplingConfig()
    x = x_lo + domain_length * np.arange(n_x) / n_x
    g = np.zeros(n_x)
    for _ in range(cfg.ic_terms):
        n_i = rng.integers(cfg.ic_n_lo, cfg.ic_n_hi + 1)
        amp = rng.uniform(0.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        g += amp * np.sin(2.0 * np.pi * n_i / domain_length * x + phase)
    if rng.random() < cfg.abs_prob:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        g = sign * np.abs(g)
    if rng.random() < cfg.window_prob:
        lo, hi = np.sort(rng.uniform(x_lo, x_lo + domain_length, 2))
        steep = cfg.window_steepness
        window = 1.0 / (1.0 + np.exp(-steep * (x - lo))) / (1.0 + np.exp(-steep * (hi - x)))
        g = g * window
    return g


def ast_from_coefficients(coeffs: PdeCoefficients, unbound: set[str] | None = None) -> dsl.Eq0:
    """Equation AST for a coefficient record; zero terms are never built.

    Names in ``unbound`` become value-free slots for the inverse problem.
    """
    unbound = unbound or set()
    u = dsl.Var("u")

    def coef(i: int, k: int) -> dsl.Coef:
        name = f"c{i}{k}"
        return dsl.Coef(name=name, value=None if name in unbound else float(coeffs.c[i, k]))

    def monomial(i: int, k: int) -> dsl.Expr:
        if k == 0:
            return coef(i, 0)
        power = u if k == 1 else dsl.Pow(u, k)
        return dsl.Mul((coef(i, k), power))

    terms: list[dsl.Expr] = [dsl.Dt(u)]
    for k in range(4):
        if coeffs.c[0, k] != 0.0 or f"c0{k}" in unbound:
            terms.append(monomial(0, k))
    flux = [monomial(1, k) for k in range(4) if coeffs.c[1, k] != 0.0 or f"c1{k}" in unbound]
    if flux:
        terms.append(dsl.Dx(flux[0] if len(flux) == 1 else dsl.Add(tuple(flux))))
    if coeffs.nu != 0.0 or "nu" in unbound:
        nu_coef = dsl.Coef(name="nu", value=None if "nu" in unbound else float(coeffs.nu))
        terms.append(dsl.Neg(dsl.Mul((nu_coef, dsl.Dx(dsl.Dx(u))))))
    body = terms[0] if len(terms) == 1 else dsl.Add(tuple(terms))
    return dsl.Eq0(body)


def _draw(base_seed: int, draw_index: int, sampling: SamplingConfig, solver_cfg: SolverConfig):
    """Coefficients and IC grid of one draw, from its own RNG stream."""
    rng = np.random.default_rng(np.random.SeedSequence([int(base_seed), int(draw_index)]))
    coeffs = sample_pde(rng, sampling)
    g = sample_initial_condition(
        rng, solver_cfg.n_x, sampling,
        domain_length=solver_cfg.domain_length, x_lo=solver_cfg.x_lo,
    )
    return coeffs, g


def _outcome(base_seed: int, draw_index: int, coeffs: PdeCoefficients, g: np.ndarray, solved):
    """The PdeSample of an accepted draw; a Rejected passes through."""
    if isinstance(solved, Rejected):
        return solved
    return PdeSample(
        seed=draw_seed(base_seed, draw_index),
        draw_index=draw_index,
        coefficients=coeffs,
        ic=g.astype(np.float32),
        solution=solved.astype(np.float32),
    )


def generate_sample(base_seed: int, draw_index: int, sampling: SamplingConfig, solver_cfg: SolverConfig):
    """Run one draw end to end; returns a PdeSample or Rejected."""
    coeffs, g = _draw(base_seed, draw_index, sampling, solver_cfg)
    return _outcome(base_seed, draw_index, coeffs, g, SpectralSolver(solver_cfg).solve(coeffs, g))


def _solve_draws(base_seed: int, sampling: SamplingConfig, solver_cfg: SolverConfig, span: tuple[int, int]):
    """Outcomes of the draws ``start .. stop-1`` of ``span``, solved as one batch."""
    start, stop = span
    draws = [_draw(base_seed, i, sampling, solver_cfg) for i in range(start, stop)]
    solved = SpectralSolver(solver_cfg).solve_batch([c for c, _ in draws], np.stack([g for _, g in draws]))
    return [_outcome(base_seed, start + j, c, g, s) for j, ((c, g), s) in enumerate(zip(draws, solved))]


def _spans(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    """``start .. stop-1`` cut into at most ``parts`` contiguous, non-empty spans."""
    bounds = [start + (stop - start) * i // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def generate_dataset(
    out_dir,
    count: int,
    base_seed: int,
    sampling: SamplingConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    workers: int = 1,
    chunk: int = 16,
):
    """Generate until ``count`` accepted samples exist, then write the
    directory layout (manifest + per-sample meta/bin files).

    Draws are solved in batches. In one process each batch is the next
    ``min(chunk, count - accepted)`` draws, so no draw is solved that the
    count does not need; with ``workers > 1`` each round is the next
    ``chunk`` draws, each worker solves one contiguous slice of it as a
    batch, and draws past the one that completes the count are discarded.
    Rejected draws are skipped and counted; draws are always consumed in
    index order, and a draw's solution does not depend on its batch, so the
    output is byte-identical for any batch split and any worker count.
    """
    from .dataio import write_dataset

    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    sampling = sampling or SamplingConfig()
    solver_cfg = solver_cfg or SolverConfig()

    accepted: list[PdeSample] = []
    rejected = 0
    rejected_streak = 0
    draws = 0
    parts = max(workers, 1)
    solve = functools.partial(_solve_draws, base_seed, sampling, solver_cfg)
    pool = multiprocessing.Pool(parts) if parts > 1 else None
    run = pool.map if pool else map
    with pool or contextlib.nullcontext():
        while len(accepted) < count:
            # a pool keeps every worker busy on a whole chunk; one process
            # solves no draw past the ones the count can still take
            start = draws
            stop = start + (chunk if pool else min(chunk, count - len(accepted)))
            outcomes = itertools.chain.from_iterable(run(solve, _spans(start, stop, parts)))
            for draws, outcome in enumerate(outcomes, start + 1):
                if isinstance(outcome, Rejected):
                    rejected += 1
                    rejected_streak += 1
                else:
                    outcome.rejections_before = rejected_streak
                    rejected_streak = 0
                    accepted.append(outcome)
                    if len(accepted) == count:
                        break

    return write_dataset(
        out_dir,
        accepted,
        base_seed=base_seed,
        draws=draws,
        rejected=rejected,
        sampling=sampling,
        solver_cfg=solver_cfg,
    )


def augment_translate(sample: PdeSample, shift: int) -> PdeSample:
    """Circularly roll the IC and every solution row by ``shift`` cells."""
    shift = int(shift) % sample.n_x
    return PdeSample(
        seed=sample.seed,
        draw_index=sample.draw_index,
        coefficients=sample.coefficients,
        ic=np.roll(sample.ic, shift),
        solution=np.roll(sample.solution, shift, axis=1),
        rejections_before=sample.rejections_before,
    )


def sample_points(rng: np.random.Generator, sample: PdeSample, count: int = 8192):
    """Uniform without-replacement draw of grid points with their values.

    Returns (t_idx, x_idx, values) arrays of length ``count``.
    """
    total = sample.n_t * sample.n_x
    if count > total:
        raise CountTooLarge(f"requested {count} of {total} grid points")
    flat = rng.choice(total, size=count, replace=False)
    t_idx, x_idx = np.divmod(flat, sample.n_x)
    return t_idx, x_idx, sample.solution[t_idx, x_idx]
