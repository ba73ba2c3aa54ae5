"""Fourier pseudo-spectral solver for u_t + f0(u) + f1(u)_x - nu*u_xx = 0.

Periodic on [-1, 1]; the diffusion term is integrated exactly per Fourier
mode through an integrating factor, while the polynomial reaction and flux
terms advance explicitly with the three-stage strong-stability-preserving
Runge-Kutta scheme. Nonlinear products are evaluated on a padded grid
(3/2-rule) to remove aliasing from the quadratic terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SolverConfig


@dataclass(frozen=True)
class Rejected:
    """Data outcome, not a fault: the draw is discarded from the dataset."""

    reason: str
    step: int


def _poly_eval(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Horner on c0 + c1 u + c2 u^2 + c3 u^3
    acc = np.full_like(u, coeffs[3])
    for c in (coeffs[2], coeffs[1], coeffs[0]):
        acc = acc * u + c
    return acc


class SpectralSolver:
    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        cfg = self.config
        n = cfg.n_x
        length = cfg.domain_length
        self.k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
        self.ik = 1j * self.k
        self.n_pad = int(round(n * cfg.dealias))
        self.pad_scale = self.n_pad / n
        steps = cfg.dt_data / cfg.dt_solver
        self.steps_per_snapshot = int(round(steps))
        if abs(steps - self.steps_per_snapshot) > 1e-9:
            raise ValueError("dt_data must be an integer multiple of dt_solver")

    def _to_grid(self, u_hat: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.n_pad // 2 + 1, dtype=complex)
        padded[: u_hat.size] = u_hat
        if self.config.n_x % 2 == 0:
            padded[u_hat.size - 1] = 0.0  # drop the ambiguous Nyquist mode
        return np.fft.irfft(padded * self.pad_scale, n=self.n_pad)

    def _from_grid(self, values: np.ndarray) -> np.ndarray:
        full = np.fft.rfft(values) / self.pad_scale
        return full[: self.k.size]

    def _nonlinear(self, u_hat: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
        u = self._to_grid(u_hat)
        out = -self._from_grid(_poly_eval(c0, u))
        out -= self.ik * self._from_grid(_poly_eval(c1, u))
        return out

    def solve(self, coeffs, g: np.ndarray):
        """Integrate from the IC grid; returns (n_t, n_x) snapshots or Rejected.

        ``coeffs`` provides ``c`` (2 x 4 polynomial coefficients) and ``nu``.
        Rejection triggers on any non-finite state or on an L-infinity norm
        above the configured bound at a snapshot time.
        """
        cfg = self.config
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (cfg.n_x,):
            raise ValueError(f"initial condition must have {cfg.n_x} points")
        c = np.asarray(coeffs.c, dtype=np.float64)
        nu = float(coeffs.nu)
        c0, c1 = c[0], c[1]
        c1 = c1.copy()
        c1[0] = 0.0  # the flux constant differentiates away

        dt = cfg.dt_solver
        decay = -nu * self.k**2
        e_full = np.exp(decay * dt)
        e_half = np.exp(decay * 0.5 * dt)
        e_neg_half = np.exp(-decay * 0.5 * dt)

        if np.max(np.abs(g)) > cfg.reject_linf:
            return Rejected(reason="linf", step=0)
        u_hat = np.fft.rfft(g)
        snapshots = np.empty((cfg.n_t, cfg.n_x))
        snapshots[0] = g

        step = 0
        # blow-ups are data outcomes handled by rejection, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for snap in range(1, cfg.n_t):
                for _ in range(self.steps_per_snapshot):
                    # SSPRK3 stages with the diffusion factor applied exactly
                    # over each stage sub-interval
                    n0 = self._nonlinear(u_hat, c0, c1)
                    s1 = e_full * (u_hat + dt * n0)
                    n1 = self._nonlinear(s1, c0, c1)
                    s2 = 0.75 * e_half * u_hat + 0.25 * e_neg_half * (s1 + dt * n1)
                    n2 = self._nonlinear(s2, c0, c1)
                    u_hat = (1.0 / 3.0) * e_full * u_hat + (2.0 / 3.0) * e_half * (s2 + dt * n2)
                    step += 1
                    if not np.all(np.isfinite(u_hat)):
                        return Rejected(reason="non_finite", step=step)
                u = np.fft.irfft(u_hat, n=cfg.n_x)
                if not np.all(np.isfinite(u)):
                    return Rejected(reason="non_finite", step=step)
                if np.max(np.abs(u)) > cfg.reject_linf:
                    return Rejected(reason="linf", step=step)
                snapshots[snap] = u
        return snapshots


def solve_pde(coeffs, g: np.ndarray, config: SolverConfig | None = None):
    """One-shot convenience wrapper around ``SpectralSolver.solve``."""
    return SpectralSolver(config).solve(coeffs, g)
