"""Fourier pseudo-spectral solver for u_t + f0(u) + f1(u)_x - nu*u_xx = 0.

Periodic on [-1, 1]; the diffusion term is integrated exactly per Fourier
mode through an integrating factor, while the polynomial reaction and flux
terms advance explicitly with the three-stage strong-stability-preserving
Runge-Kutta scheme. Nonlinear products are evaluated on a padded grid
(3/2-rule) to remove aliasing from the quadratic terms.

A batch of draws advances together, one row per draw. The FFTs act row by
row and every other operation is elementwise with its operands in a fixed
order, so a row's result does not depend on the rest of its batch.
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


def _reject(out: list, index: np.ndarray, step: int, *rejects) -> np.ndarray:
    """Record ``Rejected(reason, step)`` at the input positions ``index``
    of the rows each (mask, reason) pair marks; returns the rows that stay."""
    keep = np.ones(index.size, dtype=bool)
    for bad, reason in rejects:
        for i in index[bad]:
            out[i] = Rejected(reason=reason, step=step)
        keep &= ~bad
    return keep


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
        # modes copied onto the padded grid: an even grid's ambiguous
        # Nyquist mode stays zero
        self.n_keep = self.k.size - 1 if n % 2 == 0 else self.k.size
        steps = cfg.dt_data / cfg.dt_solver
        self.steps_per_snapshot = int(round(steps))
        if abs(steps - self.steps_per_snapshot) > 1e-9:
            raise ValueError("dt_data must be an integer multiple of dt_solver")

    def _nonlinear(self, s_hat, poly, work, out):
        """out = -F0 - ik*F1 for the spectra of f0(u) and f1(u), which the
        grid buffer holds as two rows per draw; ``poly`` is the four Horner
        coefficients spread over the (B, 2, n_pad) grid, which is faster to
        combine than a broadcast column."""
        padded, grid, spec = work
        keep = self.n_keep
        np.multiply(s_hat[:, :keep], self.pad_scale, out=padded[:, :keep])
        u = np.fft.irfft(padded, n=self.n_pad)[:, None]
        c0, c1, c2, c3 = poly
        np.multiply(c3, u, out=grid)
        grid += c2
        grid *= u
        grid += c1
        grid *= u
        grid += c0
        np.divide(np.fft.rfft(grid)[..., : self.k.size], self.pad_scale, out=spec)
        flux = spec[:, 1]
        np.multiply(self.ik, flux, out=flux)
        np.negative(spec[:, 0], out=out)
        out -= flux
        return out

    def _step(self, u_hat, x, y, stage, poly, work):
        """One SSPRK3 step, the diffusion factor applied exactly over each
        stage sub-interval; the new spectrum is written into ``x``."""
        e_full, a2, b2, a3, b3 = stage
        dt = self.config.dt_solver
        self._nonlinear(u_hat, poly, work, x)
        np.multiply(dt, x, out=x)
        x += u_hat
        np.multiply(e_full, x, out=x)  # s1 = e_full (u_hat + dt n0)
        self._nonlinear(x, poly, work, y)
        np.multiply(dt, y, out=y)
        y += x
        np.multiply(b2, y, out=y)
        y += np.multiply(a2, u_hat, out=x)  # s2 = a2 u_hat + b2 (s1 + dt n1)
        self._nonlinear(y, poly, work, x)
        np.multiply(dt, x, out=x)
        x += y
        np.multiply(b3, x, out=x)
        x += np.multiply(a3, u_hat, out=y)  # a3 u_hat + b3 (s2 + dt n2)
        return x

    def solve(self, coeffs, g: np.ndarray):
        """Integrate from the IC grid; returns (n_t, n_x) snapshots or Rejected.

        ``coeffs`` provides ``c`` (2 x 4 polynomial coefficients) and ``nu``.
        Rejection triggers on any non-finite state or on an L-infinity norm
        above the configured bound at a snapshot time.
        """
        return self.solve_batch([coeffs], np.asarray(g)[None])[0]

    def solve_batch(self, coeffs, g: np.ndarray) -> list:
        """``solve`` for each row of the (B, n_x) IC array with its entry of
        ``coeffs``; returns the B outcomes in input order.

        A rejected row leaves the batch at the step that rejects it; the
        rest carry on, each with the bits it would have if solved alone.
        """
        cfg = self.config
        g = np.asarray(g, dtype=np.float64)
        b = len(coeffs)
        if g.shape != (b, cfg.n_x):
            raise ValueError(f"initial conditions must have shape ({b}, {cfg.n_x})")
        c = np.array([np.asarray(co.c, dtype=np.float64) for co in coeffs]).reshape(b, 2, 4, 1)
        c[:, 1, 0] = 0.0  # the flux constant differentiates away
        nu = np.array([float(co.nu) for co in coeffs])

        dt = cfg.dt_solver
        decay = -nu[:, None] * self.k**2
        e_full = np.exp(decay * dt)
        e_half = np.exp(decay * 0.5 * dt)
        e_neg_half = np.exp(-decay * 0.5 * dt)
        stage = (e_full, 0.75 * e_half, 0.25 * e_neg_half, (1.0 / 3.0) * e_full, (2.0 / 3.0) * e_half)

        out: list = [None] * b
        snapshots = np.empty((b, cfg.n_t, cfg.n_x))
        snapshots[:, 0] = g
        keep = _reject(out, np.arange(b), 0, (np.max(np.abs(g), axis=1) > cfg.reject_linf, "linf"))
        # per-row state of the rows left: spectrum, stage factors (complex,
        # as the products cast them), polynomial coefficients, input position
        index = np.flatnonzero(keep)
        u_hat = np.fft.rfft(g[keep])
        stage = tuple(f[keep].astype(complex) for f in stage)
        c = c[keep]
        per_snap = self.steps_per_snapshot
        total = (cfg.n_t - 1) * per_snap
        step = 0
        # blow-ups are data outcomes handled by rejection, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            while step < total and index.size:
                m = index.size
                grid_shape = (m, 2, self.n_pad)
                poly = [np.ascontiguousarray(np.broadcast_to(c[:, :, j], grid_shape)) for j in range(4)]
                work = (np.zeros((m, self.n_pad // 2 + 1), dtype=complex), np.empty(grid_shape),
                        np.empty((m, 2, self.k.size), dtype=complex))
                x, y = np.empty_like(u_hat), np.empty_like(u_hat)
                keep = None
                while keep is None and step < total:
                    u_hat, x = self._step(u_hat, x, y, stage, poly, work), u_hat
                    step += 1
                    finite = np.isfinite(u_hat).all()  # whole batch before any row
                    if step % per_snap == 0:
                        u = np.fft.irfft(u_hat, n=cfg.n_x)
                        snapshots[index, step // per_snap] = u
                        bad = ~np.isfinite(u).all(axis=1)
                        if not finite:
                            bad |= ~np.isfinite(u_hat).all(axis=1)
                        big = ~bad & (np.max(np.abs(u), axis=1) > cfg.reject_linf)
                        if bad.any() or big.any():
                            keep = _reject(out, index, step, (bad, "non_finite"), (big, "linf"))
                    elif not finite:
                        keep = _reject(out, index, step, (~np.isfinite(u_hat).all(axis=1), "non_finite"))
                if keep is not None:
                    u_hat, c, index = u_hat[keep], c[keep], index[keep]
                    stage = tuple(f[keep] for f in stage)
        for i in index:
            out[i] = snapshots[i]
        return out


def solve_pde(coeffs, g: np.ndarray, config: SolverConfig | None = None):
    """One-shot convenience wrapper around ``SpectralSolver.solve``."""
    return SpectralSolver(config).solve(coeffs, g)
