"""Configuration dataclasses and the desk/paper scale presets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs shared by the graph encoder and the INR decoder."""

    d_f: int = 16            # node feature width = IC patch length
    n_patches: int = 16      # number of IC patch nodes
    n_mod: int = 8           # number of modulation nodes = decoder hidden layers
    d_e: int = 64            # encoder embedding width
    n_layers: int = 4        # encoder transformer layers
    n_heads: int = 4
    ffn_dim: int = 64
    feat_hidden: int = 256   # hidden width of the node-feature MLP
    d_h: int = 32            # decoder hidden width
    hyper_hidden: int = 256  # hidden width of the modulation MLPs
    path_cap: int = 14       # shortest-path clamp for the attention bias tables
    max_degree: int = 32     # degree embedding tables clamp beyond this
    final_layernorm: bool = True
    ln_eps: float = 1e-5

    @property
    def n_x(self) -> int:
        return self.n_patches * self.d_f

    @property
    def head_dim(self) -> int:
        if self.d_e % self.n_heads:
            raise ValueError(f"d_e={self.d_e} not divisible by n_heads={self.n_heads}")
        return self.d_e // self.n_heads


DESK_MODEL = ModelConfig()
PAPER_MODEL = ModelConfig(d_e=512, n_layers=9, n_heads=32, ffn_dim=512, d_h=256)


@dataclass(frozen=True)
class SolverConfig:
    """Spatial/temporal discretisation of the pseudo-spectral solver."""

    n_x: int = 256
    n_t: int = 101
    dt_solver: float = 4e-4
    dt_data: float = 0.01
    x_lo: float = -1.0
    x_hi: float = 1.0
    dealias: float = 1.5     # padded-grid factor for nonlinear products
    reject_linf: float = 10.0

    @property
    def domain_length(self) -> float:
        return self.x_hi - self.x_lo

    def x_grid(self):
        import numpy as np

        return self.x_lo + self.domain_length * np.arange(self.n_x) / self.n_x

    def t_grid(self):
        import numpy as np

        return self.dt_data * np.arange(self.n_t)


@dataclass(frozen=True)
class SamplingConfig:
    """Random PDE family: coefficient, viscosity and initial-condition draws."""

    zero_prob: float = 0.5
    coef_lo: float = -3.0
    coef_hi: float = 3.0
    nu_log_lo: float = math.log(1e-3)
    nu_log_hi: float = math.log(1.0)
    linear_nu_zero_prob: float = 0.5
    ic_terms: int = 2        # number of sinusoids in the initial condition
    ic_n_lo: int = 1         # inclusive integer frequency range
    ic_n_hi: int = 8
    abs_prob: float = 0.1    # absolute-value-with-random-sign transform
    window_prob: float = 0.1  # restriction to a random sub-interval
    window_steepness: float = 5.0  # 10 / L_x for the default domain


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    base_lr: float = 3e-4
    epochs: int = 200
    warmup_epochs: int = 10
    lr_milestones: tuple[float, ...] = (0.4, 0.6, 0.8)
    lr_decay: float = 0.5
    points_per_sample: int = 8192
    steps_per_sample: int = 1  # optimizer steps per sample visit; the epoch's
                               # point draw is split into this many chunks
    seed: int = 0
    test_fraction: float = 0.1
    grad_clip: float | None = None
    augment: bool = True
    sequential: bool = False  # bit-reproducible reductions (slower)


PAPER_TRAIN = TrainConfig(batch_size=80, epochs=1000)


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 64
    iterations: int = 300
    inertia: float = 0.729
    cognitive: float = 1.494
    social: float = 1.494
    bounds_lo: float = -3.0
    bounds_hi: float = 3.0
    velocity_clamp: float = 0.5  # fraction of the per-dimension box width
    seed: int = 0


def config_as_dict(cfg) -> dict:
    d = asdict(cfg)
    for k, v in d.items():
        if isinstance(v, tuple):
            d[k] = list(v)
    return d
