"""Full surrogate model: parameter registry, initialisation, grid coordinates and forward pass."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .config import ModelConfig
from .decoder import DecoderParams, decode, init_decoder_params
from .dsl import Eq0
from .encoder import EncoderParams, encode, init_encoder_params
from .graph import PdeGraph, compile_pde


def _walk(prefix: str, node):
    if isinstance(node, Tensor):
        yield prefix, node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _walk(f"{prefix}.{i}", item)
    elif is_dataclass(node):
        for f in fields(node):
            yield from _walk(f"{prefix}.{f.name}" if prefix else f.name, getattr(node, f.name))


@dataclass
class ModelParams:
    encoder: EncoderParams
    decoder: DecoderParams

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every tensor in dataclass field order, named by its attribute path
        (list items as ``.i``, ``None`` fields skipped): the stable order
        used by optimizers and checkpoints."""
        return list(_walk("", self))

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors())

    def to_flat(self) -> np.ndarray:
        return np.concatenate([t.data.ravel() for t in self.tensors()])

    def load_flat(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the structured tensors, bit-exactly."""
        offset = 0
        for _, t in self.named_tensors():
            n = t.size
            t.data[...] = flat[offset : offset + n].reshape(t.data.shape).astype(t.data.dtype, copy=False)
            offset += n
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")

    def zero_grads(self) -> None:
        for t in self.tensors():
            t.grad = None


def init_model_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DE1]))
    return ModelParams(
        encoder=init_encoder_params(cfg, rng, dtype=dtype),
        decoder=init_decoder_params(cfg, rng, dtype=dtype),
    )


def compile_for_model(ast: Eq0, ic_values: np.ndarray, cfg: ModelConfig) -> PdeGraph:
    return compile_pde(ast, ic_values, d_f=cfg.d_f, n_patches=cfg.n_patches, n_mod=cfg.n_mod)


def grid_coords(t_idx, x_idx, n_x: int, dt_data: float = 0.01) -> np.ndarray:
    """(K, 2) coordinates of grid points: t = dt_data * i, x = -1 + 2 * j / n_x."""
    t = dt_data * np.asarray(t_idx, dtype=np.float64)
    x = -1.0 + 2.0 * np.asarray(x_idx, dtype=np.float64) / n_x
    return np.stack([t, x], axis=1)


def model_forward(graph: PdeGraph, coords: np.ndarray, params: ModelParams, cfg: ModelConfig, dtype=np.float32) -> Tensor:
    """Predicted solution values at the given (t, x) coordinates (taped, unless
    called under ``autodiff.no_grad``)."""
    return decode(encode(graph, params.encoder, cfg, dtype=dtype), coords, params.decoder)


def predict_grid(ast: Eq0, ic_values: np.ndarray, params: ModelParams, cfg: ModelConfig,
                 n_t: int = 101, dt_data: float = 0.01, chunk: int = 8192) -> np.ndarray:
    """Decode the full (n_t, n_x) grid: one encode, decoded in chunks to bound peak memory."""
    n_x = cfg.n_x
    coords = grid_coords(*np.divmod(np.arange(n_t * n_x), n_x), n_x, dt_data)
    with no_grad():
        mu = encode(compile_for_model(ast, ic_values, cfg), params.encoder, cfg)
        rows = [decode(mu, coords[lo : lo + chunk], params.decoder).data for lo in range(0, len(coords), chunk)]
    return np.concatenate(rows).reshape(n_t, n_x)
