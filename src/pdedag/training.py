"""Losses, learning-rate schedule, Adam loop and evaluation."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteDetected, Tensor
from .config import ModelConfig, TrainConfig
from .datagen import PdeSample, ast_from_coefficients, augment_translate, sample_points
from .model import (ModelParams, compile_for_model, grid_coords, init_model_params, model_forward,
                    predict_grid)


class ZeroReference(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    pass


def relative_l2(pred: np.ndarray, truth: np.ndarray) -> float:
    """||truth - pred||_2 / ||truth||_2 over all given points."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ad.ShapeMismatch(f"{pred.shape} vs {truth.shape}")
    denom = float(np.linalg.norm(truth.ravel()))
    if denom == 0.0:
        raise ZeroReference("reference field has zero norm")
    return float(np.linalg.norm((truth - pred).ravel())) / denom


def sample_relative_l2(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Differentiable per-sample relative L2 on a point set."""
    truth_t = Tensor(np.asarray(truth, dtype=pred.dtype))
    denom_sq = float(np.sum(np.asarray(truth, dtype=np.float64) ** 2))
    if denom_sq == 0.0:
        raise ZeroReference("reference values have zero norm")
    err = pred - truth_t
    num = ad.sqrt(ad.reduce_sum(err * err))
    return num * np.asarray(1.0 / np.sqrt(denom_sq), dtype=pred.dtype)


def nrmse_loss(pairs: list[tuple[Tensor, np.ndarray]]) -> Tensor:
    """Batch loss: mean over samples of the per-sample relative L2."""
    terms = [sample_relative_l2(pred, truth) for pred, truth in pairs]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * np.asarray(1.0 / len(terms), dtype=total.dtype)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup from zero, then halvings at the milestone fractions."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        return cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    passed = sum(1 for m in cfg.lr_milestones if epoch >= m * cfg.epochs - 1e-9)
    return cfg.base_lr * cfg.lr_decay**passed


class Adam:
    def __init__(self, params: ModelParams, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.steps = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}

    def step(self, lr: float) -> None:
        self.steps += 1
        bc1 = 1.0 - self.beta1**self.steps
        bc2 = 1.0 - self.beta2**self.steps
        for name, p in self.params.named_tensors():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)

    def state(self) -> dict:
        names = [n for n, _ in self.params.named_tensors()]
        return {
            "m": np.concatenate([self.m[n].ravel() for n in names]),
            "v": np.concatenate([self.v[n].ravel() for n in names]),
            "step": self.steps,
        }


def clip_gradients(params: ModelParams, max_norm: float) -> float:
    total = 0.0
    for t in params.tensors():
        if t.grad is not None:
            total += float(np.sum(t.grad.astype(np.float64) ** 2))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for t in params.tensors():
            if t.grad is not None:
                t.grad *= scale
    return norm


def _index_hash(i: int) -> int:
    return int.from_bytes(hashlib.blake2b(str(i).encode(), digest_size=8).digest(), "little")


def split_indices(n: int, test_fraction: float) -> tuple[list[int], list[int]]:
    """Deterministic train/test split by sample index hash."""
    cut = round(test_fraction * 100)
    test = [i for i in range(n) if _index_hash(i) % 100 < cut]
    test_set = set(test)
    train = [i for i in range(n) if i not in test_set]
    return train, test


def _sample_loss_inputs(sample: PdeSample, shift: int, rng, points: int, model_cfg: ModelConfig):
    shifted = augment_translate(sample, shift) if shift else sample
    t_idx, x_idx, values = sample_points(rng, shifted, count=points)
    coords = grid_coords(t_idx, x_idx, shifted.n_x)
    graph = compile_for_model(ast_from_coefficients(shifted.coefficients), shifted.ic, model_cfg)
    return graph, coords, values


@dataclass
class TrainResult:
    params: ModelParams
    curve: list[dict] = field(default_factory=list)
    final_train_loss: float = float("nan")
    checkpoint_dir: Path | None = None


def train(
    samples: list[PdeSample],
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    out_dir=None,
    initial: ModelParams | None = None,
) -> TrainResult:
    """Adam on the batched relative-L2 loss with fresh per-epoch translations.

    Writes ``loss_curve.csv`` and a final checkpoint when ``out_dir`` is set.
    """
    from .dataio import save_checkpoint

    if not samples:
        raise ValueError("dataset is empty")
    train_idx, _ = split_indices(len(samples), cfg.test_fraction)
    if not train_idx:
        raise ValueError("train split is empty; lower test_fraction")
    params = initial if initial is not None else init_model_params(model_cfg, seed=cfg.seed)
    optimizer = Adam(params)
    curve: list[dict] = []
    points = min(cfg.points_per_sample, samples[0].n_t * samples[0].n_x)

    with ad.sequential_mode(cfg.sequential):
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, epoch]))
            order = [train_idx[i] for i in rng.permutation(len(train_idx))]
            epoch_loss = 0.0
            chunk_count = max(1, cfg.steps_per_sample)
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                # one translation and one point draw per sample visit; the
                # draw is split into chunk_count optimizer steps
                prepared = []
                for idx in batch:
                    shift = int(rng.integers(model_cfg.n_x)) if cfg.augment else 0
                    prepared.append(_sample_loss_inputs(samples[idx], shift, rng, points, model_cfg))
                bounds = np.linspace(0, points, chunk_count + 1).astype(int)

                def run_chunk(c):
                    pairs = []
                    for graph, coords, values in prepared:
                        sl = slice(bounds[c], bounds[c + 1])
                        pred = model_forward(graph, coords[sl], params, model_cfg)
                        pairs.append((pred, values[sl]))
                    return nrmse_loss(pairs)

                for c in range(chunk_count):
                    params.zero_grads()
                    # hot path skips per-op finite checks; a bad scalar loss
                    # is replayed tape-free with checks on to name the offending op
                    with ad.finite_checks(False):
                        loss = run_chunk(c)
                    loss_value = float(loss.data)
                    if not np.isfinite(loss_value):
                        try:
                            with ad.no_grad():
                                run_chunk(c)
                        except NonFiniteDetected as exc:
                            raise NonFiniteLoss(f"epoch {epoch}, samples {batch}: {exc}") from exc
                        raise NonFiniteLoss(f"epoch {epoch}: loss is {loss_value}")
                    loss.backward()
                    if cfg.grad_clip is not None:
                        clip_gradients(params, cfg.grad_clip)
                    optimizer.step(lr)
                    epoch_loss += loss_value * len(batch) / chunk_count
            curve.append({"epoch": epoch, "lr": lr, "train_loss": epoch_loss / len(order)})

    result = TrainResult(params=params, curve=curve, final_train_loss=curve[-1]["train_loss"])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_loss_curve(out / "loss_curve.csv", curve)
        result.checkpoint_dir = save_checkpoint(
            out / "checkpoint", params, model_cfg, opt_state=optimizer.state(),
            extra={"epochs": cfg.epochs, "seed": cfg.seed},
        )
    return result


def write_loss_curve(path, curve: list[dict]) -> None:
    fields = ["epoch", "lr", "train_loss"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in curve:
            writer.writerow([repr(row[k]) if isinstance(row[k], float) else row[k] for k in fields])


def evaluate(params: ModelParams, model_cfg: ModelConfig, samples: list[PdeSample], dt_data: float = 0.01) -> dict:
    """Full-grid relative L2 per sample plus the arithmetic mean."""
    per_sample = []
    for sample in samples:
        pred = predict_grid(
            ast_from_coefficients(sample.coefficients), sample.ic, params, model_cfg,
            n_t=sample.n_t, dt_data=dt_data,
        )
        per_sample.append(relative_l2(pred, sample.solution))
    return {"per_sample": per_sample, "mean": float(np.mean(per_sample))}
