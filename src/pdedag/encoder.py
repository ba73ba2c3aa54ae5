"""Graph transformer over PDE DAGs.

Nodes are embedded as the sum of type, feature-MLP, in-degree and out-degree
terms, then run through pre-normalised attention/FFN layers whose logits are
biased per head by two learnable shortest-path tables (shared across layers)
plus the connectivity mask. The output is the matrix of final embeddings of
the modulation nodes, read in order m1..mL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .graph import GraphFeatures, PdeGraph, graph_features


class MissingModulationNodes(ValueError):
    pass


@dataclass
class AttentionLayerParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_o: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor


@dataclass
class EncoderParams:
    type_emb: Tensor          # (n_types, d_e)
    indeg_emb: Tensor         # (max_degree + 1, d_e)
    outdeg_emb: Tensor        # (max_degree + 1, d_e)
    feat_w1: Tensor           # (d_f, hidden)
    feat_b1: Tensor
    feat_w2: Tensor           # (hidden, hidden)
    feat_b2: Tensor
    feat_w3: Tensor           # (hidden, d_e)
    feat_b3: Tensor
    bias_fwd: Tensor          # (n_heads, cap + 1), shared across layers
    bias_bwd: Tensor          # (n_heads, cap + 1), shared across layers
    layers: list[AttentionLayerParams] = field(default_factory=list)
    final_gamma: Tensor | None = None
    final_beta: Tensor | None = None


def n_node_types(cfg: ModelConfig) -> int:
    from .graph import CORE_TYPES

    return len(CORE_TYPES) + cfg.n_patches + cfg.n_mod


def init_encoder_params(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> EncoderParams:
    def param(arr) -> Tensor:
        return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)

    def linear(fan_in, fan_out):
        return param(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))

    d_e, hidden = cfg.d_e, cfg.feat_hidden
    layers = []
    for _ in range(cfg.n_layers):
        layers.append(
            AttentionLayerParams(
                w_q=linear(d_e, d_e),
                w_k=linear(d_e, d_e),
                w_v=linear(d_e, d_e),
                w_o=linear(d_e, d_e),
                b_o=param(np.zeros(d_e)),
                ffn_w1=linear(d_e, cfg.ffn_dim),
                ffn_b1=param(np.zeros(cfg.ffn_dim)),
                ffn_w2=linear(cfg.ffn_dim, d_e),
                ffn_b2=param(np.zeros(d_e)),
                ln1_gamma=param(np.ones(d_e)),
                ln1_beta=param(np.zeros(d_e)),
                ln2_gamma=param(np.ones(d_e)),
                ln2_beta=param(np.zeros(d_e)),
            )
        )
    return EncoderParams(
        type_emb=param(0.02 * rng.standard_normal((n_node_types(cfg), d_e))),
        indeg_emb=param(0.02 * rng.standard_normal((cfg.max_degree + 1, d_e))),
        outdeg_emb=param(0.02 * rng.standard_normal((cfg.max_degree + 1, d_e))),
        feat_w1=linear(cfg.d_f, hidden),
        feat_b1=param(np.zeros(hidden)),
        feat_w2=linear(hidden, hidden),
        feat_b2=param(np.zeros(hidden)),
        feat_w3=linear(hidden, d_e),
        feat_b3=param(np.zeros(d_e)),
        bias_fwd=param(np.zeros((cfg.n_heads, cfg.path_cap + 1))),
        bias_bwd=param(np.zeros((cfg.n_heads, cfg.path_cap + 1))),
        layers=layers,
        final_gamma=param(np.ones(d_e)) if cfg.final_layernorm else None,
        final_beta=param(np.zeros(d_e)) if cfg.final_layernorm else None,
    )


def feat_encoder(features: Tensor | np.ndarray, params: EncoderParams) -> Tensor:
    """Three-layer ReLU perceptron applied to each node feature row."""
    h = ad.as_tensor(features)
    h = ad.relu(ad.matmul(h, params.feat_w1, stable=True) + params.feat_b1)
    h = ad.relu(ad.matmul(h, params.feat_w2, stable=True) + params.feat_b2)
    return ad.matmul(h, params.feat_w3, stable=True) + params.feat_b3


def embed_nodes(graph: PdeGraph, feats: GraphFeatures, params: EncoderParams, cfg: ModelConfig, dtype=np.float32) -> Tensor:
    """Initial embedding: type + Feat-Enc(feature) + indegree + outdegree.

    Degrees beyond the table clamp to its last row.
    """
    max_deg = params.indeg_emb.shape[0] - 1
    indeg = np.minimum(feats.indeg, max_deg)
    outdeg = np.minimum(feats.outdeg, max_deg)
    h = ad.gather(params.type_emb, graph.type_ids())
    h = h + feat_encoder(graph.features.astype(dtype), params)
    h = h + ad.gather(params.indeg_emb, indeg)
    return h + ad.gather(params.outdeg_emb, outdeg)


def attention_bias(feats: GraphFeatures, params: EncoderParams, dtype=np.float32) -> Tensor:
    """Per-head additive logits b+_{phi(i,j)} + b-_{phi(j,i)} + mask,
    stacked as (n_heads, n, n)."""
    n_heads, cap1 = params.bias_fwd.shape
    mask = Tensor(feats.mask.astype(dtype))
    flat_fwd = ad.reshape(params.bias_fwd, (n_heads * cap1,))
    flat_bwd = ad.reshape(params.bias_bwd, (n_heads * cap1,))
    offsets = (np.arange(n_heads) * cap1)[:, None, None]
    idx_f = offsets + feats.phi[None, :, :]
    idx_b = offsets + feats.phi.T[None, :, :]
    return ad.gather(flat_fwd, idx_f) + ad.gather(flat_bwd, idx_b) + mask


def _layer_norm(h: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    return ad.layer_norm(h, eps=eps) * gamma + beta


def _attention(h: Tensor, bias: Tensor, layer: AttentionLayerParams, cfg: ModelConfig) -> Tensor:
    n = h.shape[0]
    heads, dh = cfg.n_heads, cfg.head_dim

    def split(x: Tensor) -> Tensor:
        return ad.transpose(ad.reshape(x, (n, heads, dh)), (1, 0, 2))

    q = split(ad.matmul(h, layer.w_q, stable=True))
    k = split(ad.matmul(h, layer.w_k, stable=True))
    v = split(ad.matmul(h, layer.w_v, stable=True))
    scores = ad.matmul(q, ad.transpose(k, (0, 2, 1)), stable=True) * np.asarray(1.0 / np.sqrt(dh), dtype=h.dtype)
    weights = ad.softmax(scores + bias, axis=-1)
    ctx = ad.attn_context(weights, v)
    merged = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (n, heads * dh))
    return ad.matmul(merged, layer.w_o, stable=True) + layer.b_o


def encode(graph: PdeGraph, params: EncoderParams, cfg: ModelConfig, feats: GraphFeatures | None = None, dtype=np.float32) -> Tensor:
    """Run the transformer and return the (L, d_e) latent code.

    Row l is the final embedding of the modulation node m_{l+1}; the layer
    structure is pre-normalised attention then FFN, each with a residual.
    """
    if feats is None:
        feats = graph_features(graph, cap=cfg.path_cap)
    try:
        mod_idx = np.asarray(graph.mod_indices, dtype=np.int64)
    except ValueError as exc:
        raise MissingModulationNodes(str(exc)) from None
    if len(mod_idx) != cfg.n_mod:
        raise MissingModulationNodes(f"expected {cfg.n_mod} modulation nodes, found {len(mod_idx)}")

    h = embed_nodes(graph, feats, params, cfg, dtype=dtype)
    bias = attention_bias(feats, params, dtype=dtype)
    for layer in params.layers:
        attn_in = _layer_norm(h, layer.ln1_gamma, layer.ln1_beta, cfg.ln_eps)
        h = h + _attention(attn_in, bias, layer, cfg)
        ffn_in = _layer_norm(h, layer.ln2_gamma, layer.ln2_beta, cfg.ln_eps)
        ffn = ad.matmul(ad.gelu(ad.matmul(ffn_in, layer.ffn_w1, stable=True) + layer.ffn_b1), layer.ffn_w2, stable=True) + layer.ffn_b2
        h = h + ffn
    if params.final_gamma is not None:
        h = _layer_norm(h, params.final_gamma, params.final_beta, cfg.ln_eps)
    return ad.gather(h, mod_idx)
