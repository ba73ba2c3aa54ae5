import numpy as np
import pytest

from pdedag import autodiff as ad
from pdedag.autodiff import MASK_SENTINEL, Tensor, finite_diff_check
from pdedag.dsl import parse_pde
from pdedag.encoder import (EncoderParams, MissingModulationNodes, attention_bias,
                            embed_nodes, encode, feat_encoder, init_encoder_params)
from pdedag.graph import PdeGraph, compile_pde, graph_features
from pdedag.model import compile_for_model, init_model_params


def _graph(cfg, text="dt(u) + c*dx(u) = 0", coefs={"c": 0.4}, seed=5):
    rng = np.random.default_rng(seed)
    ic = rng.uniform(-1, 1, cfg.n_x).astype(np.float32)
    return compile_for_model(parse_pde(text, coefs), ic, cfg)


def _zero_params(params: EncoderParams) -> None:
    from pdedag.model import ModelParams  # reuse the walker via a tiny shim

    def walk(obj):
        for name in vars(obj):
            val = getattr(obj, name)
            if isinstance(val, Tensor):
                val.data[...] = 0.0
            elif isinstance(val, list):
                for item in val:
                    walk(item)

    walk(params)


def test_embed_all_zero_params_gives_zero(micro_cfg):
    params = init_encoder_params(micro_cfg, np.random.default_rng(0), dtype=np.float64)
    _zero_params(params)
    graph = _graph(micro_cfg)
    feats = graph_features(graph)
    h0 = embed_nodes(graph, feats, params, micro_cfg, dtype=np.float64)
    assert np.array_equal(h0.data, np.zeros((graph.n_nodes, micro_cfg.d_e)))


def test_embed_term_isolation(micro_cfg):
    # zero features and degree tables leave only type + Feat-Enc(0)
    params = init_encoder_params(micro_cfg, np.random.default_rng(1), dtype=np.float64)
    params.indeg_emb.data[...] = 0.0
    params.outdeg_emb.data[...] = 0.0
    graph = _graph(micro_cfg)
    graph = PdeGraph(
        node_types=graph.node_types,
        features=np.zeros_like(graph.features),
        edges=graph.edges,
        d_f=graph.d_f, n_patches=graph.n_patches, n_mod=graph.n_mod,
    )
    feats = graph_features(graph)
    h0 = embed_nodes(graph, feats, params, micro_cfg, dtype=np.float64)
    enc0 = feat_encoder(np.zeros((1, micro_cfg.d_f)), params).data[0]
    expected = params.type_emb.data[graph.type_ids()] + enc0
    assert np.allclose(h0.data, expected, atol=1e-12)


def test_embed_matches_scalar_loop_oracle(micro_cfg):
    params = init_encoder_params(micro_cfg, np.random.default_rng(2), dtype=np.float64)
    graph = _graph(micro_cfg)
    feats = graph_features(graph)
    h0 = embed_nodes(graph, feats, params, micro_cfg, dtype=np.float64).data

    def relu(v):
        return np.maximum(v, 0.0)

    type_ids = graph.type_ids()
    for i in range(graph.n_nodes):
        f = graph.features[i].astype(np.float64)
        h = relu(f @ params.feat_w1.data + params.feat_b1.data)
        h = relu(h @ params.feat_w2.data + params.feat_b2.data)
        h = h @ params.feat_w3.data + params.feat_b3.data
        row = (
            params.type_emb.data[type_ids[i]]
            + h
            + params.indeg_emb.data[min(feats.indeg[i], params.indeg_emb.shape[0] - 1)]
            + params.outdeg_emb.data[min(feats.outdeg[i], params.outdeg_emb.shape[0] - 1)]
        )
        assert np.allclose(h0[i], row, atol=1e-12)


def test_attention_bias_zero_tables_fully_connected(micro_cfg):
    params = init_encoder_params(micro_cfg, np.random.default_rng(3), dtype=np.float64)
    params.bias_fwd.data[...] = 0.0
    params.bias_bwd.data[...] = 0.0
    n = 4
    feats = graph_features(PdeGraph(
        node_types=tuple(f"m{i+1}" for i in range(n)),
        features=np.zeros((n, micro_cfg.d_f), dtype=np.float32),
        edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)),
        d_f=micro_cfg.d_f, n_patches=0, n_mod=n,
    ))
    bias = attention_bias(feats, params, dtype=np.float64)
    assert np.array_equal(bias.data[0], np.zeros((n, n)))


def test_attention_bias_masks_disconnected_pairs(micro_cfg):
    params = init_encoder_params(micro_cfg, np.random.default_rng(4), dtype=np.float64)
    params.bias_fwd.data[...] = np.random.default_rng(0).standard_normal(params.bias_fwd.shape)
    g = PdeGraph(
        node_types=("m1", "m2", "m3"),
        features=np.zeros((3, micro_cfg.d_f), dtype=np.float32),
        edges=((0, 1),),
        d_f=micro_cfg.d_f, n_patches=0, n_mod=3,
    )
    feats = graph_features(g)
    bias = attention_bias(feats, params, dtype=np.float64).data[1]
    assert bias[0, 2] <= MASK_SENTINEL / 2
    assert bias[2, 0] <= MASK_SENTINEL / 2
    assert bias[0, 1] > MASK_SENTINEL / 2


def test_attention_bias_matches_hand_formula(micro_cfg):
    rng = np.random.default_rng(5)
    params = init_encoder_params(micro_cfg, rng, dtype=np.float64)
    params.bias_fwd.data[...] = rng.standard_normal(params.bias_fwd.shape)
    params.bias_bwd.data[...] = rng.standard_normal(params.bias_bwd.shape)
    graph = _graph(micro_cfg)
    feats = graph_features(graph)
    stacked = attention_bias(feats, params, dtype=np.float64).data
    for head in range(micro_cfg.n_heads):
        bias = stacked[head]
        n = graph.n_nodes
        for i in range(n):
            for j in range(n):
                expected = (
                    params.bias_fwd.data[head, feats.phi[i, j]]
                    + params.bias_bwd.data[head, feats.phi[j, i]]
                    + feats.mask[i, j]
                )
                assert bias[i, j] == pytest.approx(expected, abs=1e-12)


def test_encode_output_shape(small_cfg):
    params = init_encoder_params(small_cfg, np.random.default_rng(6))
    graph = _graph(small_cfg)
    mu = encode(graph, params, small_cfg)
    assert mu.shape == (small_cfg.n_mod, small_cfg.d_e)


def test_encode_missing_modulation_nodes(small_cfg):
    params = init_encoder_params(small_cfg, np.random.default_rng(7))
    g = PdeGraph(
        node_types=("uf", "dt", "eq0"),
        features=np.zeros((3, small_cfg.d_f), dtype=np.float32),
        edges=((0, 1), (1, 2)),
        d_f=small_cfg.d_f, n_patches=0, n_mod=0,
    )
    with pytest.raises(MissingModulationNodes):
        encode(g, params, small_cfg)


def test_encode_degenerate_params_residual_path(small_cfg):
    # zero attention values and zero second FFN weight leave only the
    # residual stream, so mu is the final normalisation of H0
    params = init_encoder_params(small_cfg, np.random.default_rng(8), dtype=np.float64)
    for layer in params.layers:
        layer.w_v.data[...] = 0.0
        layer.b_o.data[...] = 0.0
        layer.ffn_w2.data[...] = 0.0
        layer.ffn_b2.data[...] = 0.0
    graph = _graph(small_cfg)
    feats = graph_features(graph)
    mu = encode(graph, params, small_cfg, dtype=np.float64)
    h0 = embed_nodes(graph, feats, params, small_cfg, dtype=np.float64)
    normed = ad.layer_norm(h0, eps=small_cfg.ln_eps) * params.final_gamma + params.final_beta
    expected = normed.data[graph.mod_indices]
    assert np.allclose(mu.data, expected, atol=1e-12)


def test_disconnected_component_cannot_influence_latent(small_cfg):
    params = init_encoder_params(small_cfg, np.random.default_rng(9), dtype=np.float64)
    base = _graph(small_cfg)
    extra_types = base.node_types + ("sc",)
    feat_a = np.vstack([base.features, np.full((1, small_cfg.d_f), 1.0, dtype=np.float32)])
    feat_b = np.vstack([base.features, np.full((1, small_cfg.d_f), -7.5, dtype=np.float32)])
    ga = PdeGraph(node_types=extra_types, features=feat_a, edges=base.edges,
                  d_f=base.d_f, n_patches=base.n_patches, n_mod=base.n_mod)
    gb = PdeGraph(node_types=extra_types, features=feat_b, edges=base.edges,
                  d_f=base.d_f, n_patches=base.n_patches, n_mod=base.n_mod)
    mu_a = encode(ga, params, small_cfg, dtype=np.float64)
    mu_b = encode(gb, params, small_cfg, dtype=np.float64)
    assert np.array_equal(mu_a.data, mu_b.data)


def test_attention_weights_exactly_zero_at_masked_pairs(small_cfg):
    # reproduce the internal softmax on a graph with disconnected pairs
    params = init_encoder_params(small_cfg, np.random.default_rng(10), dtype=np.float64)
    graph = _graph(small_cfg, text="dt(u) = 0", coefs=None)
    feats = graph_features(graph)
    h0 = embed_nodes(graph, feats, params, small_cfg, dtype=np.float64)
    bias = attention_bias(feats, params, dtype=np.float64)
    layer = params.layers[0]
    n, heads, dh = graph.n_nodes, small_cfg.n_heads, small_cfg.head_dim
    normed = ad.layer_norm(h0, eps=small_cfg.ln_eps) * layer.ln1_gamma + layer.ln1_beta

    def split(x):
        return ad.transpose(ad.reshape(x, (n, heads, dh)), (1, 0, 2))

    q = split(ad.matmul(normed, layer.w_q, stable=True))
    k = split(ad.matmul(normed, layer.w_k, stable=True))
    scores = ad.matmul(q, ad.transpose(k, (0, 2, 1)), stable=True) * (1.0 / np.sqrt(dh))
    weights = ad.softmax(scores + bias, axis=-1).data
    disconnected = feats.mask == MASK_SENTINEL
    assert disconnected.any()
    for h in range(heads):
        assert np.all(weights[h][disconnected] == 0.0)


def _permuted(graph: PdeGraph, perm: np.ndarray) -> PdeGraph:
    inv = np.argsort(perm)
    return PdeGraph(
        node_types=tuple(graph.node_types[inv[i]] for i in range(graph.n_nodes)),
        features=graph.features[inv],
        edges=tuple((int(perm[s]), int(perm[d])) for s, d in graph.edges),
        d_f=graph.d_f, n_patches=graph.n_patches, n_mod=graph.n_mod,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permutation_equivariance_bit_exact(small_cfg, seed):
    params = init_encoder_params(small_cfg, np.random.default_rng(11), dtype=np.float64)
    graph = _graph(small_cfg, text="dt(u) + dx(u^2) - nu*dxx(u) = 0", coefs={"nu": 0.05})
    perm = np.random.default_rng(seed).permutation(graph.n_nodes)
    mu = encode(graph, params, small_cfg, dtype=np.float64)
    mu_p = encode(_permuted(graph, perm), params, small_cfg, dtype=np.float64)
    assert np.array_equal(mu.data, mu_p.data)


def test_permutation_equivariance_float32(small_cfg):
    params = init_encoder_params(small_cfg, np.random.default_rng(12), dtype=np.float32)
    graph = _graph(small_cfg)
    perm = np.random.default_rng(3).permutation(graph.n_nodes)
    mu = encode(graph, params, small_cfg, dtype=np.float32)
    mu_p = encode(_permuted(graph, perm), params, small_cfg, dtype=np.float32)
    assert np.array_equal(mu.data, mu_p.data)


def test_bias_tables_shared_across_layers(small_cfg):
    # structural: the parameter registry holds exactly one table per direction
    params = init_model_params(small_cfg, seed=0)
    names = [n for n, _ in params.named_tensors()]
    assert names.count("encoder.bias_fwd") == 1
    assert names.count("encoder.bias_bwd") == 1
    assert not any("layers" in n and "bias" in n for n in names)
    table = dict(params.named_tensors())["encoder.bias_fwd"]
    assert table.shape == (small_cfg.n_heads, small_cfg.path_cap + 1)


def test_encoder_layer_gradient_check(micro_cfg):
    # one full layer: loss is a fixed projection of the layer output
    rng = np.random.default_rng(13)
    params = init_encoder_params(micro_cfg, rng, dtype=np.float64)
    flat_rng = np.random.default_rng(20)
    for _, t in [("x", params.bias_fwd), ("y", params.bias_bwd)]:
        t.data[...] = 0.3 * flat_rng.standard_normal(t.shape)
    graph = _graph(micro_cfg, text="dt(u) = 0", coefs=None)
    feats = graph_features(graph)
    proj = flat_rng.standard_normal((graph.n_nodes, micro_cfg.d_e))

    layer = params.layers[0]
    tensors = {
        "w_q": layer.w_q, "w_k": layer.w_k, "w_v": layer.w_v, "w_o": layer.w_o,
        "ffn_w1": layer.ffn_w1, "ln1_gamma": layer.ln1_gamma,
        "bias_fwd": params.bias_fwd,
    }
    h0 = embed_nodes(graph, feats, params, micro_cfg, dtype=np.float64).data

    def run(_):
        h = Tensor(h0)
        bias = attention_bias(feats, params, dtype=np.float64)
        from pdedag.encoder import _attention, _layer_norm

        attn_in = _layer_norm(h, layer.ln1_gamma, layer.ln1_beta, micro_cfg.ln_eps)
        h = h + _attention(attn_in, bias, layer, micro_cfg)
        ffn_in = _layer_norm(h, layer.ln2_gamma, layer.ln2_beta, micro_cfg.ln_eps)
        ffn = ad.matmul(ad.gelu(ad.matmul(ffn_in, layer.ffn_w1, stable=True) + layer.ffn_b1),
                        layer.ffn_w2, stable=True) + layer.ffn_b2
        return ad.reduce_sum((h + ffn) * proj)

    for name, tensor in tensors.items():
        err = finite_diff_check(run, tensor, eps=1e-6)
        assert err < 1e-5, f"{name}: {err:.2e}"
