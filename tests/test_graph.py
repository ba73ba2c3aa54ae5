import hashlib
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdedag import dsl
from pdedag.autodiff import MASK_SENTINEL
from pdedag.dsl import Add, Coef, Dt, Dx, Eq0, Mul, Pow, Square, Var, parse_pde
from pdedag.graph import (BadGridSize, InvalidAst, PdeGraph, canonical_form,
                          compile_pde, connectivity_mask, expand_power,
                          graph_features, graph_to_json, prune_zero_terms,
                          shortest_paths)

U = Var("u")


def _ic(n: int = 256) -> np.ndarray:
    x = -1.0 + 2.0 * np.arange(n) / n
    return np.sin(np.pi * x).astype(np.float32)


ADVECTION = parse_pde("dt(u) + c*dx(u) = 0", {"c": 0.3})


def test_compile_advection_structure():
    g = compile_pde(ADVECTION, _ic(), d_f=16, n_patches=16, n_mod=8)
    counts = Counter(g.node_types)
    for t in ("uf", "sc", "ic", "dt", "dx", "mul", "add", "eq0"):
        assert counts[t] == 1
    assert sum(1 for t in g.node_types if t.startswith("p") and t != "square") == 16
    assert sum(1 for t in g.node_types if t.startswith("m") and t != "mul") == 16 + 8 - 16
    assert g.n_nodes == 8 + 16 + 8

    idx = {t: i for i, t in enumerate(g.node_types) if not t[1:].isdigit() or t in ()}
    edges = set(g.edges)
    uf, ic, dt, dx, sc, mul, add, eq0 = (g.node_types.index(t) for t in
                                         ("uf", "ic", "dt", "dx", "sc", "mul", "add", "eq0"))
    assert (uf, ic) in edges        # IC attaches to the unknown field
    assert (uf, dt) in edges and (uf, dx) in edges
    assert (sc, mul) in edges and (dx, mul) in edges
    assert (mul, add) in edges and (dt, add) in edges
    assert (add, eq0) in edges
    assert (ic, g.node_types.index("p1")) in edges
    assert (g.node_types.index("m1"), uf) in edges


def test_compile_minimal_equation():
    g = compile_pde(parse_pde("dt(u) = 0"), _ic(8), d_f=4, n_patches=2, n_mod=2)
    core = [t for t in g.node_types if not t[1:].isdigit()]
    assert sorted(core) == ["dt", "eq0", "ic", "uf"]
    uf, dt, eq0 = (g.node_types.index(t) for t in ("uf", "dt", "eq0"))
    assert (uf, dt) in g.edges and (dt, eq0) in g.edges


def test_compile_burgers_square_matches_hand_dag():
    # hand lowering of dt(u) + dx(u^2) - nu*dxx(u) = 0: one square node,
    # shared u fan-out, dx(dx(u)) chain into the mul with the viscosity
    g = compile_pde(parse_pde("dt(u) + dx(u^2) - nu*dxx(u) = 0", {"nu": 0.1}),
                    _ic(), d_f=16, n_patches=16, n_mod=8)
    counts = Counter(g.node_types)
    assert counts["square"] == 1
    assert counts["dx"] == 3  # dx(u^2), and the two-deep dx(dx(u))
    assert counts["neg"] == 1 and counts["mul"] == 1 and counts["uf"] == 1
    uf = g.node_types.index("uf")
    sq = g.node_types.index("square")
    assert (uf, sq) in g.edges
    # u fans out: dt, square, inner dx, ic
    fanout = sum(1 for s, d in g.edges if s == uf)
    assert fanout == 4


def test_shared_subexpressions_single_node():
    g = compile_pde(ADVECTION, _ic(8), d_f=4, n_patches=2, n_mod=1)
    assert g.node_types.count("uf") == 1
    uf = g.node_types.index("uf")
    out = [d for s, d in g.edges if s == uf]
    assert len(out) == 3  # dt, dx, ic


def test_zero_coefficient_terms_dropped():
    g = compile_pde(parse_pde("dt(u) + 0*dx(u) = 0"), _ic(8), d_f=4, n_patches=2, n_mod=1)
    assert "dx" not in g.node_types and "mul" not in g.node_types
    with pytest.raises(InvalidAst):
        prune_zero_terms(Eq0(Mul((Coef(None, 0.0), U))))


def test_compile_errors():
    with pytest.raises(BadGridSize):
        compile_pde(ADVECTION, _ic(10), d_f=4, n_patches=2, n_mod=1)
    with pytest.raises(InvalidAst):
        compile_pde(Eq0(Pow(U, 0)), _ic(8), d_f=4, n_patches=2, n_mod=1)
    with pytest.raises(InvalidAst):
        compile_pde(parse_pde("dt(u) + c*dx(u) = 0", allow_unbound=True),
                    _ic(8), d_f=4, n_patches=2, n_mod=1)


def test_compile_is_pure():
    a = compile_pde(ADVECTION, _ic(), d_f=16, n_patches=16, n_mod=8)
    b = compile_pde(ADVECTION, _ic(), d_f=16, n_patches=16, n_mod=8)
    assert a.node_types == b.node_types
    assert a.edges == b.edges
    assert np.array_equal(a.features, b.features)


def test_patch_features_carry_ic_slices():
    ic = np.arange(8, dtype=np.float32)
    g = compile_pde(ADVECTION, ic, d_f=4, n_patches=2, n_mod=1)
    p1 = g.node_types.index("p1")
    p2 = g.node_types.index("p2")
    assert np.array_equal(g.features[p1], ic[:4])
    assert np.array_equal(g.features[p2], ic[4:])
    sc = g.node_types.index("sc")
    assert np.array_equal(g.features[sc], np.full(4, 0.3, dtype=np.float32))
    uf = g.node_types.index("uf")
    assert not g.features[uf].any()


# --- power expansion --------------------------------------------------------

def _eval_expr(node, value: float) -> float:
    if isinstance(node, Var):
        return value
    if isinstance(node, Square):
        return _eval_expr(node.child, value) ** 2
    if isinstance(node, Mul):
        out = 1.0
        for c in node.children:
            out *= _eval_expr(c, value)
        return out
    raise TypeError(node)


def test_expand_power_small_cases():
    assert expand_power(1) == U
    assert expand_power(2) == Square(U)
    assert expand_power(3) == Mul((Square(U), U))


def test_expand_power_eleven_structure():
    tree = expand_power(11)
    sq3 = Square(Square(Square(U)))
    assert tree == Mul((sq3, Square(U), U))


@pytest.mark.parametrize("k", range(1, 33))
def test_expand_power_evaluates_correctly(k):
    assert _eval_expr(expand_power(k), 1.37) == pytest.approx(1.37**k, rel=1e-9)


def test_power_chain_shares_squares_in_dag():
    g = compile_pde(Eq0(Add((Dt(U), Pow(U, 11)))), _ic(8), d_f=4, n_patches=2, n_mod=1)
    counts = Counter(g.node_types)
    assert counts["square"] == 3  # chain u^2, u^4, u^8 shared via hash-consing
    mul = g.node_types.index("mul")
    assert sum(1 for s, d in g.edges if d == mul) == 3  # one factor per set bit


# --- shortest paths / masks -------------------------------------------------

def _chain_graph(n: int) -> PdeGraph:
    return PdeGraph(
        node_types=tuple(f"m{i + 1}" for i in range(n)),
        features=np.zeros((n, 2), dtype=np.float32),
        edges=tuple((i, i + 1) for i in range(n - 1)),
        d_f=2, n_patches=0, n_mod=n,
    )


def test_shortest_paths_chain():
    phi = shortest_paths(_chain_graph(3))
    assert phi[0, 2] == 2 and phi[2, 0] == 14
    assert (np.diag(phi) == 0).all()


def test_shortest_paths_cap_on_long_chain():
    phi = shortest_paths(_chain_graph(21))  # 20 edges
    assert phi[0, 20] == 14
    assert phi[0, 13] == 13
    assert phi[0, 14] == 14


def test_mask_two_disjoint_chains():
    g = PdeGraph(
        node_types=tuple(f"m{i + 1}" for i in range(4)),
        features=np.zeros((4, 2), dtype=np.float32),
        edges=((0, 1), (2, 3)),
        d_f=2, n_patches=0, n_mod=4,
    )
    mask = connectivity_mask(g)
    assert mask[0, 1] == 0 and mask[1, 0] == 0
    assert mask[0, 2] == MASK_SENTINEL and mask[2, 0] == MASK_SENTINEL
    assert (mask == mask.T).all()


def test_mask_one_directional_reach_is_symmetric():
    g = _chain_graph(3)
    mask = connectivity_mask(g)
    assert mask[0, 2] == 0 and mask[2, 0] == 0


def test_mask_fully_connected():
    # transitive tournament: every pair is ordered by a directed path
    n = 5
    g = PdeGraph(
        node_types=tuple(f"m{i + 1}" for i in range(n)),
        features=np.zeros((n, 2), dtype=np.float32),
        edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)),
        d_f=2, n_patches=0, n_mod=n,
    )
    assert (connectivity_mask(g) == 0).all()


def _random_dag(rng: np.random.Generator, n: int) -> PdeGraph:
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.12:
                edges.append((i, j))
    return PdeGraph(
        node_types=tuple(f"m{i + 1}" for i in range(n)),
        features=np.zeros((n, 2), dtype=np.float32),
        edges=tuple(edges),
        d_f=2, n_patches=0, n_mod=n,
    )


def _bfs_oracle(graph: PdeGraph, cap: int = 14):
    n = graph.n_nodes
    adj = [[] for _ in range(n)]
    for s, d in set(graph.edges):
        adj[s].append(d)
    phi = np.full((n, n), cap, dtype=np.int64)
    reach = np.zeros((n, n), dtype=bool)
    for src in range(n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        for node, d in dist.items():
            phi[src, node] = min(d, cap)
            reach[src, node] = True
    return phi, reach


def test_phi_and_mask_match_bfs_oracle_on_fuzzed_dags():
    rng = np.random.default_rng(42)
    for _ in range(120):
        g = _random_dag(rng, int(rng.integers(2, 40)))
        phi, reach = _bfs_oracle(g)
        assert np.array_equal(shortest_paths(g), phi)
        expected_mask = np.where(reach | reach.T, 0.0, MASK_SENTINEL)
        assert np.array_equal(connectivity_mask(g), expected_mask)
        feats = graph_features(g)
        assert np.array_equal(feats.phi, phi) and np.array_equal(feats.mask, expected_mask)


# --- compiled-graph invariants over fuzzed ASTs -----------------------------

def _coef_strategy():
    return st.one_of(
        st.just(Coef(None, 1.5)),
        st.just(Coef("a", -2.0)),
        st.just(Coef("b", 0.25)),
    )


def _ast_strategy(depth: int):
    if depth == 0:
        return st.one_of(st.just(U), _coef_strategy())
    sub = _ast_strategy(depth - 1)
    return st.one_of(
        st.just(U),
        _coef_strategy(),
        st.builds(Dt, sub),
        st.builds(Dx, sub),
        st.builds(Pow, st.just(U), st.integers(1, 9)),
        st.builds(lambda cs: Mul(tuple(cs)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda cs: Add(tuple(cs)), st.lists(sub, min_size=2, max_size=3)),
    )


@given(_ast_strategy(3))
@settings(max_examples=80, deadline=None)
def test_compiled_graphs_are_acyclic_with_degree_rules(expr):
    ast = Eq0(Add((Dt(U), expr)))
    g = compile_pde(ast, _ic(8), d_f=4, n_patches=2, n_mod=2)
    feats = graph_features(g)
    n = g.n_nodes
    # acyclic: some topological order consumes all edges
    indeg = feats.indeg.copy()
    ready = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    adj = [[] for _ in range(n)]
    for s, d in g.edges:
        adj[s].append(d)
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in adj[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    assert seen == n

    for i, t in enumerate(g.node_types):
        if t == "uf":
            assert feats.indeg[i] == g.n_mod  # only modulation edges point in
        elif t == "sc":
            assert feats.indeg[i] == 0
        elif t in ("dt", "dx", "neg", "square", "eq0", "ic"):
            assert feats.indeg[i] == 1
        elif t in ("add", "mul"):
            assert feats.indeg[i] >= 2
        elif t.startswith("p"):
            src = [s for s, d in g.edges if d == i]
            assert src == [g.node_types.index("ic")]
        elif t.startswith("m"):
            dst = [d for s, d in g.edges if s == i]
            assert dst == [g.node_types.index("uf")]


# --- canonical form ---------------------------------------------------------

def test_canonical_symbol_invariance():
    a = compile_pde(parse_pde("dt(u) + c*dx(u) = 0", {"c": 0.3}), _ic())
    b = compile_pde(parse_pde("b*dx(v) + dt(v) = 0", {"b": 0.3}), _ic())
    assert canonical_form(a)[1] == canonical_form(b)[1]
    assert canonical_form(a)[0] == canonical_form(b)[0]


def test_canonical_child_order_invariance():
    a = compile_pde(parse_pde("dt(u) + c*dx(u) = 0", {"c": 0.3}), _ic(8), d_f=4, n_patches=2, n_mod=1)
    b = compile_pde(parse_pde("c*dx(u) + dt(u) = 0", {"c": 0.3}), _ic(8), d_f=4, n_patches=2, n_mod=1)
    assert canonical_form(a)[1] == canonical_form(b)[1]


def _permute(graph: PdeGraph, perm: np.ndarray) -> PdeGraph:
    inv = np.argsort(perm)
    return PdeGraph(
        node_types=tuple(graph.node_types[inv[i]] for i in range(graph.n_nodes)),
        features=graph.features[inv],
        edges=tuple((int(perm[s]), int(perm[d])) for s, d in graph.edges),
        d_f=graph.d_f, n_patches=graph.n_patches, n_mod=graph.n_mod,
    )


def test_canonical_invariant_under_relabelling():
    g = compile_pde(parse_pde("dt(u) + dx(u^2) - nu*dxx(u) = 0", {"nu": 0.1}),
                    _ic(8), d_f=4, n_patches=2, n_mod=2)
    blob, digest = canonical_form(g)
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(g.n_nodes)
        blob2, digest2 = canonical_form(_permute(g, perm))
        assert blob2 == blob and digest2 == digest


def test_canonical_distinguishes_different_graphs():
    adv = compile_pde(ADVECTION, _ic())
    burgers = compile_pde(parse_pde("dt(u) + dx(u^2) - nu*dxx(u) = 0", {"nu": 0.1}), _ic())
    assert canonical_form(adv)[1] != canonical_form(burgers)[1]
    # same structure, different coefficient value -> different features -> hash
    adv2 = compile_pde(parse_pde("dt(u) + c*dx(u) = 0", {"c": 0.31}), _ic())
    assert canonical_form(adv)[1] != canonical_form(adv2)[1]


def test_canonical_matches_brute_force_on_small_graphs():
    # exhaustive check: every relabelling of a <= 8 core-node graph hashes alike
    import itertools

    g = compile_pde(parse_pde("dt(u) + c*u = 0", {"c": 1.0}), _ic(4), d_f=2, n_patches=2, n_mod=1)
    blob, digest = canonical_form(g)
    n = g.n_nodes
    rng = np.random.default_rng(1)
    perms = [rng.permutation(n) for _ in range(20)]
    for perm in perms:
        assert canonical_form(_permute(g, np.asarray(perm)))[1] == digest


def test_graph_json_export():
    import json

    g = compile_pde(ADVECTION, _ic(8), d_f=4, n_patches=2, n_mod=1)
    doc = json.loads(graph_to_json(g, include_matrices=True))
    assert len(doc["nodes"]) == g.n_nodes
    assert len(doc["edges"]) == len(g.edges)
    assert len(doc["phi"]) == g.n_nodes
    assert doc["nodes"][0]["feature"] == [0.0] * 4


_GOLDEN_TEXTS = [
    ("dt(u) = 0", {}),
    ("dt(u) + c*dx(u) = 0", {"c": 0.3}),
    ("dt(u) + dx(u^2) - nu*dxx(u) = 0", {"nu": 0.1}),
    ("dt(w) + a*w^11 - (b + 0.5)*dx(w*w) = 0", {"a": 1.5, "b": 2.0}),
    ("dt(u) + z*u^3 + c*dx(u) - (z + y)*u = 0", {"z": 0.0, "c": 0.7, "y": 0.0}),
    ("dt(u) + k*dx(dt(u)) + 2*u*k - 3 = 0", {"k": -1.25}),
    ("dt(u) + dx(c*u) + c = 0", {"c": 1.0}),
    ("u + c*u^2 = 0", {"c": 2.0}),
]
_GOLDEN_BAD = [
    ("dt(u) + dx(v) = 0", {}),
    ("dt(u) + a*v = 0", {}),
    ("u + v = 0", {}),
    ("dt(u) + c*u = 0", {}),
    ("dt(u) + c*u = ", {"c": 1.0}),
]


def _golden_digest() -> str:
    """sha256 over compiled graphs, parses, binds and prints, in a fixed order."""
    from pdedag.datagen import ast_from_coefficients, sample_pde
    from pdedag.inverse import build_inverse_template

    h = hashlib.sha256()

    def add_graph(ast):
        g = compile_pde(ast, _ic(64), d_f=8, n_patches=8, n_mod=3)
        h.update("|".join(g.node_types).encode())
        h.update(g.features.tobytes())
        h.update(repr(g.edges).encode())

    rng = np.random.default_rng(2024)
    for _ in range(40):
        coeffs = sample_pde(rng)
        add_graph(ast_from_coefficients(coeffs))
        template, names = build_inverse_template(coeffs, search_nu=True)
        bound = dsl.bind_coefficients(template, {n: 0.25 * (i + 1) for i, n in enumerate(names)})
        h.update(repr((template, names, dsl.unbound_names(template), bound)).encode())
        add_graph(bound)
    for text, coefficients in _GOLDEN_TEXTS:
        ast = parse_pde(text, coefficients)
        h.update(repr((ast, dsl.print_pde(ast), dsl.validate_ast(ast).violations)).encode())
        add_graph(ast)
    for text, coefficients in _GOLDEN_TEXTS + _GOLDEN_BAD:
        for unbound in (False, True):
            try:
                ast = parse_pde(text, coefficients, allow_unbound=unbound)
                h.update(repr((ast, dsl.unbound_names(ast))).encode())
            except ValueError as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()[:16]


def test_compiler_and_dsl_outputs_are_golden():
    # a changed prefix means changed graphs or ASTs, and with them changed
    # model inputs, checkpoints' meaning and inversion results
    assert _golden_digest() == "fae6a1c685b1394f"
