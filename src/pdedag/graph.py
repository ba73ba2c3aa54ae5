"""Lower PDE ASTs into heterogeneous computational DAGs.

Node semantics: ``uf`` is the unknown field, ``sc`` a scalar coefficient
(feature = value repeated d_f times), ``ic`` the initial condition, and the
remaining core types are the operations. Edges run operand -> operation,
except for the bookkeeping edges uf -> ic, ic -> p_i (patch nodes carrying
d_f-long slices of the IC grid) and m_l -> uf (modulation nodes whose final
encoder embeddings condition the decoder).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import dsl
from .autodiff import MASK_SENTINEL

CORE_TYPES = ("uf", "sc", "ic", "dt", "dx", "add", "mul", "neg", "square", "eq0")
# graph node type of each AST node type; Pow is expanded before lowering
_KINDS = {dsl.Var: "uf", dsl.Coef: "sc", dsl.Dt: "dt", dsl.Dx: "dx", dsl.Add: "add",
          dsl.Mul: "mul", dsl.Neg: "neg", dsl.Square: "square", dsl.Eq0: "eq0"}
PATH_CAP = 14


class BadGridSize(ValueError):
    pass


class InvalidAst(ValueError):
    pass


@dataclass(frozen=True)
class PdeGraph:
    node_types: tuple[str, ...]
    features: np.ndarray          # (n_nodes, d_f) float32
    edges: tuple[tuple[int, int], ...]
    d_f: int
    n_patches: int
    n_mod: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_types)

    @property
    def mod_indices(self) -> list[int]:
        return [self.node_types.index(f"m{i + 1}") for i in range(self.n_mod)]

    def type_ids(self) -> np.ndarray:
        """Integer type ids: core types first, then p1..pN, then m1..mL."""
        ids = np.empty(self.n_nodes, dtype=np.int64)
        for i, t in enumerate(self.node_types):
            if t in CORE_TYPES:
                ids[i] = CORE_TYPES.index(t)
            elif t.startswith("p"):
                ids[i] = len(CORE_TYPES) + int(t[1:]) - 1
            else:
                ids[i] = len(CORE_TYPES) + self.n_patches + int(t[1:]) - 1
        return ids


@dataclass(frozen=True)
class GraphFeatures:
    phi: np.ndarray      # (n, n) int, shortest paths clamped to PATH_CAP
    mask: np.ndarray     # (n, n) float, 0 where connected else MASK_SENTINEL
    indeg: np.ndarray
    outdeg: np.ndarray


def expand_power(exponent: int, base: dsl.Expr | None = None) -> dsl.Expr:
    """Rewrite ``base ** exponent`` over {mul, square, identity}.

    One square chain per set bit of the exponent, combined by a single
    product, e.g. 11 = 2^3 + 2^1 + 2^0 gives ((b^2)^2)^2 * b^2 * b.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    if base is None:
        base = dsl.Var("u")
    chain = [base]
    while (1 << len(chain)) <= exponent:
        chain.append(dsl.Square(chain[-1]))
    factors = [chain[b] for b in range(exponent.bit_length() - 1, -1, -1) if exponent >> b & 1]
    return factors[0] if len(factors) == 1 else dsl.Mul(tuple(factors))


def prune_zero_terms(node: dsl.Expr) -> dsl.Expr:
    """Drop terms whose coefficient is exactly zero.

    ``None`` stands for an identically zero subtree: it drops out of a sum
    and zeroes every other operation over it, a product included.
    """

    def prune(n: dsl.Expr) -> dsl.Expr | None:
        kids = dsl.children(n)
        if not kids:
            return None if isinstance(n, dsl.Coef) and n.value == 0.0 else n
        kept = [prune(c) for c in kids]
        if isinstance(n, dsl.Add):
            kept = [c for c in kept if c is not None]
            if len(kept) == 1:
                return kept[0]
        if not kept or any(c is None for c in kept):
            return None
        return dsl.with_children(n, kept)

    body = prune(node)
    if body is None:
        what = "equation" if isinstance(node, dsl.Eq0) else "expression"
        raise InvalidAst(f"{what} is identically zero after dropping zero terms")
    return body


class _Builder:
    def __init__(self, d_f: int):
        self.d_f = d_f
        self.types: list[str] = []
        self.features: list[np.ndarray] = []
        self.edges: list[tuple[int, int]] = []
        self.memo: dict = {}

    def emit(self, kind: str, feature: np.ndarray, children: tuple[int, ...]) -> int:
        key = (kind, feature.tobytes(), tuple(sorted(children)))
        if key in self.memo:
            return self.memo[key]
        node_id = len(self.types)
        self.types.append(kind)
        self.features.append(feature)
        for c in children:
            self.edges.append((c, node_id))
        self.memo[key] = node_id
        return node_id

    def zeros(self) -> np.ndarray:
        return np.zeros(self.d_f, dtype=np.float32)


def compile_pde(
    ast: dsl.Eq0,
    ic_values: np.ndarray,
    d_f: int = 16,
    n_patches: int = 16,
    n_mod: int = 8,
) -> PdeGraph:
    """Build the computational DAG for an equation and its IC samples.

    Structurally identical subexpressions share a node (the unknown field in
    particular fans out to every operation that references it), and power
    nodes are expanded through ``expand_power`` before lowering.
    """
    ic_values = np.asarray(ic_values, dtype=np.float32)
    if ic_values.ndim != 1 or ic_values.size != n_patches * d_f:
        raise BadGridSize(f"ic grid has {ic_values.size} points, expected {n_patches} * {d_f}")
    report = dsl.validate_ast(ast)
    if not report.ok:
        raise InvalidAst("; ".join(report.violations))
    ast = prune_zero_terms(ast)

    b = _Builder(d_f)

    def lower(node: dsl.Expr) -> int:
        if isinstance(node, dsl.Pow):
            return lower(expand_power(node.exponent, node.child))
        if isinstance(node, dsl.Coef):
            if node.value is None:
                raise InvalidAst(f"unbound coefficient {node.name!r}; bind values before compiling")
            feature = np.full(d_f, node.value, dtype=np.float32)
        else:
            feature = b.zeros()
        return b.emit(_KINDS[type(node)], feature, tuple(lower(c) for c in dsl.children(node)))

    lower(ast)

    uf_key = [k for k in b.memo if k[0] == "uf"]
    if not uf_key:
        raise InvalidAst("equation lost its field variable after dropping zero terms")
    uf_id = b.memo[uf_key[0]]
    ic_id = b.emit("ic", b.zeros(), (uf_id,))
    for i in range(n_patches):
        patch = ic_values[i * d_f : (i + 1) * d_f]
        b.emit(f"p{i + 1}", patch.copy(), (ic_id,))
    for lidx in range(n_mod):
        m_id = b.emit(f"m{lidx + 1}", b.zeros(), ())
        b.edges.append((m_id, uf_id))

    return PdeGraph(
        node_types=tuple(b.types),
        features=np.stack(b.features),
        edges=tuple(b.edges),
        d_f=d_f,
        n_patches=n_patches,
        n_mod=n_mod,
    )


def _adjacency(graph: PdeGraph) -> np.ndarray:
    a = np.zeros((graph.n_nodes, graph.n_nodes), dtype=bool)
    for s, d in graph.edges:
        a[s, d] = True
    return a


_UNREACHED = np.iinfo(np.int64).max


def _path_lengths(graph: PdeGraph) -> np.ndarray:
    """Uncapped directed shortest-path lengths from one all-sources BFS;
    ``_UNREACHED`` where no path exists, 0 on the diagonal."""
    n = graph.n_nodes
    a = _adjacency(graph).astype(np.int64)
    dist = np.full((n, n), _UNREACHED, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=bool)
    d = 0
    while frontier.any():
        d += 1
        frontier = ((frontier.astype(np.int64) @ a) > 0) & (dist == _UNREACHED)
        dist[frontier] = d
    return dist


def _mask(dist: np.ndarray) -> np.ndarray:
    reach = dist != _UNREACHED
    return np.where(reach | reach.T, 0.0, MASK_SENTINEL)


def shortest_paths(graph: PdeGraph, cap: int = PATH_CAP) -> np.ndarray:
    """Directed shortest-path matrix clamped to ``cap``; unreachable pairs
    get ``cap`` and the diagonal is 0."""
    return np.minimum(_path_lengths(graph), cap)


def connectivity_mask(graph: PdeGraph) -> np.ndarray:
    """0 where a directed path exists in either direction, else the
    MASK_SENTINEL stand-in for -inf."""
    return _mask(_path_lengths(graph))


def graph_features(graph: PdeGraph, cap: int = PATH_CAP) -> GraphFeatures:
    n = graph.n_nodes
    indeg = np.zeros(n, dtype=np.int64)
    outdeg = np.zeros(n, dtype=np.int64)
    for s, d in graph.edges:
        outdeg[s] += 1
        indeg[d] += 1
    dist = _path_lengths(graph)
    return GraphFeatures(phi=np.minimum(dist, cap), mask=_mask(dist), indeg=indeg, outdeg=outdeg)


# --- canonicalisation -------------------------------------------------------

def _feature_digest(row: np.ndarray) -> bytes:
    return hashlib.blake2b(row.tobytes(), digest_size=8).digest()


def _refine(colors: list, in_nbrs, out_nbrs) -> list[int]:
    n = len(colors)
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in in_nbrs[i])),
                tuple(sorted(colors[j] for j in out_nbrs[i])),
            )
            for i in range(n)
        ]
        mapping = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        new = [mapping[signatures[i]] for i in range(n)]
        if new == colors:
            return new
        colors = new


def _canonical_bytes(graph: PdeGraph, order: list[int]) -> bytes:
    perm = {node: rank for rank, node in enumerate(order)}
    parts = []
    for node in order:
        parts.append(graph.node_types[node].encode())
        parts.append(b"|")
        parts.append(graph.features[node].tobytes())
        parts.append(b";")
    parts.append(b"#")
    for s, d in sorted((perm[s], perm[d]) for s, d in graph.edges):
        parts.append(struct.pack("<HH", s, d))
    return b"".join(parts)


def canonical_form(graph: PdeGraph) -> tuple[bytes, int]:
    """Canonical byte string plus 64-bit hash, invariant under node
    relabelling and Add/Mul child reordering.

    Iterative refinement seeded by (type, degrees, feature digest); remaining
    ties are broken by individualisation, taking the lexicographically
    smallest serialisation, so equality holds exactly for isomorphic graphs.
    """
    n = graph.n_nodes
    in_nbrs = [[] for _ in range(n)]
    out_nbrs = [[] for _ in range(n)]
    for s, d in graph.edges:
        out_nbrs[s].append(d)
        in_nbrs[d].append(s)
    indeg = [len(in_nbrs[i]) for i in range(n)]
    outdeg = [len(out_nbrs[i]) for i in range(n)]
    seeds = [
        (graph.node_types[i], indeg[i], outdeg[i], _feature_digest(graph.features[i]))
        for i in range(n)
    ]
    seed_map = {sig: rank for rank, sig in enumerate(sorted(set(seeds)))}
    colors = [seed_map[s] for s in seeds]

    def canonical_from(colors: list[int]) -> bytes:
        colors = _refine(colors, in_nbrs, out_nbrs)
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        tied = sorted((c, members) for c, members in classes.items() if len(members) > 1)
        if not tied:
            order = sorted(range(n), key=lambda i: colors[i])
            return _canonical_bytes(graph, order)
        _, members = tied[0]
        fresh = max(colors) + 1
        best = None
        for m in members:
            branch = list(colors)
            branch[m] = fresh
            candidate = canonical_from(branch)
            if best is None or candidate < best:
                best = candidate
        return best

    blob = canonical_from(colors)
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return blob, int.from_bytes(digest, "little")


def graph_to_json(graph: PdeGraph, include_matrices: bool = False) -> str:
    """Serialise a graph (optionally with phi/mask for debugging)."""
    doc = {
        "nodes": [
            {"id": i, "type": graph.node_types[i], "feature": [float(v) for v in graph.features[i]]}
            for i in range(graph.n_nodes)
        ],
        "edges": [[s, d] for s, d in graph.edges],
    }
    if include_matrices:
        feats = graph_features(graph)
        doc["phi"] = feats.phi.tolist()
        doc["mask"] = feats.mask.tolist()
    return json.dumps(doc, sort_keys=True)
