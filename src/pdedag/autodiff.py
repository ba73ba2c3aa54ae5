"""Dense-tensor reverse-mode differentiation engine.

Graphs are built define-by-run: every primitive returns a ``Tensor`` that
remembers its parents and an adjoint closure, and ``backward`` replays the
record in reverse topological order. Two numerical conventions matter
throughout:

* attention masking uses the large negative sentinel ``MASK_SENTINEL``
  instead of a literal ``-inf``; after the stabilised softmax those
  positions carry exactly zero weight and exactly zero gradient;
* reductions over "node" axes (softmax denominators, attention context
  sums) accumulate in value-sorted order, which makes the encoder output
  bit-identical under any permutation of the graph nodes.

``sequential_mode`` additionally routes matmuls through a fixed-loop-order
einsum kernel so that results do not depend on how a batch was partitioned.
``no_grad`` records nothing: every primitive returns a plain ``Tensor``
without parents or adjoint, so forward-only passes (evaluation, inference,
the inversion objective) free their intermediates as soon as they are used.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

MASK_SENTINEL = -1e9

_CHECK_FINITE = True
_SEQUENTIAL = False
_NO_GRAD = False


class ShapeMismatch(ValueError):
    pass


class NonFiniteDetected(FloatingPointError):
    pass


class NotScalarLoss(ValueError):
    pass


@contextlib.contextmanager
def _switch(name: str, value: bool):
    """Set the module flag ``name`` for the block; the previous value comes
    back on exit, also on an exception, so blocks nest."""
    prev = globals()[name]
    globals()[name] = value
    try:
        yield
    finally:
        globals()[name] = prev


def sequential_mode(enabled: bool = True):
    """Force batch-partition-independent (and slower) matmul kernels."""
    return _switch("_SEQUENTIAL", enabled)


def finite_checks(enabled: bool):
    """Turn the non-finite check on every primitive output on or off."""
    return _switch("_CHECK_FINITE", enabled)


def no_grad():
    """Record no tape: outputs carry no parents and no adjoint, whatever the inputs."""
    return _switch("_NO_GRAD", True)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def backward(self):
        """Populate ``.grad`` on every reachable tensor with requires_grad."""
        if self.data.size != 1:
            raise NotScalarLoss(f"loss must be scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar; all heavy lifting lives in the module functions.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return Tensor(arr)


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if _CHECK_FINITE and not np.all(np.isfinite(arr)):
        raise NonFiniteDetected(f"non-finite output of {op}")


def _make(data, parents, backward, op: str) -> Tensor:
    _finite_or_raise(data, op)
    if _NO_GRAD:
        return Tensor(data)
    requires = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=requires,
        _parents=tuple(parents) if requires else (),
        _backward=backward if requires else None,
    )


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward, "mul")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, -g)

    return _make(-a.data, (a,), backward, "neg")


def _mm(a: np.ndarray, b: np.ndarray, stable: bool) -> np.ndarray:
    if stable or _SEQUENTIAL:
        return np.einsum("...ij,...jk->...ik", a, b, optimize=False)
    return np.matmul(a, b)


def matmul(a, b, stable: bool = False) -> Tensor:
    """Matrix product over the last two axes; batch dims must match exactly.

    ``stable=True`` fixes the accumulation order, making every output row
    independent of the number of rows in the batch.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeMismatch(f"matmul batch dims {a.data.shape} @ {b.data.shape}")
    out_data = _mm(a.data, b.data, stable)

    def backward(g):
        _accum(a, _mm(g, np.swapaxes(b.data, -1, -2), stable))
        _accum(b, _mm(np.swapaxes(a.data, -1, -2), g, stable))

    return _make(out_data, (a, b), backward, "matmul")


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), backward, "reduce_sum")


def mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(reduce_sum(a, axis=axis), np.asarray(1.0 / n, dtype=a.dtype))


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, 2.0 * a.data * g)

    return _make(a.data * a.data, (a,), backward, "square")


def sqrt(a) -> Tensor:
    """Square root with a guarded adjoint: subgradient 0 at exactly zero."""
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):  # negatives surface as NonFiniteDetected
        out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * 0.5 / np.maximum(out_data, 1e-12))

    return _make(out_data, (a,), backward, "sqrt")


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0), (a,), backward, "relu")


def gelu(a) -> Tensor:
    a = as_tensor(a)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    cdf = 0.5 * (1.0 + erf(a.data * inv_sqrt2))
    out_data = a.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * a.data * a.data) / np.sqrt(2.0 * np.pi)
        _accum(a, g * (cdf + a.data * pdf))

    return _make(out_data, (a,), backward, "gelu")


def leaky_relu_clip(a, slope: float = 0.2, lo: float = -256.0, hi: float = 256.0) -> Tensor:
    """Leaky ReLU followed by clipping; kink subgradients take the left branch.

    ``max(x, slope*x)`` is the leaky ReLU only for ``0 < slope <= 1``.
    """
    if not 0.0 < slope <= 1.0:
        raise ValueError(f"slope must lie in (0, 1], got {slope}")
    a = as_tensor(a)
    x = a.data
    out_data = np.asarray(slope * x)  # a 0-d product is a scalar; in-place ops need an array
    np.maximum(x, out_data, out=out_data)
    np.clip(out_data, lo, hi, out=out_data)

    def backward(g):
        pos = x > 0
        grad = ((x > lo / slope) & ~pos) * x.dtype.type(slope)
        grad += pos
        grad *= x <= hi
        grad *= g
        _accum(a, grad)

    return _make(out_data, (a,), backward, "leaky_relu_clip")


def gather(table, index) -> Tensor:
    """Row lookup ``table[index]`` with a scatter-add adjoint."""
    table = as_tensor(table)
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ShapeMismatch("gather index must be integral")
    out_data = table.data[idx]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        _accum(table, acc)

    return _make(out_data, (table,), backward, "gather")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out_data, tuple(tensors), backward, "concat")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward, "transpose")


def _sorted_sum(values: np.ndarray, axis: int) -> np.ndarray:
    # Summing in value order makes the result independent of the input order,
    # which is what gives the encoder bit-exact permutation equivariance.
    return np.sort(values, axis=axis).sum(axis=axis)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax whose inputs may contain additive-bias sentinel entries.

    Positions at or below ``MASK_SENTINEL / 2`` underflow to exactly zero
    weight and therefore receive exactly zero gradient.
    """
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = np.expand_dims(_sorted_sum(e, axis), axis)
    out_data = e / denom

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _make(out_data, (a,), backward, "softmax")


def attn_context(weights, values) -> Tensor:
    """Attention application ``weights @ values`` with order-canonical sums.

    weights: (..., n, n) rows of attention probabilities.
    values:  (..., n, d).
    """
    weights, values = as_tensor(weights), as_tensor(values)
    w, v = weights.data, values.data
    if w.shape[-1] != v.shape[-2]:
        raise ShapeMismatch(f"attn_context {w.shape} x {v.shape}")
    prods = w[..., :, :, None] * v[..., None, :, :]
    out_data = _sorted_sum(prods, axis=-2)

    def backward(g):
        _accum(weights, np.matmul(g, np.swapaxes(v, -1, -2)))
        _accum(values, np.matmul(np.swapaxes(w, -1, -2), g))

    return _make(out_data, (weights, values), backward, "attn_context")


def layer_norm(a, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean, unit variance (no affine part)."""
    a = as_tensor(a)
    m = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - m
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out_data = centered * inv_std
    n = a.data.shape[-1]

    def backward(g):
        g_sum = g.sum(axis=-1, keepdims=True)
        gy_sum = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(a, inv_std * (g - g_sum / n - out_data * gy_sum / n))

    return _make(out_data, (a,), backward, "layer_norm")


def finite_diff_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central differences.

    ``f`` must be a pure function building a fresh scalar graph from ``x``.
    Intended for float64 tensors with inputs kept away from activation kinks.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x.grad = None
    loss = f(x)
    loss.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x).data)
        flat[i] = orig - eps
        lo = float(f(x).data)
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * eps)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
