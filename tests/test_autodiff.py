import numpy as np
import pytest

from pdedag import autodiff as ad
from pdedag.autodiff import (MASK_SENTINEL, NonFiniteDetected, NotScalarLoss,
                             ShapeMismatch, Tensor, finite_diff_check,
                             sequential_mode)

RNG = np.random.default_rng(1234)


def _t(shape, scale=1.0, shift=0.0):
    return Tensor(scale * RNG.standard_normal(shape) + shift, requires_grad=True)


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ad.reduce_sum(x).backward()
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_half_square_gives_x():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    loss = ad.reduce_sum(x * x) * 0.5
    loss.backward()
    assert np.allclose(x.grad, x.data)


def test_not_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalarLoss):
        (x * x).backward()


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_non_finite_detection():
    with pytest.raises(NonFiniteDetected):
        ad.sqrt(Tensor(np.array([-1.0])))


def test_sentinel_is_finite_and_allowed():
    out = ad.softmax(Tensor(np.array([0.0, MASK_SENTINEL])))
    assert np.array_equal(out.data, np.array([1.0, 0.0]))


def test_masked_softmax_gradient_exactly_zero():
    x = Tensor(np.array([0.3, MASK_SENTINEL, 1.2]), requires_grad=True)
    loss = ad.reduce_sum(ad.softmax(x) * np.array([1.0, 5.0, -2.0]))
    loss.backward()
    assert x.grad[1] == 0.0
    assert x.grad[0] != 0.0


def test_layer_norm_of_constant_vector_is_zero():
    out = ad.layer_norm(Tensor(np.full((3, 5), 2.5)))
    assert np.allclose(out.data, 0.0)


def test_leaky_relu_clip_values():
    x = Tensor(np.array([-1.0, 300.0, 0.5, -2000.0]))
    out = ad.leaky_relu_clip(x, 0.2, -256.0, 256.0)
    assert np.array_equal(out.data, np.array([-0.2, 256.0, 0.5, -256.0]))


def test_leaky_relu_clip_kink_subgradients_take_left_branch():
    x = Tensor(np.array([0.0, 256.0, -1280.0]), requires_grad=True)
    ad.reduce_sum(ad.leaky_relu_clip(x, 0.2, -256.0, 256.0)).backward()
    assert np.array_equal(x.grad, np.array([0.2, 1.0, 0.0]))


def _leaky_relu_clip_where_forward(x, slope, lo, hi):
    return np.clip(np.where(x >= 0, x, slope * x), lo, hi)


def _leaky_relu_clip_where_grad(x, slope, lo, hi):
    grad = np.where(x > hi, 0.0, np.where(x > 0, 1.0, np.where(x > lo / slope, slope, 0.0)))
    return grad.astype(x.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_clip_matches_the_where_formulas_bit_for_bit(dtype):
    slope, lo, hi = 0.2, -256.0, 256.0
    kink = dtype(lo / slope)
    edges = np.array([0.0, -0.0, hi, -hi, lo, -lo, kink, np.inf, -np.inf, np.nan], dtype=dtype)
    specials = np.concatenate([edges, np.nextafter(edges, dtype(np.inf)), np.nextafter(edges, dtype(-np.inf))])
    x = (np.random.default_rng(9).standard_normal((4096, 32)) * 600.0).astype(dtype)
    x.ravel()[: specials.size] = specials
    g = np.random.default_rng(10).standard_normal(x.shape).astype(dtype)
    t = Tensor(x, requires_grad=True)
    with ad.finite_checks(False):
        out = ad.leaky_relu_clip(t, slope, lo, hi)
        ad.reduce_sum(out * g).backward()
    assert out.dtype == dtype and t.grad.dtype == dtype
    assert out.data.tobytes() == _leaky_relu_clip_where_forward(x, slope, lo, hi).tobytes()
    assert t.grad.tobytes() == (g * _leaky_relu_clip_where_grad(x, slope, lo, hi)).tobytes()


@pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan])
def test_leaky_relu_clip_rejects_slopes_outside_zero_one(slope):
    with pytest.raises(ValueError):
        ad.leaky_relu_clip(Tensor(np.ones(3)), slope)


def test_no_grad_records_no_tape_and_keeps_requires_grad():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3))
    taped = ad.relu(ad.matmul(x, w))
    with ad.no_grad():
        free = ad.relu(ad.matmul(x, w))
    assert taped._backward is not None and taped._parents
    assert free._backward is None and free._parents == () and not free.requires_grad
    assert w.requires_grad
    assert free.data.tobytes() == taped.data.tobytes()


def test_no_grad_nests_and_is_restored_after_an_exception():
    assert not ad._NO_GRAD
    with ad.no_grad():
        with ad.no_grad():
            assert ad._NO_GRAD
        assert ad._NO_GRAD
    assert not ad._NO_GRAD
    with pytest.raises(NonFiniteDetected):
        with ad.no_grad():
            ad.sqrt(Tensor(np.array([-1.0])))
    assert not ad._NO_GRAD
    w = Tensor(np.ones(2), requires_grad=True)
    assert (w * w)._backward is not None


def test_determinism_bit_identical():
    def run():
        x = Tensor(RNG_FIXED.standard_normal((4, 4)), requires_grad=True)
        y = ad.reduce_sum(ad.gelu(ad.matmul(x, x)) * 0.7)
        y.backward()
        return y.data.copy(), x.grad.copy()

    global RNG_FIXED
    RNG_FIXED = np.random.default_rng(7)
    a_val, a_grad = run()
    RNG_FIXED = np.random.default_rng(7)
    b_val, b_grad = run()
    assert np.array_equal(a_val, b_val) and np.array_equal(a_grad, b_grad)


def test_sequential_mode_rows_independent_of_batch():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 32))
    w = rng.standard_normal((32, 32))
    with sequential_mode():
        full = ad.matmul(Tensor(x), Tensor(w)).data
        rows = [ad.matmul(Tensor(x[i : i + 1]), Tensor(w)).data[0] for i in range(64)]
    assert all(np.array_equal(full[i], rows[i]) for i in range(64))


def test_gather_scatter_adjoint():
    table = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
    idx = np.array([0, 2, 2, 4])
    out = ad.gather(table, idx)
    ad.reduce_sum(out * np.arange(12.0).reshape(4, 3)).backward()
    expected = np.zeros((5, 3))
    np.add.at(expected, idx, np.arange(12.0).reshape(4, 3))
    assert np.allclose(table.grad, expected)


def test_broadcast_unbroadcast():
    a = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(RNG.standard_normal((3,)), requires_grad=True)
    ad.reduce_sum(a * b).backward()
    assert b.grad.shape == (3,)
    assert np.allclose(b.grad, a.data.sum(axis=0))


# --- finite-difference correctness for every primitive ----------------------

def _fd_case(name, fn, x):
    err = finite_diff_check(fn, x, eps=1e-5)
    assert err < 1e-5, f"{name}: max rel error {err:.2e}"


@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "neg", "matmul", "reduce_sum", "mean", "square",
    "sqrt", "relu", "gelu", "leaky_relu_clip", "gather", "concat", "reshape",
    "transpose", "softmax", "attn_context", "layer_norm",
])
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    other = Tensor(rng.standard_normal((4, 5)))
    proj = rng.standard_normal((4, 5))

    if name in ("add", "sub", "mul"):
        x = _t((4, 5))
        op = getattr(ad, name)
        _fd_case(name, lambda t: ad.reduce_sum(op(t, other) * proj), x)
    elif name == "neg":
        _fd_case(name, lambda t: ad.reduce_sum(ad.neg(t) * proj), _t((4, 5)))
    elif name == "matmul":
        w = Tensor(rng.standard_normal((5, 3)))
        proj43 = rng.standard_normal((4, 3))
        _fd_case(name, lambda t: ad.reduce_sum(ad.matmul(t, w) * proj43), _t((4, 5)))
        w2 = _t((5, 3))
        a = Tensor(rng.standard_normal((4, 5)))
        _fd_case(name + "_rhs", lambda t: ad.reduce_sum(ad.matmul(a, t) * np.ones((4, 3))), w2)
    elif name == "reduce_sum":
        _fd_case(name, lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=1) * np.array([1.0, -2.0, 3.0, 0.5])), _t((4, 5)))
    elif name == "mean":
        _fd_case(name, lambda t: ad.mean(t) * 2.0, _t((4, 5)))
    elif name == "square":
        _fd_case(name, lambda t: ad.reduce_sum(ad.square(t) * proj), _t((4, 5), shift=2.0))
    elif name == "sqrt":
        _fd_case(name, lambda t: ad.reduce_sum(ad.sqrt(t) * proj), _t((4, 5), scale=0.2, shift=3.0))
    elif name == "relu":
        x = _t((4, 5), shift=0.5)
        x.data[np.abs(x.data) < 1e-3] += 0.1  # keep away from the kink
        _fd_case(name, lambda t: ad.reduce_sum(ad.relu(t) * proj), x)
    elif name == "gelu":
        _fd_case(name, lambda t: ad.reduce_sum(ad.gelu(t) * proj), _t((4, 5)))
    elif name == "leaky_relu_clip":
        x = _t((4, 5), scale=20.0)
        x.data[np.abs(x.data) < 1e-2] += 0.5
        _fd_case(name, lambda t: ad.reduce_sum(ad.leaky_relu_clip(t, 0.2, -25.0, 25.0) * proj), x)
    elif name == "gather":
        idx = np.array([0, 3, 3, 1])
        _fd_case(name, lambda t: ad.reduce_sum(ad.gather(t, idx) * np.ones((4, 5))), _t((6, 5)))
    elif name == "concat":
        other2 = Tensor(rng.standard_normal((2, 5)))
        proj65 = rng.standard_normal((6, 5))
        _fd_case(name, lambda t: ad.reduce_sum(ad.concat([t, other2], axis=0) * proj65), _t((4, 5)))
    elif name == "reshape":
        proj210 = rng.standard_normal((2, 10))
        _fd_case(name, lambda t: ad.reduce_sum(ad.reshape(t, (2, 10)) * proj210), _t((4, 5)))
    elif name == "transpose":
        proj54 = rng.standard_normal((5, 4))
        _fd_case(name, lambda t: ad.reduce_sum(ad.transpose(t, (1, 0)) * proj54), _t((4, 5)))
    elif name == "softmax":
        _fd_case(name, lambda t: ad.reduce_sum(ad.softmax(t) * proj), _t((4, 5)))
    elif name == "attn_context":
        v = Tensor(rng.standard_normal((5, 3)))
        w = _t((4, 5), scale=0.3)
        proj43b = rng.standard_normal((4, 3))
        _fd_case(name, lambda t: ad.reduce_sum(ad.attn_context(t, v) * proj43b), w)
        v2 = _t((5, 3))
        a = Tensor(rng.random((4, 5)))
        _fd_case(name + "_values", lambda t: ad.reduce_sum(ad.attn_context(a, t) * np.ones((4, 3))), v2)
    elif name == "layer_norm":
        _fd_case(name, lambda t: ad.reduce_sum(ad.layer_norm(t) * proj), _t((4, 5)))


def test_finite_diff_check_quadratic_is_tight():
    x = _t((6,))
    q = np.diag(np.arange(1.0, 7.0))

    def f(t):
        return ad.reduce_sum(t * ad.matmul(ad.reshape(t, (1, 6)), q)) * 0.5

    assert finite_diff_check(f, x, eps=1e-5) < 1e-7
