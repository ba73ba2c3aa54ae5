import hashlib

import numpy as np
import pytest

from pdedag import autodiff as ad
from pdedag.config import DESK_MODEL, ModelConfig
from pdedag.dsl import parse_pde
from pdedag.model import compile_for_model, grid_coords, init_model_params, model_forward, predict_grid


def _names_digest(cfg: ModelConfig) -> tuple[int, str]:
    names = [n for n, _ in init_model_params(cfg, seed=0).named_tensors()]
    return len(names), hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]


def test_registry_names_and_order_are_the_checkpoint_layout():
    # sha256 prefixes of the parameter layout that existing checkpoints use
    assert _names_digest(DESK_MODEL) == (195, "f41f35b639ba4542")
    assert _names_digest(ModelConfig(final_layernorm=False)) == (193, "af597c937722cc2b")


def test_grid_coords_layout():
    coords = grid_coords(np.array([0, 3, 100]), np.array([0, 128, 255]), n_x=256)
    assert coords.dtype == np.float64
    assert np.array_equal(coords, [[0.0, -1.0], [0.03, 0.0], [1.0, -1.0 + 2.0 * 255 / 256]])


def test_predict_grid_equals_model_forward_on_the_full_grid(small_cfg, sine_ic):
    params = init_model_params(small_cfg, seed=4)
    ast = parse_pde("dt(u) + c*dx(u^2) - nu*dxx(u) = 0", {"c": 0.7, "nu": 0.05})
    ic = sine_ic(small_cfg.n_x)
    n_t, n_x = 7, small_cfg.n_x
    with ad.sequential_mode():
        grid = predict_grid(ast, ic, params, small_cfg, n_t=n_t, chunk=23)
        coords = grid_coords(*np.divmod(np.arange(n_t * n_x), n_x), n_x)
        full = model_forward(compile_for_model(ast, ic, small_cfg), coords, params, small_cfg).data
    assert grid.shape == (n_t, n_x)
    assert grid.tobytes() == full.reshape(n_t, n_x).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_forward_under_no_grad_is_tape_free_and_bit_identical(dtype, sine_ic):
    params = init_model_params(DESK_MODEL, seed=1, dtype=dtype)
    graph = compile_for_model(parse_pde("dt(u) + c*dx(u^2) = 0", {"c": 0.4}), sine_ic(DESK_MODEL.n_x), DESK_MODEL)
    coords = grid_coords(*np.divmod(np.arange(0, 101 * 256, 97), 256), 256)
    taped = model_forward(graph, coords, params, DESK_MODEL, dtype=dtype)
    with ad.no_grad():
        free = model_forward(graph, coords, params, DESK_MODEL, dtype=dtype)
    assert taped._backward is not None
    assert free._backward is None and free._parents == ()
    assert all(t.requires_grad for t in params.tensors())
    assert free.data.tobytes() == taped.data.tobytes()
