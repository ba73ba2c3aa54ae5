"""Span arithmetic, the tail-percentile rule and hook install/restore."""

import inspect
import sys

import pytest

import layers
import tracer as tr


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children():
    spans = [
        span("x.a", 0.0, 10.0, -1),
        span("y.b", 1.0, 3.0, 0),
        span("x.c", 4.0, 8.0, 0),
        span("y.d", 5.0, 7.0, 2),
    ]
    kids = tr.children(spans)
    assert tr.self_time(spans, kids, 0) == pytest.approx(4.0)
    assert tr.self_time(spans, kids, 2) == pytest.approx(2.0)
    # same-layer children count as self time; only y.* spans are subtracted
    assert tr.self_time(spans, kids, 0, same_layer=True) == pytest.approx(6.0)


def test_covered_merges_overlaps_and_clips():
    assert tr._covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert tr._covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert tr._covered([], 0.0, 1.0) == 0.0


def test_outermost_counts_recursion_once():
    spans = [span("dsl.bind", 0, 4, -1), span("dsl.bind", 1, 2, 0), span("dsl.bind", 5, 6, -1)]
    assert tr.outermost(spans, "dsl.bind") == [0, 2]


@pytest.mark.parametrize("n, pct", [
    (10000, 99.9), (1000, 99.0), (2000, 99.0), (200, 95.0), (100, 90.0),
    (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (1, None), (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tr.tail_percentile(n) == pct


def test_summarize():
    assert tr.summarize(list(range(100, 0, -1))) == (50, 90, 100)
    assert tr.summarize([5.0, 1.0]) == (1.0, 1.0, 2)  # no tail: p50 stands in
    assert tr.summarize([]) == (0.0, 0.0, 0)


def _snapshot():
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "pdedag" or name.startswith("pdedag."):
            for attr, obj in vars(mod).items():
                state[(name, attr)] = obj
                if inspect.isclass(obj) and obj.__module__ == name:
                    for meth, fn in vars(obj).items():
                        state[(name, attr, meth)] = fn
    return state


def test_hooks_cover_import_copies_and_restore_everything():
    import pdedag
    from pdedag import model, training
    from pdedag.config import DESK_MODEL

    before = _snapshot()
    t = layers.make_tracer()
    with t.active():
        assert training.predict_grid is model.predict_grid is pdedag.predict_grid
        assert training.predict_grid is not before[("pdedag.model", "predict_grid")]
        model.init_model_params(DESK_MODEL, seed=0)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {rec[tr.NAME] for rec in t.spans}
    assert "model.init_model_params" in names
    assert "encoder.init_encoder_params" in names  # called through model's import copy


def test_missing_target_and_broken_extractor_are_reported():
    import importlib

    from pdedag import spectral

    modules = [importlib.import_module(f"pdedag.{m}") for m in layers.LAYERS if m != "graph"]

    def boom(tracer, args, kwargs, out):
        raise KeyError("extractor out of date")

    t = tr.Tracer("pdedag", modules, {**layers.EXTRACTORS, layers.SOLVE: boom})
    with t.active():
        spectral.solve_pde(type("C", (), {"c": [[0.0] * 4, [0.0] * 4], "nu": 0.1})(),
                           __import__("numpy").zeros(256))
    values, missing = layers.compute(t)
    assert "graph.compile_ms" in missing and "graph.nodes" in missing
    assert "spectral.steps" in missing and "spectral.solve_ms" in missing
    assert "dataio.write_ms" in values and "graph.compile_ms" not in values
