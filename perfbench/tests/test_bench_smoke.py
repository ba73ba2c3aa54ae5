"""Tiny-size runs of every workload, untraced and traced."""

import json
from pathlib import Path

import pytest

import child
import layers
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_traced_run_reproduces_untraced_outputs(workload, tmp_path):
    runs = {}
    for mode in ("measure", "traced"):
        work = tmp_path / mode
        work.mkdir()
        runs[mode] = child.run(workload, 3, work, mode, rounds=2, size=workloads.TINY)
    plain, traced = runs["measure"], runs["traced"]
    assert plain["correct"] and traced["correct"], plain["errors"] + traced["errors"]
    assert plain["rounds"] == traced["rounds"] == 2
    assert plain["digests"] == traced["digests"]
    assert plain["ops_per_s"] > 0 and plain["aux_per_s"] > 0
    assert traced["missing"] == [] and traced["bypass_violations"] == []
    expected = set(layers.metric_units()) - {"trace_overhead_frac"}
    assert set(traced["per_layer"]) == expected
    calls = traced["per_layer"]
    if workload == "corpus_gen":
        assert calls["encoder.calls"][0] == calls["decoder.decode_ms.n"][0] == 0
        assert calls["autodiff.matmul.calls"][0] == 0
    if workload == "invert_pso":
        assert calls["autodiff.backward_ms.n"][0] == 0
        assert calls["inverse.evals"][0] == 2 * workloads.TINY.swarm * (workloads.TINY.pso_iterations + 1)
    if workload == "train_fit":
        assert calls["autodiff.backward_ms.n"][0] == calls["training.steps"][0] > 0


def test_failed_check_marks_the_run_incorrect(tmp_path, monkeypatch):
    def no_bounds(*args, **kwargs):
        raise workloads.CheckFailed("forced")

    monkeypatch.setattr(workloads, "check", no_bounds)
    out = child.run("invert_pso", 0, tmp_path, "measure", rounds=1, size=workloads.TINY)
    assert not out["correct"] and out["failed"] == 1 and "forced" in out["errors"][0]


def test_blas_thread_count_is_readable():
    assert child.blas_threads() >= 1


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.metric_units().items())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOADS)
    mapping = json.loads((BENCH / "layer_map.json").read_text())
    prefixes = [p for entry in mapping["layers"] for p in entry["metrics"]]
    for m in doc["per_layer"]:
        assert any(m["name"].startswith(p) for p in prefixes), m["name"]
    assert set(mapping["end_to_end"]) == {m["name"] for m in doc["end_to_end"]}


def test_calibration_speed_is_relative_to_reference():
    import calibration

    for kernels in (("solver_step",), ("decoder_layer",), ("solver_step", "decoder_layer")):
        assert 0.05 < calibration.speed(kernels, seconds=0.02) < 20.0
