"""Per-layer metrics of pdedag, computed from the spans of a traced run.

Each metric names the hook targets (span names) it is computed from. When a
target no longer exists in pdedag, or its extractor failed, the metric is
reported as MISSING instead of failing the run.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

import tracer as tr

PACKAGE = "pdedag"
LAYERS = ("spectral", "datagen", "dataio", "dsl", "graph", "autodiff",
          "encoder", "decoder", "model", "training", "inverse")
MISSING = -1.0

# Every autodiff function that records a tape node through ``_make``.
PRIMITIVES = ("add", "sub", "mul", "neg", "matmul", "reduce_sum", "square", "sqrt",
              "relu", "gelu", "leaky_relu_clip", "gather", "concat", "reshape",
              "transpose", "softmax", "attn_context", "layer_norm")
REPORTED_OPS = ("matmul", "add", "mul", "leaky_relu_clip", "relu", "gelu",
                "softmax", "attn_context", "layer_norm", "gather")
# Spans under which a recorded tape node is never replayed.
FORWARD_ONLY = ("training.evaluate", "inverse.recover_coefficients")

# (metric, span name, layer self time?, name of the sample-count metric)
TIMINGS = (
    ("spectral.solve_ms", "spectral.SpectralSolver.solve", False, None),
    ("datagen.draw_self_ms", "datagen.generate_sample", True, None),
    ("dataio.write_ms", "dataio.write_dataset", False, None),
    ("dataio.read_ms", "dataio.read_dataset", False, None),
    ("dsl.bind_ms", "dsl.bind_coefficients", False, None),
    ("graph.compile_ms", "graph.compile_pde", False, None),
    ("graph.features_ms", "graph.graph_features", False, None),
    ("encoder.encode_ms", "encoder.encode", False, "encoder.calls"),
    ("decoder.decode_ms", "decoder.decode", False, None),
    ("autodiff.backward_ms", "autodiff.Tensor.backward", False, None),
    ("training.adam_ms", "training.Adam.step", False, "training.steps"),
    ("training.loss_ms", "training.nrmse_loss", False, None),
    ("model.forward_ms", "model.model_forward", False, None),
    ("model.predict_grid_ms", "model.predict_grid", False, None),
    ("inverse.pso_self_ms", "inverse.recover_coefficients", True, None),
)

SOLVE = "spectral.SpectralSolver.solve"
# (metric, unit, hook targets) of everything that is not a TIMINGS entry
OTHER = (
    ("spectral.steps", "count", (SOLVE,)),
    ("spectral.wasted_steps_frac", "frac", (SOLVE,)),
    ("spectral.accept_frac", "frac", (SOLVE,)),
    ("spectral.rejected_linf", "count", (SOLVE,)),
    ("spectral.rejected_non_finite", "count", (SOLVE,)),
    ("dataio.bytes_written", "B", ("dataio.write_dataset",)),
    ("graph.nodes", "count", ("graph.compile_pde",)),
    ("decoder.points", "count", ("decoder.decode",)),
    ("decoder.ns_per_point", "ns", ("decoder.decode",)),
    ("inverse.evals", "count", ("inverse.recover_coefficients",)),
    # per-op times are totals over the run: one op serves many shapes, so
    # per-call percentiles would mix unlike calls
    *((f"autodiff.{op}.{field}", unit, (f"autodiff.{op}",))
      for op in REPORTED_OPS
      for field, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"),
                          ("bytes_out", "B-computed"))),
    ("autodiff.matmul.gflop", "GFLOP-computed", ("autodiff.matmul",)),
    ("autodiff.f64_bytes_frac", "frac", tuple(f"autodiff.{op}" for op in PRIMITIVES)),
    ("autodiff.tape_nodes_forward_only", "count",
     tuple(f"autodiff.{op}" for op in PRIMITIVES) + FORWARD_ONLY),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units: dict[str, str] = {}
    for metric, _, _, count_name in TIMINGS:
        units[metric] = "ms"
        units[f"{metric}.tail"] = "ms"
        units[count_name or f"{metric}.n"] = "count"
    for metric, unit, _ in OTHER:
        units[metric] = unit
    units["trace_overhead_frac"] = "frac"
    return units


# --- extractors: facts about a call that its span alone does not hold -------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_info(tracer, args, kwargs, out):
    reason = getattr(out, "reason", None)
    if reason is not None:
        return {"steps": int(out.step), "outcome": reason}
    solver = args[0]
    return {"steps": (solver.config.n_t - 1) * solver.steps_per_snapshot, "outcome": "accepted"}


def _written_bytes(tracer, args, kwargs, out):
    return {"bytes": sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())}


def _primitive(op: str):
    def extract(tracer, args, kwargs, out):
        data = out.data
        info = {"bytes": int(data.nbytes), "f64": data.dtype == np.float64,
                "tape": out._backward is not None}
        if op == "matmul":
            inner = np.shape(getattr(args[0], "data", args[0]))[-1]
            info["flop"] = 2 * int(data.size) * int(inner)
        if out._backward is not None:
            out._backward = tracer.wrap(f"autodiff.{op}.backward", out._backward)
        return info

    return extract


EXTRACTORS = {
    SOLVE: _solve_info,
    "dataio.write_dataset": _written_bytes,
    "graph.compile_pde": lambda tracer, args, kwargs, out: {"nodes": int(out.n_nodes)},
    "decoder.decode": lambda tracer, args, kwargs, out: {"points": len(_arg(args, kwargs, 1, "coords"))},
    "inverse.recover_coefficients": lambda tracer, args, kwargs, out: {
        "evals": int(_arg(args, kwargs, 3, "pso_cfg").swarm_size) * len(out.trace)},
    **{f"autodiff.{op}": _primitive(op) for op in PRIMITIVES},
}


def make_tracer() -> tr.Tracer:
    import importlib

    modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
    return tr.Tracer(PACKAGE, modules, EXTRACTORS)


# --- metrics ------------------------------------------------------------------

def compute(tracer: tr.Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values (without trace_overhead_frac) and the names
    of the metrics that are MISSING."""
    spans = tracer.spans
    kids = tr.children(spans)
    usable = tracer.installed - tracer.broken
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[tr.NAME], []).append(i)

    def infos(name):
        return [spans[i][tr.INFO] for i in by_name.get(name, ()) if spans[i][tr.INFO] is not None]

    def total_ms(name):
        return 1e3 * sum(spans[i][tr.END] - spans[i][tr.START] for i in by_name.get(name, ()))

    values: dict[str, float] = {}
    missing: list[str] = []
    for metric, target, same_layer, count_name in TIMINGS:
        names = (metric, f"{metric}.tail", count_name or f"{metric}.n")
        if target not in usable:
            missing.extend(names)
            continue
        samples = [1e3 * tr.self_time(spans, kids, i, same_layer=True) if same_layer
                   else 1e3 * (spans[i][tr.END] - spans[i][tr.START])
                   for i in tr.outermost(spans, target)]
        values.update(zip(names, tr.summarize(samples)))

    solves = infos(SOLVE)
    steps = sum(s["steps"] for s in solves)
    wasted = sum(s["steps"] for s in solves if s["outcome"] != "accepted")
    points = sum(s["points"] for s in infos("decoder.decode"))
    prims = [info for op in PRIMITIVES for info in infos(f"autodiff.{op}")]
    prim_bytes = sum(p["bytes"] for p in prims)
    forward_only = sum(
        1 for op in PRIMITIVES for i in by_name.get(f"autodiff.{op}", ())
        if (spans[i][tr.INFO] or {}).get("tape") and tr.has_ancestor(spans, i, FORWARD_ONLY))
    other = {
        "spectral.steps": steps,
        "spectral.wasted_steps_frac": wasted / steps if steps else 0.0,
        "spectral.accept_frac": (sum(s["outcome"] == "accepted" for s in solves) / len(solves)
                                 if solves else 0.0),
        "spectral.rejected_linf": sum(s["outcome"] == "linf" for s in solves),
        "spectral.rejected_non_finite": sum(s["outcome"] == "non_finite" for s in solves),
        "dataio.bytes_written": sum(s["bytes"] for s in infos("dataio.write_dataset")),
        "graph.nodes": (statistics.median(s["nodes"] for s in infos("graph.compile_pde"))
                        if by_name.get("graph.compile_pde") else 0),
        "decoder.points": points,
        "decoder.ns_per_point": 1e6 * total_ms("decoder.decode") / points if points else 0.0,
        "inverse.evals": sum(s["evals"] for s in infos("inverse.recover_coefficients")),
        "autodiff.matmul.gflop": 1e-9 * sum(s["flop"] for s in infos("autodiff.matmul")),
        "autodiff.f64_bytes_frac": (sum(p["bytes"] for p in prims if p["f64"]) / prim_bytes
                                    if prim_bytes else 0.0),
        "autodiff.tape_nodes_forward_only": forward_only,
    }
    for op in REPORTED_OPS:
        name = f"autodiff.{op}"
        other[f"{name}.fwd_ms"] = total_ms(name)
        other[f"{name}.bwd_ms"] = total_ms(f"{name}.backward")
        other[f"{name}.calls"] = len(by_name.get(name, ()))
        other[f"{name}.bytes_out"] = sum(s["bytes"] for s in infos(name))
    for metric, _, targets in OTHER:
        if all(t in usable for t in targets):
            values[metric] = other[metric]
        else:
            missing.append(metric)
    return values, missing


def bypass_violations(workload: str, tracer: tr.Tracer) -> list[str]:
    """Layers a workload is predicted never to call, and calls it made."""
    layers = {rec[tr.NAME].split(".", 1)[0] for rec in tracer.spans}
    names = {rec[tr.NAME] for rec in tracer.spans}
    out = []
    if workload == "corpus_gen":
        out += [f"{layer} called" for layer in ("encoder", "decoder", "autodiff") if layer in layers]
    if workload == "invert_pso" and "autodiff.Tensor.backward" in names:
        out.append("autodiff.Tensor.backward called")
    return out
