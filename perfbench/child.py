"""One workload process: set up, run timed rounds, check, report as JSON.

Started by run.py with BLAS and OpenMP pinned to one thread through the
environment. Modes:

  setup     set up only and report the set-up time;
  measure   set up, then run rounds for --seconds (or exactly --rounds);
  traced    as measure, with every pdedag layer hooked from the start.

The last stdout line is one JSON object. Set-up time runs from --t0, the
parent's monotonic clock just before it started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    """Thread count reported by the OpenBLAS bundled with numpy."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    raise RuntimeError(f"no OpenBLAS thread-count symbol in {libdir}")


def environment() -> dict:
    import platform

    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "pins": {k: os.environ.get(k) for k in PIN_VARS},
    }


def run(workload: str, seed: int, work: Path, mode: str = "measure", seconds: float = 0.0,
        rounds: int = 0, size=None, t0: float | None = None, spans_path: Path | None = None) -> dict:
    """Run one workload in this process; see the module docstring."""
    # imported here: pdedag is on sys.path only once main() has put src there
    import calibration
    import layers
    import workloads as wl

    setup, run_round, kernels = wl.WORKLOADS[workload]
    st = wl.State(seed=seed, work=work, size=size or wl.FULL)
    tracer = layers.make_tracer() if mode == "traced" else None
    out: dict = {"workload": workload, "mode": mode, "correct": True, "errors": []}
    done: list = []
    failed = 0
    with tracer.active() if tracer is not None else contextlib.nullcontext():
        setup(st)
        if t0 is not None:
            out["setup_raw_s"] = time.monotonic() - t0
        started = time.monotonic()
        # machine speed before the first round and after every round
        speeds = [calibration.speed(kernels)]
        while mode != "setup":
            try:
                done.append(run_round(st, len(done)))
                speeds.append(calibration.speed(kernels))
            except Exception as exc:  # report the failure; the run is not correct
                traceback.print_exc(file=sys.stderr)
                failed = 1
                out["correct"] = False
                out["errors"].append(f"round {len(done)}: {type(exc).__name__}: {exc}")
                break
            elapsed = time.monotonic() - started
            # without a round count, stop before a round of average length
            # would end past the time budget
            if len(done) == rounds or (not rounds and elapsed + elapsed / len(done) > seconds):
                break

    # each round is scaled by the mean speed measured on either side of it
    speed = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
    out.update(
        rounds=len(done),
        attempted=sum(r.attempted for r in done) + failed,
        failed=failed,
        speeds=speeds,
        timed_s=sum(r.timed_s * s for r, s in zip(done, speed)),
        digests=[st.digest] + [r.digest for r in done],
    )
    if t0 is not None:
        out["setup_s"] = out["setup_raw_s"] * speeds[0]
    if done:
        out["ops_raw"] = [r.ops / r.ops_s for r in done]
        out["aux_raw"] = [r.aux / r.aux_s for r in done]
        out["ops_per_s"] = statistics.median(v / s for v, s in zip(out["ops_raw"], speed))
        out["aux_per_s"] = statistics.median(v / s for v, s in zip(out["aux_raw"], speed))
    if tracer is not None:
        values, out["missing"] = layers.compute(tracer)
        out["per_layer"] = {name: [values.get(name, layers.MISSING), unit]
                            for name, unit in layers.metric_units().items()
                            if name != "trace_overhead_frac"}
        out["bypass_violations"] = layers.bypass_violations(workload, tracer)
        if out["bypass_violations"]:
            out["correct"] = False
        if spans_path is not None:
            tracer.to_jsonl(spans_path)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    env = environment()  # imports numpy, so after the pins in os.environ
    pinned = env["blas_threads"] == 1 and all(v == "1" for v in env["pins"].values())
    if not pinned:
        print(f"BLAS pin did not take: {env}", file=sys.stderr)
        return 3
    result = run(args.workload, args.seed, args.work, args.mode, args.seconds, args.rounds,
                 t0=args.t0, spans_path=args.spans)
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
