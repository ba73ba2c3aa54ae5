"""pdedag benchmark: one workload per invocation, the result as JSON.

    python3 perfbench/run.py --workload corpus_gen --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload runs in fresh child processes
(perfbench/child.py) with BLAS and OpenMP pinned to one thread.

--trace 0 reports the end-to-end metrics. Two set-up-only processes and the
measuring process give three set-up times, whose median is ``setup_s``.
Rates and set-up time are scaled to a reference machine speed measured next
to them (see calibration.py); the wall-clock values are printed as well.
--trace 1 reports the per-layer metrics: an untraced process runs rounds for
half of --seconds, then a traced process runs the same rounds with every
pdedag layer hooked; the two must produce bit-identical outputs.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
exit code is non-zero when a check fails, a BLAS pin did not take, or the
program cannot be run; a run that could not measure prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus_gen", "train_fit", "invert_pso")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {**os.environ, **PINS}

    def child(self, mode: str, **extra) -> dict:
        """Run perfbench/child.py to completion and return its JSON result."""
        work = self.work / f"{mode}-{time.monotonic_ns()}"
        work.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--work", str(work)]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("time limit reached before the run finished")
        try:
            proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} process exceeded the time limit") from None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunFailed(f"{mode} process exited with code {proc.returncode}")
        return json.loads(lines[-1])


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    setups = [runner.child("setup") for _ in range(SETUP_RUNS - 1)]
    main = runner.child("measure", seconds=seconds)
    if "ops_per_s" not in main:
        raise RunFailed(f"no round completed: {main['errors']}")
    metrics = {
        "ops_per_s": (main["ops_per_s"], "ops/s"),
        "aux_per_s": (main["aux_per_s"], "ops/s"),
        "setup_s": (statistics.median([r["setup_s"] for r in setups + [main]]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    return metrics, main, setups + [main]


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    plain = runner.child("measure", seconds=seconds / 2)
    if not plain["rounds"]:
        raise RunFailed(f"no round completed: {plain['errors']}")
    spans = ROOT / ".perfbench" / f"spans-{runner.workload}.jsonl"
    traced = runner.child("traced", rounds=plain["rounds"], spans=spans)
    if traced["digests"] != plain["digests"]:
        traced["correct"] = False
        traced["errors"].append("traced outputs differ from untraced outputs")
    if traced["missing"]:
        print("metrics of missing hook targets, reported as -1: " + " ".join(traced["missing"]))
    metrics = {name: tuple(pair) for name, pair in traced["per_layer"].items()}
    metrics["trace_overhead_frac"] = (traced["timed_s"] / plain["timed_s"] - 1.0, "frac")
    return metrics, traced, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pdedag").is_dir():
        print(f"pdedag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, ROOT / ".perfbench" / f"work-{os.getpid()}")
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, main_run, runs = measure(runner, args.seconds)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    correct = all(r["correct"] for r in runs)
    print("machine speed: " + " ".join(f"{v:.3f}" for v in main_run["speeds"]))
    if not args.trace:
        print("wall-clock rates per round: ops/s " + " ".join(f"{v:.5g}" for v in main_run["ops_raw"])
              + " | aux/s " + " ".join(f"{v:.5g}" for v in main_run["aux_raw"])
              + f" | setup {main_run['setup_raw_s']:.4g} s")
    print("env " + json.dumps(main_run["env"], sort_keys=True))
    for err in (e for r in runs for e in r["errors"]):
        print(f"check failed: {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
