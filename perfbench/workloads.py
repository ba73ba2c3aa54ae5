"""The three benchmark workloads: set-up, one timed round, output checks.

Every call into the program goes through a ``pdedag`` module attribute
(``training.train``, not a name imported from it), so that the traced run's
hooks see the same calls the untraced run makes.

Each round returns the operations it completed and the seconds spent in the
program's timed calls, plus a digest of its outputs: the traced run must
reproduce the untraced run's digests bit for bit.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pdedag import datagen, dataio, decoder, dsl, encoder, graph, inverse, model, training
from pdedag.config import DESK_MODEL, PsoConfig, SolverConfig, TrainConfig

# Dataset seeds are fixed, so the solver work, which sets the cost, is the
# same whatever the workload seed. Seed 8's first 7 draws hold 5 accepted
# samples, a non_finite rejection (step 2113) and a linf rejection (step 675):
# a short round that still hits both rejection reasons. Seed 1's first draws
# are all accepted; draw 0 has four unknowns in its inverse template.
GEN_SEED = 8
CORPUS_SEED = 1
NOISE = 0.01


class CheckFailed(AssertionError):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Size:
    solver: SolverConfig = SolverConfig()
    gen_count: int = 5           # accepted samples per corpus_gen round
    train_samples: int = 2       # corpus size of train_fit
    train_epochs: int = 2        # epochs per train_fit round
    points_per_sample: int = TrainConfig().points_per_sample
    swarm: int = PsoConfig().swarm_size
    pso_iterations: int = 1      # swarm updates per invert_pso round
    subsample: int = 4096


FULL = Size()
# Same code paths at a size a unit test can afford.
TINY = Size(solver=SolverConfig(n_t=6), gen_count=2, train_samples=1, train_epochs=1,
            points_per_sample=512, swarm=4, subsample=256)


@dataclass
class Round:
    ops: int            # operations the end-to-end rate counts
    ops_s: float        # seconds of the calls that did them
    aux: int            # operations of the secondary rate
    aux_s: float
    attempted: int      # operations in the sense of attempted/failed
    timed_s: float      # seconds of every timed call in the round
    digest: str


@dataclass
class State:
    seed: int
    work: Path
    size: Size
    digest: str = ""
    data: dict = field(default_factory=dict)


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _make_corpus(st: State, name: str, count: int):
    """Generate and read back a set-up corpus; its digest joins the fidelity check."""
    out = st.work / name
    datagen.generate_dataset(out, count=count, base_seed=CORPUS_SEED, solver_cfg=st.size.solver, workers=1)
    st.digest = _dir_digest(out)
    return dataio.read_dataset(out, validate_checksums=True).samples


# --- corpus_gen ---------------------------------------------------------------

def setup_corpus_gen(st: State) -> None:
    pass


def round_corpus_gen(st: State, r: int) -> Round:
    out = st.work / f"corpus-{r}"
    count = st.size.gen_count
    t0 = time.perf_counter()
    datagen.generate_dataset(out, count=count, base_seed=GEN_SEED, solver_cfg=st.size.solver, workers=1)
    seconds = time.perf_counter() - t0

    bundle = dataio.read_dataset(out, validate_checksums=True)
    manifest = bundle.manifest
    check(len(bundle) == count == manifest["accepted"], "accepted sample count")
    check(manifest["draws"] == manifest["accepted"] + manifest["rejected"], "draws == accepted + rejected")
    for s in bundle.samples:
        check(bool(np.all(np.isfinite(s.solution))), f"draw {s.draw_index}: non-finite solution")
        check(float(np.max(np.abs(s.solution))) <= st.size.solver.reject_linf, f"draw {s.draw_index}: max|u| bound")
        check(np.array_equal(s.solution[0], s.ic), f"draw {s.draw_index}: row 0 differs from the IC")
    digest = _dir_digest(out)
    shutil.rmtree(out)
    draws = int(manifest["draws"])
    return Round(ops=count, ops_s=seconds, aux=draws, aux_s=seconds, attempted=draws,
                 timed_s=seconds, digest=digest)


# --- train_fit ----------------------------------------------------------------

def setup_train_fit(st: State) -> None:
    st.data["samples"] = _make_corpus(st, "train-data", st.size.train_samples)
    st.data["params"] = model.init_model_params(DESK_MODEL, seed=st.seed)


def round_train_fit(st: State, r: int) -> Round:
    samples, params = st.data["samples"], st.data["params"]
    cfg = TrainConfig(epochs=st.size.train_epochs, test_fraction=0.0, seed=st.seed * 1000 + r,
                      points_per_sample=st.size.points_per_sample)
    t0 = time.perf_counter()
    # rounds continue from the previous round's parameters
    result = training.train(samples, DESK_MODEL, cfg, out_dir=st.work / f"fit-{r}", initial=params)
    t1 = time.perf_counter()
    scores = training.evaluate(result.params, DESK_MODEL, samples)
    t2 = time.perf_counter()

    losses = [row["train_loss"] for row in result.curve]
    check(len(losses) == cfg.epochs and all(np.isfinite(losses)), "epoch losses finite")
    loaded, _, _, _ = dataio.load_checkpoint(result.checkpoint_dir)
    flat = result.params.to_flat()
    check(loaded.to_flat().tobytes() == flat.tobytes(), "checkpoint round-trips bit for bit")
    check(all(np.isfinite(scores["per_sample"])), "eval relative L2 finite")
    shutil.rmtree(st.work / f"fit-{r}")

    n = len(samples)
    points = min(cfg.points_per_sample, samples[0].n_t * samples[0].n_x)
    steps = cfg.epochs * -(-n // cfg.batch_size) * max(1, cfg.steps_per_sample)
    digest = hashlib.sha256(repr((result.final_train_loss, scores["per_sample"])).encode() + flat.tobytes())
    return Round(ops=cfg.epochs * n * points, ops_s=t1 - t0,
                 aux=n * samples[0].n_t * samples[0].n_x, aux_s=t2 - t1,
                 attempted=steps + n, timed_s=t2 - t0, digest=digest.hexdigest())


# --- invert_pso ---------------------------------------------------------------

def setup_invert_pso(st: State) -> None:
    sample = _make_corpus(st, "observed", 1)[0]
    template, _ = inverse.build_inverse_template(sample.coefficients)
    rng = np.random.default_rng([st.seed, 7])
    observation = inverse.add_noise(sample.solution.astype(np.float64), NOISE, rng)
    st.data["problem"] = inverse.InverseProblem(
        template=template, observation=observation, noise_level=NOISE,
        subsample=st.size.subsample, subsample_seed=st.seed)
    st.data["params"] = model.init_model_params(DESK_MODEL, seed=st.seed)


def _fresh_objective(problem, params, values: dict) -> float:
    """The PSO objective recomputed from the public pieces, at ``values``."""
    n_t, n_x = problem.observation.shape
    flat = np.random.default_rng(problem.subsample_seed).choice(n_t * n_x, size=problem.subsample, replace=False)
    t_idx, x_idx = np.divmod(flat, n_x)
    coords = np.stack([problem.dt_data * t_idx.astype(np.float64),
                       -1.0 + 2.0 * x_idx.astype(np.float64) / n_x], axis=1)
    ast = dsl.bind_coefficients(problem.template, values)
    g = model.compile_for_model(ast, np.asarray(problem.ic, dtype=np.float32), DESK_MODEL)
    feats = graph.graph_features(g, cap=DESK_MODEL.path_cap)
    mu = encoder.encode(g, params.encoder, DESK_MODEL, feats=feats)
    pred = decoder.decode(mu, coords, params.decoder).data
    return training.relative_l2(pred, problem.observation[t_idx, x_idx])


def round_invert_pso(st: State, r: int) -> Round:
    problem, params = st.data["problem"], st.data["params"]
    pso = PsoConfig(swarm_size=st.size.swarm, iterations=st.size.pso_iterations, seed=st.seed * 1000 + r)
    t0 = time.perf_counter()
    report = inverse.recover_coefficients(problem, params, DESK_MODEL, pso)
    seconds = time.perf_counter() - t0

    trace = report.trace
    check(len(trace) == pso.iterations + 1, "one gbest entry per iteration")
    check(all(b <= a for a, b in zip(trace, trace[1:])), "gbest trace never increases")
    check(all(pso.bounds_lo <= v <= pso.bounds_hi for v in report.values.values()), "recovered values within bounds")
    check(_fresh_objective(problem, params, report.values) == report.objective,
          "objective matches a fresh compile -> encode -> decode")
    evals = pso.swarm_size * len(trace)
    digest = hashlib.sha256(repr((trace, sorted(report.values.items()))).encode()).hexdigest()
    return Round(ops=evals, ops_s=seconds, aux=len(trace), aux_s=seconds, attempted=evals,
                 timed_s=seconds, digest=digest)


# name -> (set-up, round, calibration kernels shaped like the hot loop)
WORKLOADS = {
    "corpus_gen": (setup_corpus_gen, round_corpus_gen, ("solver_step",)),
    "train_fit": (setup_train_fit, round_train_fit, ("solver_step", "decoder_layer")),
    "invert_pso": (setup_invert_pso, round_invert_pso, ("decoder_layer",)),
}
