"""Recover PDE coefficients from a noisy observation with a trained model.

Expects a run directory RUN holding the dataset in RUN/data and the
checkpoint in RUN/checkpoint, as the CLI writes them:

    pdedag gen --count 8 --out RUN/data
    pdedag train --data RUN/data --out RUN --epochs 200
    python scripts/invert_demo.py --run RUN --sample 0 --noise 0.001
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdedag.config import PsoConfig
from pdedag.dataio import load_checkpoint, read_dataset
from pdedag.inverse import (InverseProblem, add_noise, build_inverse_template,
                            recover_coefficients)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run", type=Path, required=True)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--swarm", type=int, default=32)
    parser.add_argument("--iterations", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    params, model_cfg, _, _ = load_checkpoint(args.run / "checkpoint")
    bundle = read_dataset(args.run / "data")
    sample = bundle.samples[args.sample]
    template, names = build_inverse_template(sample.coefficients)
    print(f"searching {len(names)} coefficients: {names}")

    rng = np.random.default_rng(args.seed)
    observation = add_noise(sample.solution.astype(np.float64), args.noise, rng)
    problem = InverseProblem(template=template, observation=observation,
                             noise_level=args.noise, subsample=2048)
    pso = PsoConfig(swarm_size=args.swarm, iterations=args.iterations, seed=args.seed)
    report = recover_coefficients(problem, params, model_cfg, pso)

    print(f"objective {report.objective:.5f}")
    for name in names:
        truth = float(sample.coefficients.c[int(name[1]), int(name[2])])
        print(f"  {name}: recovered {report.values[name]:+.4f}  truth {truth:+.4f}")


if __name__ == "__main__":
    main()
