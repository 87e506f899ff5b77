#!/usr/bin/env python3
"""Quickstart: size a two-stage OTA with MA-Opt in a couple of minutes.

Runs the full pipeline end to end at a small scale:

1. build the two-stage OTA sizing task (16 parameters, the 8 constraints
   of the paper's Eq. 7, minimize power),
2. simulate a shared random initial set on the built-in SPICE engine,
3. run MA-Opt (3 actors, shared elite set, near-sampling),
4. report the best design found and its measured performance.

Usage:
    python examples/quickstart.py [--sims 40] [--init 30] [--seed 0]
"""

import argparse

import numpy as np

from repro import MAOptConfig, MAOptimizer, TwoStageOTA
from repro.circuits.ota import build_ota
from repro.experiments.config import TUNED_MAOPT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sims", type=int, default=40,
                        help="simulation budget after initialization")
    parser.add_argument("--init", type=int, default=30,
                        help="random initial samples")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    task = TwoStageOTA(fidelity="fast")
    print(task.describe())
    print()

    config = MAOptConfig.from_preset(
        "ma-opt", seed=args.seed,
        **TUNED_MAOPT,
    )
    optimizer = MAOptimizer(task, config)
    print(f"running MA-Opt: {args.init} init + {args.sims} optimized sims ...")
    result = optimizer.run(n_sims=args.sims, n_init=args.init)

    trace = result.best_fom_trace()
    print(f"\nbest FoM: {trace[0]:.4f} (init) -> {trace[-1]:.4f} (final)")
    print(f"met all specs: {result.success}")

    best = result.best_feasible() or result.best_record()
    params = task.space.denormalize(best.x)
    print("\nbest design found:")
    for name, value in params.items():
        unit = task.space[name].unit
        print(f"  {name:4s} = {value:8.3f} {unit}")
    print("\nmeasured performance:")
    for name, value in zip(task.metric_names, best.metrics):
        print(f"  {name:10s} = {value:.4g}")

    print("\nnetlist of the best design:")
    print(build_ota(params).to_spice())


if __name__ == "__main__":
    main()
