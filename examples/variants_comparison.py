#!/usr/bin/env python3
"""All five paper methods side by side on a circuit of your choice.

Regenerates the paper's Table II/IV/VI row set and the matching Fig. 5
panel for one circuit (default: the fast synthetic stand-in so the demo
finishes in under a minute; pass --circuit ota/tia/ldo for the real ones).

Usage:
    python examples/variants_comparison.py --circuit ota --sims 50 --runs 2
"""

import argparse

from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA
from repro.core.synthetic import ConstrainedSphere
from repro.experiments import comparison_table, fom_curves, run_comparison
from repro.experiments.config import TUNED_MAOPT as MAOPT_OVERRIDES
from repro.experiments.figures import curves_to_csv, render_ascii

TASKS = {
    "sphere": lambda: ConstrainedSphere(d=12, seed=3),
    "ota": lambda: TwoStageOTA(fidelity="fast"),
    "tia": lambda: ThreeStageTIA(fidelity="fast"),
    "ldo": lambda: LDORegulator(fidelity="fast"),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", choices=sorted(TASKS), default="sphere")
    parser.add_argument("--sims", type=int, default=45)
    parser.add_argument("--init", type=int, default=30)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", help="write Fig. 5 series to this file")
    parser.add_argument("--save-dir",
                        help="archive every run here (one checkpoint .npz "
                             "per method and run); re-running with the "
                             "same directory resumes instead of restarting")
    args = parser.parse_args()

    task = TASKS[args.circuit]()
    methods = ["BO", "DNN-Opt", "MA-Opt1", "MA-Opt2", "MA-Opt"]
    print(f"comparing {methods} on {task.name!r}: "
          f"{args.runs} runs x ({args.init} init + {args.sims} sims)\n")
    results = run_comparison(task, methods, n_runs=args.runs,
                             n_sims=args.sims, n_init=args.init,
                             seed=args.seed, verbose=True,
                             maopt_overrides=MAOPT_OVERRIDES,
                             checkpoint_dir=args.save_dir)
    print()
    print(comparison_table(results, task))
    print()
    curves = fom_curves(results)
    print(render_ascii(curves, title=f"FoM convergence on {task.name}"))
    if args.runs >= 3:
        from repro.experiments.tables import render_significance

        print()
        print(render_significance(results))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(curves_to_csv(curves))
        print(f"\nwrote series to {args.csv}")


if __name__ == "__main__":
    main()
