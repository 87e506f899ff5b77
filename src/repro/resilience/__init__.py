"""``repro.resilience`` — fault tolerance for long optimization runs.

The paper's evaluation is 10 runs x 200 simulator calls per method; at
that scale some simulations fail and runs get killed.  This package makes
the optimizer stack survive both:

* **failure rule** (:mod:`repro.resilience.policy`): each design is
  simulated once; a simulator error or a NaN/Inf metric vector becomes an
  infeasible penalty record instead of aborting the run;
* **checkpoint/resume** (:mod:`repro.resilience.checkpoint` +
  :mod:`repro.resilience.state`): versioned, atomic snapshots of full
  optimizer state (dataset, weights, Adam moments, RNG) behind
  ``MAOptimizer.save_checkpoint()`` / ``MAOptimizer.restore()``, giving
  bit-exact resume of a killed run.

The checkpoint cadence is an argument of the optimizers' ``run``; the
executor (:class:`~repro.core.parallel.SimulationExecutor`) applies the
failure rule.  See ``docs/resilience.md``.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    atomic_write_json,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.policy import (
    NonFiniteMetrics,
    SimOutcome,
    evaluate_design,
    penalty_metrics,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "atomic_write_json",
    "NonFiniteMetrics",
    "SimOutcome",
    "evaluate_design",
    "load_checkpoint",
    "penalty_metrics",
    "save_checkpoint",
]
