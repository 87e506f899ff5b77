"""Failure rule: one attempt per design, quarantine to penalty metrics.

This module is the single place that decides what happens when one
simulation fails.  Each design is simulated once.  A failure is a
:class:`~repro.spice.exceptions.SpiceError` (convergence, analysis,
netlist and singular-matrix errors) or a non-finite metric vector; any
other exception is a programming error and propagates to the caller.  A
failed design is *quarantined*: it is not allowed to kill the run, it
gets the task's decisively-bad penalty metrics (the values
:meth:`repro.core.problem.SizingTask.evaluate` gives a design whose every
measurement is missing) and flows on as an infeasible record.  The NaN/Inf
check guards the data entering the critic's training set.

:func:`evaluate_design` is called once per design by
:class:`~repro.core.parallel.SimulationExecutor` (see ``tests/resilience``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.spice.exceptions import SpiceError

__all__ = [
    "NonFiniteMetrics",
    "SimOutcome",
    "evaluate_design",
    "penalty_metrics",
]


class NonFiniteMetrics(SpiceError):
    """A simulation returned NaN/Inf metrics (quarantined)."""


@dataclass
class SimOutcome:
    """The result of evaluating one design under the failure rule.

    ``failed`` marks a quarantined design whose ``metrics`` are the task's
    penalty vector.
    """

    metrics: np.ndarray
    seconds: float
    failed: bool = False
    reason: str | None = None   # "exception" | "nonfinite"
    error: str | None = None    # repr of the exception, if any


def penalty_metrics(task) -> np.ndarray:
    """Decisively-bad metric vector for a design whose simulation died.

    What :meth:`SizingTask.evaluate` returns when every measurement is
    missing: the target's ``fail_value`` plus each spec's default fail
    value — guaranteed infeasible, finite, and terrible.
    """
    out = np.empty(task.m + 1)
    out[0] = task.target.fail_value
    for i, spec in enumerate(task.specs):
        out[i + 1] = spec.default_fail_value()
    return out


def evaluate_design(task, u: np.ndarray) -> SimOutcome:
    """Simulate one design once; quarantine it if the simulation fails.

    Only a :class:`~repro.spice.exceptions.SpiceError` or a non-finite
    metric vector counts as a failure; anything else propagates.
    """
    u = np.asarray(u, dtype=float)
    t0 = time.perf_counter()
    try:
        metrics = np.asarray(task.evaluate(u), dtype=float)
        if not np.all(np.isfinite(metrics)):
            raise NonFiniteMetrics("non-finite metrics")
    except SpiceError as exc:
        reason = ("nonfinite" if isinstance(exc, NonFiniteMetrics)
                  else "exception")
        return SimOutcome(penalty_metrics(task), time.perf_counter() - t0,
                          failed=True, reason=reason, error=repr(exc))
    return SimOutcome(metrics, time.perf_counter() - t0)
