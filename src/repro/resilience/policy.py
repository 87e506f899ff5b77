"""Failure policy: retries with backoff, quarantine, penalty metrics.

In a production sizing flow the simulation loop dies to license drops,
non-convergent operating points, and hung simulator processes.  This module
is the single place that decides what happens when one simulation fails.
A failure is a :class:`~repro.spice.exceptions.SpiceError` (convergence,
analysis, netlist and singular-matrix errors, plus the injected faults and
non-finite metrics below); any other exception is a programming error and
propagates to the caller.  For a failure:

* **retry** — up to ``max_retries`` re-attempts with exponential backoff
  (deterministic jitter, derived from the design bytes so the serial and
  pool execution paths behave identically);
* **quarantine** — after the retry budget is exhausted the design is *not*
  allowed to kill the run: it gets the task's decisively-bad penalty
  metrics (the values :meth:`repro.core.problem.SizingTask.evaluate`
  gives a design whose every measurement is missing) and flows on as an
  infeasible record;
* **NaN/Inf quarantine** — non-finite metric vectors are treated as
  failures, so they can never poison the critic's training set.

:func:`evaluate_design` is the retry loop; it is executed in the caller
for the serial path and inside each worker process for the pool path, so
retry accounting is identical in both (see ``tests/resilience``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import ResilienceConfig
from repro.obs.trace import NOOP_SPAN
from repro.spice.exceptions import SpiceError

__all__ = [
    "InjectedFault",
    "NonFiniteMetrics",
    "SimulationFailure",
    "SimOutcome",
    "ResilienceConfig",
    "backoff_delay",
    "evaluate_design",
    "penalty_metrics",
]


class InjectedFault(SpiceError):
    """Raised by :class:`~repro.resilience.faults.FaultyTask` injections."""


class NonFiniteMetrics(SpiceError):
    """A simulation returned NaN/Inf metrics (quarantined by policy)."""


class SimulationFailure(RuntimeError):
    """A simulation failed and the policy forbids quarantining it."""


@dataclass
class SimOutcome:
    """The result of evaluating one design under a failure policy.

    ``retries`` counts failed attempts that were re-tried (or charged by a
    pool-path timeout); ``failed`` marks a quarantined design whose
    ``metrics`` are the task's penalty vector.
    """

    metrics: np.ndarray
    seconds: float
    retries: int = 0
    failed: bool = False
    reason: str | None = None   # "exception" | "nonfinite" | "timeout"
    error: str | None = None    # repr of the last exception, if any
    #: Telemetry recorded in the worker while this design ran
    #: (:class:`~repro.obs.telemetry.WorkerCapture`); None on serial paths.
    capture: Any = None

    def merged_retries(self, extra: int) -> "SimOutcome":
        """Copy with ``extra`` caller-side retries (pool re-dispatch) added."""
        return SimOutcome(self.metrics, self.seconds, self.retries + extra,
                          self.failed, self.reason, self.error, self.capture)


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


def _jitter_fraction(u: np.ndarray, attempt: int) -> float:
    """Deterministic uniform in [0, 1) from the design bytes + attempt.

    Hash-based (not RNG-based) so retries never consume optimizer RNG
    state and the serial/pool paths agree bit-for-bit.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(u, dtype=float).tobytes())
    h.update(attempt.to_bytes(4, "little"))
    return int.from_bytes(h.digest(), "little") / 2.0**64


def backoff_delay(policy: ResilienceConfig, u: np.ndarray,
                  attempt: int) -> float:
    """Seconds to sleep before re-attempt ``attempt + 1``."""
    if policy.backoff_base_s <= 0:
        return 0.0
    base = policy.backoff_base_s * policy.backoff_factor ** attempt
    return base * (1.0 + policy.backoff_jitter * _jitter_fraction(u, attempt))


def _call_evaluate(task, u: np.ndarray, attempt: int) -> np.ndarray:
    # Fault-injection wrappers opt into seeing the attempt number (their
    # fault draws are pure functions of (seed, design, attempt)); plain
    # tasks keep the standard evaluate(u) signature.
    if getattr(task, "accepts_attempt", False):
        return task.evaluate(u, attempt=attempt)
    return task.evaluate(u)


def evaluate_design(task, u: np.ndarray, policy: ResilienceConfig,
                    start_attempt: int = 0, obs: Any = None) -> SimOutcome:
    """Evaluate one design under the failure policy (the retry loop).

    ``start_attempt`` charges attempts already consumed elsewhere (the
    pool path uses it after a timed-out dispatch).  ``obs`` is an optional
    span source (:class:`~repro.obs.telemetry.Telemetry` serially,
    :class:`~repro.obs.telemetry.WorkerTelemetry` inside a pool worker):
    when the policy allows retries, each attempt is wrapped in a
    ``sim-attempt`` span so retries are visible in the trace on both
    execution paths.  Only a
    :class:`~repro.spice.exceptions.SpiceError` counts as a failed attempt;
    anything else propagates.  After the last failed attempt the design is
    quarantined, or :class:`SimulationFailure` is raised when
    ``policy.quarantine_failures`` is off.
    """
    u = np.asarray(u, dtype=float)
    t0 = time.perf_counter()
    retries = 0
    reason = error = None
    traced = obs is not None and policy.max_retries > 0
    for attempt in range(start_attempt, policy.max_retries + 1):
        try:
            with (obs.span("sim-attempt", attempt=attempt)
                  if traced else NOOP_SPAN):
                metrics = np.asarray(_call_evaluate(task, u, attempt),
                                     dtype=float)
                if policy.quarantine_nonfinite and not np.all(
                        np.isfinite(metrics)):
                    raise NonFiniteMetrics(
                        f"non-finite metrics at attempt {attempt}")
            return SimOutcome(metrics, time.perf_counter() - t0, retries)
        except SpiceError as exc:
            reason = ("nonfinite" if isinstance(exc, NonFiniteMetrics)
                      else "exception")
            error = repr(exc)
            if attempt < policy.max_retries:
                retries += 1
                delay = backoff_delay(policy, u, attempt)
                if delay > 0:
                    time.sleep(delay)
    seconds = time.perf_counter() - t0
    if not policy.quarantine_failures:
        raise SimulationFailure(
            f"simulation failed after {retries + 1} attempts ({error})")
    return SimOutcome(penalty_metrics(task), seconds, retries,
                      failed=True, reason=reason, error=error)
