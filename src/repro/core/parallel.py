"""Simulation of design batches (Section II-B).

The paper runs the per-actor SPICE simulations over ``N_act`` CPU cores.
That parallelism changes wall-clock time only, never which designs are
proposed, so :class:`SimulationExecutor` simulates each batch serially in
the caller: the proposals of one round give the same design sequence as
the paper's parallel dispatch.  Batching designs of one topology in
lockstep is the planned way to amortize per-simulation overhead.

The executor is the single instrumented choke point every simulation flows
through — MA-Opt's rounds, every baseline's proposals and the shared
initial set alike.  Each batch opens a ``simulate`` span, each simulation
is timed individually, and a batch that reaches the simulator ends with
one ``simulated`` run event carrying its ``kind`` and the per-design
seconds.

**ERC gate** (:mod:`repro.analysis.erc`): tasks exposing ``lint_design``
(the circuit tasks) have every design electrically rule-checked before it
is simulated.  Designs with error-severity findings never reach the
simulator: they are charged the task's penalty metrics and logged as
``lint_rejected`` run events.

**Failure rule** (:mod:`repro.resilience.policy`): every design is
simulated once under :func:`~repro.resilience.policy.evaluate_design`.  A
simulator error (:class:`~repro.spice.exceptions.SpiceError`) or a
non-finite metric vector quarantines the design to the task's penalty
metrics; any other exception is a bug and propagates.  Quarantined designs
surface as ``sim_failed`` run events (with the failure reason).
``lint_rejected`` and ``sim_failed`` events both carry the design's
index in the caller's batch.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SizingTask
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.resilience.policy import evaluate_design, penalty_metrics


class SimulationExecutor:
    """Evaluates design batches serially, one simulation per design.

    Supports the context-manager protocol (entering and leaving are
    no-ops)::

        with SimulationExecutor(task) as ex:
            metrics = ex.evaluate_batch(designs)
    """

    def __init__(self, task: SizingTask,
                 telemetry: Telemetry | None = None) -> None:
        self.task = task
        self.obs = telemetry or NULL_TELEMETRY

    def evaluate_batch(self, designs: np.ndarray,
                       kind: str = "sim") -> np.ndarray:
        """Metric vectors for a batch of normalized designs, shape (n, m+1).

        ``kind`` labels the batch's provenance (``init``/``actor``/``ns``)
        in spans and run events.  An empty batch returns an empty
        ``(0, m+1)`` array without touching the task.
        """
        designs = np.asarray(designs, dtype=float)
        if designs.size == 0:
            return np.empty((0, self.task.m + 1))
        designs = np.atleast_2d(designs)
        rejected = self._lint_rejections(designs, kind)
        keep = [i for i in range(len(designs)) if i not in rejected]
        metrics = np.tile(penalty_metrics(self.task), (len(designs), 1))
        if not keep:
            return metrics
        log = self.obs.run_logger
        with self.obs.span("simulate", n=len(keep), kind=kind):
            outcomes = [evaluate_design(self.task, designs[i]) for i in keep]
            for i, out in zip(keep, outcomes):
                metrics[i] = out.metrics
                if out.failed and log is not None:
                    log.emit("sim_failed", kind=kind, design_index=i,
                             reason=out.reason, error=out.error)
        if log is not None:
            log.emit("simulated", kind=kind,
                     seconds=[out.seconds for out in outcomes])
        return metrics

    def _lint_rejections(self, designs: np.ndarray,
                         kind: str) -> dict[int, list]:
        """ERC-gate a batch: error-severity designs never reach simulation.

        Returns ``{design index -> error diagnostics}`` for the designs to
        reject; the caller substitutes the task's penalty metrics so the
        optimizer sees a decisively bad (but finite) evaluation instead of
        burning simulation budget on a netlist that cannot work.  Tasks
        without ``lint_design`` are not gated.
        """
        lint = getattr(self.task, "lint_design", None)
        if lint is None:
            return {}
        from repro.analysis.diagnostics import Severity

        rejected: dict[int, list] = {}
        with self.obs.span("lint-gate", n=len(designs), kind=kind):
            for i, u in enumerate(designs):
                errors = [d for d in lint(u) if d.severity >= Severity.ERROR]
                if errors:
                    rejected[i] = errors
        if self.obs.run_logger is not None:
            for i, errors in rejected.items():
                self.obs.run_logger.emit(
                    "lint_rejected", kind=kind, design_index=i,
                    rules=sorted({d.rule for d in errors}),
                    first=errors[0].message)
        return rejected

    def __enter__(self) -> "SimulationExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        return False
