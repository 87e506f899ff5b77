"""Parallel simulation of actor proposals (Section II-B).

The paper runs the per-actor SPICE simulations over ``N_act`` CPU cores via
multiprocessing.  :class:`SimulationExecutor` reproduces that: with
``n_workers > 0`` a process pool evaluates design batches concurrently;
with ``n_workers = 0`` it degrades to a serial loop (the default for tests
and benches, where determinism and low overhead matter more).

The executor is the single instrumented choke point every simulation flows
through — MA-Opt's rounds, every baseline's proposals and the shared
initial set alike.  Each batch opens a ``simulate`` span, each simulation
is timed individually — in the worker process for the pool path, so
queueing and pickling overhead are excluded — and the timings feed the
``sim_latency_s`` histogram, the ``sims_total{kind=...}`` counter, and the
executor's :attr:`~SimulationExecutor.batch_timings` log.

**ERC gate** (:mod:`repro.analysis.erc`): tasks exposing ``lint_design``
(the circuit tasks) have every design electrically rule-checked before it
is dispatched.  Designs with error-severity findings never reach the
simulator: they are charged the task's penalty metrics, counted under
``lint_rejections_total{kind=...}``, and logged as ``lint_rejected`` run
events.

**Failure policy** (:mod:`repro.resilience.policy`): every simulation runs
under :func:`~repro.resilience.policy.evaluate_design`, the
retry/backoff/quarantine loop — identically in the caller (serial path)
and inside each worker (pool path), so retry accounting matches
bit-for-bit.  ``resilience=None`` means the default
:class:`~repro.core.config.ResilienceConfig`: no retries, quarantine on.
Only simulator errors (:class:`~repro.spice.exceptions.SpiceError`) are
retried and quarantined; any other exception is a bug and propagates.
When ``sim_timeout_s`` is set, the pool path additionally runs a watchdog:
a hung or crashed worker costs the affected design one attempt, the pool
is rebuilt, and only the designs whose results were lost are
re-dispatched.  Quarantined designs surface as ``sim_failed`` run events
plus ``sim_retries_total`` / ``sim_failures_total`` counters, and their
per-design outcomes stay readable on
:attr:`~SimulationExecutor.last_outcomes`.

**Worker telemetry** (:mod:`repro.obs.telemetry`): when the attached
telemetry has a tracer or metrics registry, each pool worker is
initialized with its own :class:`~repro.obs.telemetry.WorkerTelemetry`.
Spans (``worker-evaluate``, per-retry ``sim-attempt``) and counters
recorded inside the worker ship back with each task result as a picklable
:class:`~repro.obs.telemetry.WorkerCapture` and are grafted into the
parent tracer under the owning ``simulate`` span with ``pid``/``seq``
attributes — pooled simulation is no longer a tracing black box.  With
``heartbeat_s > 0`` a daemon thread additionally emits ``heartbeat`` run
events while a pooled batch is in flight, so stalls and crashed workers
are visible before the batch returns.

The task object must be picklable for the parallel path — all tasks in
:mod:`repro.circuits` and :mod:`repro.core.synthetic` are (including the
:class:`~repro.resilience.faults.FaultyTask` wrapper).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import ResilienceConfig
from repro.core.problem import SizingTask
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.telemetry import WorkerTelemetry, absorb_capture
from repro.resilience.policy import (
    SimOutcome,
    evaluate_design,
    penalty_metrics,
)

# Module-level slots for pool workers (set by the initializer so the task
# and policy are shipped once per worker instead of once per design).
_WORKER_TASK: SizingTask | None = None
_WORKER_POLICY: ResilienceConfig | None = None
_WORKER_TELEMETRY: WorkerTelemetry | None = None


# Watchdog slack added on top of the computed retry budget: covers pool
# spin-up (spawn context) and pickling, so healthy-but-queued designs are
# never misdiagnosed as hung.  The deadline is deliberately conservative —
# it exists to catch *hangs and crashes*, not to race close finishes.
_WATCHDOG_SLACK_S = 5.0


def _init_worker(task: SizingTask, policy: ResilienceConfig,
                 capture: bool = False) -> None:
    # These globals are the *per-worker* slots this initializer exists to
    # fill — each spawn worker populates its own copy, and nothing in the
    # parent ever reads them.
    global _WORKER_TASK, _WORKER_POLICY, _WORKER_TELEMETRY
    _WORKER_TASK = task
    _WORKER_POLICY = policy
    _WORKER_TELEMETRY = WorkerTelemetry() if capture else None


def _evaluate_one(u: np.ndarray, start_attempt: int = 0) -> SimOutcome:
    """Worker-side retry loop; mirrors the serial path exactly."""
    if _WORKER_TASK is None or _WORKER_POLICY is None:  # pragma: no cover
        raise RuntimeError("worker not initialized")
    wt = _WORKER_TELEMETRY  # per-worker recorder; shipped back, never shared
    if wt is None:
        return evaluate_design(_WORKER_TASK, u, _WORKER_POLICY,
                               start_attempt=start_attempt)
    with wt.span("worker-evaluate"):
        out = evaluate_design(_WORKER_TASK, u, _WORKER_POLICY,
                              start_attempt=start_attempt, obs=wt)
    wt.inc("worker_sims_total")
    out.capture = wt.drain()
    return out


class _Heartbeat:
    """Daemon thread beating while a pooled batch is in flight.

    Each beat refreshes the ``pool_workers_busy`` gauge, emits a
    ``heartbeat`` run event (elapsed seconds, batch size, worker count,
    beat number) and fires the ``on_heartbeat`` observer hook — so a tail
    client watching the event stream can tell a slow batch from a wedged
    pool even though the dispatching thread is blocked in the pool call.
    """

    def __init__(self, obs: Telemetry, interval_s: float,
                 n: int, n_workers: int) -> None:
        self.obs = obs
        self.interval_s = interval_s
        self.n = n
        self.n_workers = n_workers
        self._stop = threading.Event()
        # Under the job service many optimizations beat concurrently in
        # one process; the run id in the thread name keeps `py-spy`/faulthandler
        # dumps attributable to a job.
        name = ("sim-heartbeat" if obs.run_id is None
                else f"sim-heartbeat-{obs.run_id}")
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True)
        self._t0 = time.perf_counter()
        self._thread.start()

    def _run(self) -> None:
        beats = 0
        while not self._stop.wait(self.interval_s):
            beats += 1
            elapsed = time.perf_counter() - self._t0
            info = {"elapsed_s": round(elapsed, 3), "n": self.n,
                    "workers": self.n_workers, "beats": beats}
            self.obs.set_gauge("pool_workers_busy",
                               min(self.n_workers, self.n))
            if self.obs.run_logger is not None:
                self.obs.run_logger.emit("heartbeat", **info)
            self.obs.observers.emit("on_heartbeat", "pool", info)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval_s + 1.0)


@dataclass
class BatchTiming:
    """Timing record for one :meth:`SimulationExecutor.evaluate_batch`."""

    n: int                    # designs in the batch
    kind: str                 # provenance label (init/actor/ns/...)
    wall_s: float             # end-to-end batch wall time in the caller
    sim_s: tuple[float, ...]  # per-simulation seconds (worker-side for pools)
    parallel: bool            # True when the pool path ran


class SimulationExecutor:
    """Evaluates design batches, serially or over a process pool.

    Supports the context-manager protocol; prefer ``with`` over relying on
    ``__del__`` for pool shutdown::

        with SimulationExecutor(task, n_workers=4) as ex:
            metrics = ex.evaluate_batch(designs)
    """

    def __init__(self, task: SizingTask, n_workers: int = 0,
                 telemetry: Telemetry | None = None,
                 resilience: ResilienceConfig | None = None,
                 heartbeat_s: float = 0.0) -> None:
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if heartbeat_s < 0:
            raise ValueError("heartbeat_s must be >= 0")
        self.task = task
        self.n_workers = n_workers
        self.obs = telemetry or NULL_TELEMETRY
        self.policy = resilience or ResilienceConfig()
        self.heartbeat_s = heartbeat_s
        # Ship WorkerTelemetry into pool workers only when someone is
        # listening parent-side (tracer or metrics attached).
        self._capture = self.obs.wants_worker_capture
        self.batch_timings: list[BatchTiming] = []
        #: Per-design outcomes of the most recent simulated batch.
        self.last_outcomes: list[SimOutcome] = []
        #: Per-design ERC findings of the most recent gated batch
        #: (design index -> list of error diagnostics).
        self.last_lint_rejections: dict[int, list] = {}
        self._pool: mp.pool.Pool | None = None

    # -- pool lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> mp.pool.Pool:
        if self._pool is None:
            ctx = mp.get_context("spawn")
            self._pool = ctx.Pool(
                processes=self.n_workers,
                initializer=_init_worker,
                initargs=(self.task, self.policy, self._capture),
            )
        return self._pool

    def _rebuild_pool(self) -> None:
        """Kill a wedged pool so the next dispatch starts clean."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.obs.inc("pool_rebuilds_total")

    # -- evaluation ----------------------------------------------------------
    def evaluate_batch(self, designs: np.ndarray,
                       kind: str = "sim") -> np.ndarray:
        """Metric vectors for a batch of normalized designs, shape (n, m+1).

        ``kind`` labels the batch's provenance (``init``/``actor``/``ns``)
        in metrics and timing records.  An empty batch returns an empty
        ``(0, m+1)`` array without touching the task or the pool.
        """
        designs = np.asarray(designs, dtype=float)
        if designs.size == 0:
            return np.empty((0, self.task.m + 1))
        designs = np.atleast_2d(designs)
        rejected = self._lint_rejections(designs, kind)
        if rejected:
            keep = [i for i in range(len(designs)) if i not in rejected]
            metrics = np.tile(penalty_metrics(self.task), (len(designs), 1))
            if keep:
                metrics[keep] = self._simulate_batch(designs[keep], kind)
            return metrics
        return self._simulate_batch(designs, kind)

    def _simulate_batch(self, designs: np.ndarray,
                        kind: str) -> np.ndarray:
        """The post-gate simulation path (spans, timings, counters)."""
        use_pool = self.n_workers > 0 and len(designs) > 1
        t_batch = time.perf_counter()
        with self.obs.span("simulate", n=len(designs), kind=kind,
                           parallel=use_pool) as sim_span:
            heartbeat = (_Heartbeat(self.obs, self.heartbeat_s,
                                    len(designs), self.n_workers)
                         if use_pool and self.heartbeat_s > 0 else None)
            try:
                outcomes = (self._pool_outcomes(designs) if use_pool else
                            [evaluate_design(self.task, u, self.policy,
                                             obs=self.obs)
                             for u in designs])
            finally:
                if heartbeat is not None:
                    heartbeat.stop()
            self.last_outcomes = outcomes
            for i, out in enumerate(outcomes):
                # Graft worker-recorded telemetry while the simulate span
                # is still the live parent (NOOP spans enter as None —
                # metrics still merge, spans are dropped).
                if out.capture is not None:
                    absorb_capture(self.obs, out.capture, sim_span)
                if out.retries:
                    self.obs.inc("sim_retries_total", out.retries, kind=kind)
                if out.failed:
                    self.obs.inc("sim_failures_total", kind=kind)
                    if self.obs.run_logger is not None:
                        self.obs.run_logger.emit(
                            "sim_failed", kind=kind, design_index=i,
                            retries=out.retries, reason=out.reason,
                            error=out.error)
        durations = [out.seconds for out in outcomes]
        self.batch_timings.append(BatchTiming(
            n=len(designs), kind=kind, wall_s=time.perf_counter() - t_batch,
            sim_s=tuple(durations), parallel=use_pool))
        self.obs.inc("sims_total", len(designs), kind=kind)
        for dt in durations:
            self.obs.observe("sim_latency_s", dt, kind=kind)
        return np.stack([out.metrics for out in outcomes])

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
            self.last_lint_rejections = {}
            return {}
        from repro.analysis.diagnostics import Severity

        rejected: dict[int, list] = {}
        with self.obs.span("lint-gate", n=len(designs), kind=kind):
            for i, u in enumerate(designs):
                errors = [d for d in lint(u) if d.severity >= Severity.ERROR]
                if errors:
                    rejected[i] = errors
        self.last_lint_rejections = rejected
        if rejected:
            self.obs.inc("lint_rejections_total", len(rejected), kind=kind)
            if self.obs.run_logger is not None:
                for i, errors in rejected.items():
                    self.obs.run_logger.emit(
                        "lint_rejected", kind=kind, design_index=i,
                        rules=sorted({d.rule for d in errors}),
                        first=errors[0].message)
        return rejected

    def _attempt_budget_s(self) -> float:
        """Worst-case worker-side seconds for one design's full retry loop."""
        policy = self.policy
        attempts = policy.max_retries + 1
        budget = (policy.sim_timeout_s or 0.0) * attempts
        if policy.backoff_base_s > 0:
            budget += sum(
                policy.backoff_base_s * policy.backoff_factor ** k
                * (1.0 + policy.backoff_jitter)
                for k in range(policy.max_retries))
        return budget

    def _pool_outcomes(self, designs: np.ndarray) -> list[SimOutcome]:
        """Dispatch with watchdog + crash recovery.

        Without ``sim_timeout_s`` this is a plain (blocking) pool map of
        the worker-side retry loop.  With it, each dispatch is awaited
        under a deadline; on a timeout the hung design is charged one
        attempt, the pool is rebuilt (a crashed worker manifests as the
        same stuck result), and every design whose result died with the
        pool is re-dispatched — completed outcomes are kept.
        """
        policy = self.policy
        n = len(designs)
        self.obs.set_gauge("pool_workers_busy", min(self.n_workers, n))
        try:
            if policy.sim_timeout_s is None:
                pool = self._ensure_pool()
                return pool.starmap(_evaluate_one,
                                    [(u, 0) for u in designs])
            outcomes: list[SimOutcome | None] = [None] * n
            # (index, start_attempt, timeouts_charged) still to run.
            pending: list[tuple[int, int]] = [(i, 0) for i in range(n)]
            while pending:
                pool = self._ensure_pool()
                # Generous per-result deadline: full retry budget for every
                # design that may be queued ahead, plus pool-spinup slack.
                waves = math.ceil(len(pending) / max(1, self.n_workers))
                deadline = (self._attempt_budget_s() * waves
                            + _WATCHDOG_SLACK_S)
                handles = [(i, sa, pool.apply_async(
                    _evaluate_one, (designs[i], sa)))
                    for i, sa in pending]
                pending = []
                wedged = False
                for i, sa, handle in handles:
                    if wedged:
                        # The pool died mid-batch; this result may be lost.
                        if handle.ready():
                            outcomes[i] = handle.get().merged_retries(sa)
                        else:
                            pending.append((i, sa))
                        continue
                    try:
                        outcomes[i] = handle.get(deadline).merged_retries(sa)
                    except mp.TimeoutError:
                        wedged = True
                        if sa < policy.max_retries:
                            # The timed-out attempt is charged as a retry.
                            pending.append((i, sa + 1))
                        else:
                            outcomes[i] = SimOutcome(
                                penalty_metrics(self.task),
                                seconds=deadline, retries=sa, failed=True,
                                reason="timeout",
                                error=f"no result within {deadline:.1f}s")
                if wedged:
                    self._rebuild_pool()
            return [out for out in outcomes if out is not None]
        finally:
            self.obs.set_gauge("pool_workers_busy", 0)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SimulationExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC path
        try:
            self.close()
        except Exception:
            pass
