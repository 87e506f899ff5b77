"""The run driver shared by MA-Opt and the baseline optimizers.

:class:`Driver` owns everything a budgeted run does besides choosing
designs: the run ID, ``run_start``/``run_end`` events and ``run`` span;
initialization from a sampled or shared initial set; the ``t_wall`` clock
and its resume offset; the budget loop with ``should_stop`` and the
checkpoint cadence; evaluation records with their ``evaluation`` event
and ``on_evaluation`` hook; the :class:`OptimizationResult`; and the
common checkpoint header and ``records/*`` arrays.  Every simulation goes
through one :class:`~repro.core.parallel.SimulationExecutor`, so all
methods share the ERC gate, the failure policy and the telemetry.

A subclass supplies its round (``_step``), how an evaluated design joins
its state (``_add``) and its extra checkpoint state (``_state_header``,
``_state_arrays``, ``_load_state``).
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Iterable, TypeVar

import numpy as np

from repro.core.fom import FigureOfMerit
from repro.core.parallel import SimulationExecutor
from repro.core.problem import SizingTask
from repro.core.result import EvaluationRecord, OptimizationResult
from repro.obs import NULL_TELEMETRY, RunLogger, Telemetry

_D = TypeVar("_D", bound="Driver")


class Driver:
    """Budgeted optimization run over one :class:`SizingTask`.

    Subclass constructors set ``self.rng`` and ``self._executor``.
    """

    #: ``kind`` written to (and required of) this family's checkpoints.
    checkpoint_kind = "driver"
    method_name = "driver"

    rng: np.random.Generator
    _executor: SimulationExecutor

    def __init__(self, task: SizingTask, telemetry: Telemetry | None = None,
                 observers: Iterable[Any] = ()) -> None:
        self.task = task
        self.fom = FigureOfMerit(task)
        self.obs = telemetry or NULL_TELEMETRY
        self._observers = self.obs.observers.extended(observers)
        # The run log always exists (in-memory); a telemetry-supplied
        # RunLogger additionally gets JSONL/logging.  (`is None` check: an
        # empty RunLogger is falsy via __len__.)
        self.run_log = (self.obs.run_logger
                        if self.obs.run_logger is not None else RunLogger())
        self._round = 0
        self._records: list[EvaluationRecord] = []
        self._init_best_fom = np.inf
        self._initialized = False
        self._t0: float | None = None

    @property
    def records(self) -> list[EvaluationRecord]:
        """Evaluation records accumulated so far (copy; one per sim)."""
        return list(self._records)

    # -- subclass interface ----------------------------------------------------
    def _step(self, budget: int | None) -> list[EvaluationRecord]:
        """One round spending at most ``budget`` simulations."""
        raise NotImplementedError

    def _add(self, x: np.ndarray, metrics: np.ndarray, fom: float,
             owner: int | None) -> None:
        """Fold one evaluated design (initial or proposed) into the state."""
        raise NotImplementedError

    def _check_budget(self, n_sims: int, n_init: int) -> None:
        """Called after ``run_start``; may log budget-aware warnings."""

    def _result_meta(self) -> dict:
        """Extra ``OptimizationResult.meta`` entries."""
        return {}

    def _state_header(self) -> dict:
        """Extra checkpoint header entries."""
        return {}

    def _state_arrays(self) -> dict[str, np.ndarray]:
        """Extra checkpoint arrays."""
        return {}

    def _load_state(self, header: dict, arrays: dict[str, np.ndarray]
                    ) -> None:
        """Restore what :meth:`_state_header`/:meth:`_state_arrays` saved."""

    @classmethod
    def _from_header(cls: type[_D], header: dict, task: SizingTask,
                     telemetry: Telemetry | None,
                     observers: Iterable[Any], **kwargs: Any) -> _D:
        """A fresh instance configured as the checkpointed one was."""
        return cls(task, telemetry=telemetry, observers=observers, **kwargs)

    # -- initialization ------------------------------------------------------
    def initialize(self, n_init: int = 100,
                   x_init: np.ndarray | None = None,
                   f_init: np.ndarray | None = None) -> None:
        """Load or simulate the initial sample set X^init.

        Passing the same ``(x_init, f_init)`` arrays to several optimizers
        reproduces the paper's shared-initial-set protocol.
        """
        if self._initialized:
            raise RuntimeError("optimizer already initialized")
        if x_init is None:
            x_init = self.task.space.sample(self.rng, n_init)
            f_init = None
        x_init = np.atleast_2d(np.asarray(x_init, dtype=float))
        if f_init is None:
            f_init = self._executor.evaluate_batch(x_init, kind="init")
        f_init = np.atleast_2d(np.asarray(f_init, dtype=float))
        if len(f_init) != len(x_init):
            raise ValueError("x_init and f_init lengths differ")
        for x, f in zip(x_init, f_init):
            g = float(self.fom(f))
            self._add(x, f, g, owner=None)
            self._init_best_fom = min(self._init_best_fom, g)
            self.run_log.emit("evaluation", kind="init", fom=g,
                              feasible=bool(self.task.is_feasible(f)))
        self._initialized = True

    # -- rounds ----------------------------------------------------------------
    def _start_clock(self) -> None:
        # t_wall convention: the clock starts when the first post-init
        # round begins, before any training or proposal work.
        if self._t0 is None:
            self._t0 = time.perf_counter()

    def _record(self, x: np.ndarray, metrics: np.ndarray, kind: str,
                owner: int | None) -> EvaluationRecord:
        g = float(self.fom(metrics))
        self._add(x, metrics, g, owner)
        self._start_clock()
        rec = EvaluationRecord(
            index=len(self._records), x=np.asarray(x, dtype=float).copy(),
            metrics=np.asarray(metrics, dtype=float).copy(), fom=g, kind=kind,
            owner=owner, feasible=self.task.is_feasible(metrics),
            t_wall=time.perf_counter() - self._t0,
        )
        self._records.append(rec)
        self.run_log.emit("evaluation", index=rec.index, kind=kind,
                          owner=owner, fom=g, feasible=bool(rec.feasible),
                          t_wall=rec.t_wall)
        self._observers.emit("on_evaluation", self, rec)
        return rec

    def step(self, budget: int | None = None) -> list[EvaluationRecord]:
        """One round; returns the new evaluation records."""
        if not self._initialized:
            raise RuntimeError("call initialize() first")
        self._round += 1
        return self._step(budget)

    # -- full run --------------------------------------------------------------
    def _drive(self, name: str, n_sims: int, n_init: int,
               x_init: np.ndarray | None, f_init: np.ndarray | None,
               checkpoint_path: str | None = None,
               checkpoint_every: int = 0,
               should_stop: Any = None) -> OptimizationResult:
        """Run rounds until ``n_sims`` post-init simulations are spent
        (see :meth:`repro.core.ma_opt.MAOptimizer.run`)."""
        start = time.perf_counter()
        run_id = self.obs.run_id
        if run_id is None:
            from repro.obs.store import new_run_id
            run_id = new_run_id()
            if self.obs is not NULL_TELEMETRY:  # the shared default is
                self.obs.run_id = run_id        # immutable by contract
        self.run_log.emit("run_start", method=name, task=self.task.name,
                          n_sims=n_sims, run_id=run_id)
        self._check_budget(n_sims, n_init)
        stop_reason: str | None = None
        with self.obs.span("run", method=name, task=self.task.name,
                           run_id=run_id):
            with self._executor:
                if not self._initialized:
                    self.initialize(n_init=n_init, x_init=x_init,
                                    f_init=f_init)
                while len(self._records) < n_sims:
                    if should_stop is not None:
                        stop_reason = should_stop() or None
                        if stop_reason:
                            self.run_log.emit("run_stopped",
                                              reason=stop_reason,
                                              round=self._round,
                                              n_sims=len(self._records))
                            break
                    self.step(budget=n_sims - len(self._records))
                    if (checkpoint_path and checkpoint_every
                            and self._round % checkpoint_every == 0):
                        self.save_checkpoint(checkpoint_path)
            if checkpoint_path:
                self.save_checkpoint(checkpoint_path)
        meta = {**self._result_meta(), "run_id": run_id}
        if stop_reason:
            meta["stopped"] = stop_reason
        result = OptimizationResult(
            task_name=self.task.name, method=name,
            records=list(self._records),
            init_best_fom=self._init_best_fom,
            wall_time_s=time.perf_counter() - start,
            meta=meta,
        )
        end_info = dict(method=name, n_sims=len(self._records),
                        best_fom=result.best_fom, success=result.success,
                        wall_time_s=result.wall_time_s, run_id=run_id)
        if stop_reason:
            end_info["stopped"] = stop_reason
        self.run_log.emit("run_end", **end_info)
        # A stopped run is not a finished run: recorders must not seal the
        # record as "finished" when the service cancelled or interrupted it.
        if stop_reason:
            self._observers.emit("on_run_stopped", self, result, stop_reason)
        else:
            self._observers.emit("on_run_end", self, result)
        return result

    # -- checkpoint / resume -------------------------------------------------
    def save_checkpoint(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically snapshot the optimizer state to ``path``
        (format: ``docs/resilience.md``)."""
        from repro.resilience.checkpoint import save_checkpoint
        from repro.resilience.state import rng_state

        recs = self._records
        d, m = self.task.d, self.task.m
        header = {
            "kind": self.checkpoint_kind,
            "method": self.method_name,
            "task": self.task.name,
            "d": d,
            "m": m,
            "initialized": self._initialized,
            "init_best_fom": self._init_best_fom,
            "rng_state": rng_state(self.rng),
            "t_offset": (None if self._t0 is None
                         else time.perf_counter() - self._t0),
            **self._state_header(),
        }
        arrays: dict[str, np.ndarray] = {
            "records/x": (np.array([r.x for r in recs]) if recs
                          else np.empty((0, d))),
            "records/metrics": (np.array([r.metrics for r in recs]) if recs
                                else np.empty((0, m + 1))),
            "records/fom": np.array([r.fom for r in recs]),
            "records/feasible": np.array([r.feasible for r in recs],
                                         dtype=bool),
            "records/t_wall": np.array([r.t_wall for r in recs]),
            **self._state_arrays(),
        }
        final = save_checkpoint(path, header, arrays)
        self.run_log.emit("checkpoint_saved", path=str(final),
                          round=self._round, n_records=len(recs))
        self.obs.inc("checkpoints_total")
        self._observers.emit("on_checkpoint", self, final)
        return final

    @classmethod
    def restore(cls: type[_D], path: str | pathlib.Path, task: SizingTask,
                telemetry: Telemetry | None = None,
                observers: Iterable[Any] = (),
                **kwargs: Any) -> _D:
        """Rebuild an optimizer from a :meth:`save_checkpoint` snapshot.

        ``task`` must be the one the checkpoint was taken on; telemetry
        and observers are wired fresh.  ``kwargs`` go to the constructor
        (baseline hyper-parameters are not checkpointed).  Continuing with
        ``run`` replays the records an uninterrupted run would produce.
        """
        from repro.resilience.checkpoint import load_checkpoint
        from repro.resilience.state import set_rng_state

        header, arrays = load_checkpoint(path)
        if header.get("kind") != cls.checkpoint_kind:
            raise ValueError(
                f"{path} is not a {cls.checkpoint_kind!r} checkpoint")
        if (header["task"] != task.name or header["d"] != task.d
                or header["m"] != task.m):
            raise ValueError(
                f"checkpoint was taken on task {header['task']!r} "
                f"(d={header['d']}, m={header['m']}); got {task.name!r} "
                f"(d={task.d}, m={task.m})")
        opt = cls._from_header(header, task, telemetry, observers, **kwargs)
        if opt.method_name != header["method"]:
            raise ValueError(
                f"checkpoint is for method {header['method']!r}, "
                f"restore it with that class (got {opt.method_name!r})")
        kinds = arrays.get("records/kind")
        owners = arrays.get("records/owner")
        for i in range(len(arrays["records/fom"])):
            owner = -1 if owners is None else int(owners[i])
            opt._records.append(EvaluationRecord(
                index=i,
                x=np.array(arrays["records/x"][i]),
                metrics=np.array(arrays["records/metrics"][i]),
                fom=float(arrays["records/fom"][i]),
                kind=opt.method_name if kinds is None else str(kinds[i]),
                owner=None if owner < 0 else owner,
                feasible=bool(arrays["records/feasible"][i]),
                t_wall=float(arrays["records/t_wall"][i]),
            ))
        opt._initialized = bool(header["initialized"])
        opt._init_best_fom = float(header["init_best_fom"])
        t_offset = header.get("t_offset")
        opt._t0 = (None if t_offset is None
                   else time.perf_counter() - float(t_offset))
        opt._load_state(header, arrays)
        set_rng_state(opt.rng, header["rng_state"])
        opt.run_log.emit("checkpoint_restored", path=str(path),
                         round=opt._round, n_records=len(opt._records))
        return opt
