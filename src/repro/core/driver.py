"""The run driver shared by MA-Opt and the baseline optimizers.

:class:`Driver` owns everything a budgeted run does besides choosing
designs: the run ID, ``run_start``/``run_end`` events and ``run`` span;
initialization from a sampled or shared initial set; the ``t_wall`` clock
and its resume offset; the budget loop with its checkpoint cadence (run
state, so a restored run keeps the cadence it was started with);
evaluation records with their ``evaluation`` event; the
:class:`OptimizationResult`; and the common checkpoint header and
``records/*`` arrays.  A checkpoint is the run's one archive format: the
final one a run writes is its result, which :func:`load_result` reads
back.  The run log (:attr:`Driver.run_log`) is the one
channel every event of the run goes through.  Every simulation goes
through one :class:`~repro.core.parallel.SimulationExecutor`, so all
methods share the ERC gate, the failure policy and the telemetry.

A subclass supplies its round (``_step``), how an evaluated design joins
its state (``_add``) and its extra checkpoint state (``_state_header``,
``_state_arrays``, ``_load_state``).
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Any, TypeVar

import numpy as np

from repro.core.fom import FigureOfMerit
from repro.core.parallel import SimulationExecutor
from repro.core.problem import SizingTask
from repro.core.result import EvaluationRecord, OptimizationResult
from repro.obs import NULL_TELEMETRY, RunLogger, Telemetry, new_run_id

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

    def __init__(self, task: SizingTask,
                 telemetry: Telemetry | None = None) -> None:
        self.task = task
        self.fom = FigureOfMerit(task)
        obs = telemetry or NULL_TELEMETRY
        # The run log always exists: without a telemetry-supplied logger
        # the driver keeps one in memory, in its own bundle so that the
        # executor's events land there too.  (`is None` check: an empty
        # RunLogger is falsy via __len__.)
        if obs.run_logger is None:
            self.run_log = RunLogger()
            obs = Telemetry(tracer=obs.tracer, run_logger=self.run_log,
                            run_id=obs.run_id)
        else:
            self.run_log = obs.run_logger
        self.obs = obs
        self._round = 0
        self._records: list[EvaluationRecord] = []
        self._init_best_fom = np.inf
        self._initialized = False
        self._t0: float | None = None
        # Wall seconds of the run's finished segments, and the start of
        # the running one: a resumed run's wall time counts every segment.
        self._wall_s = 0.0
        self._wall_t0: float | None = None
        self._name: str | None = None
        self._checkpoint_path: str | None = None
        self._checkpoint_every = 0

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
                     telemetry: Telemetry | None, **kwargs: Any) -> _D:
        """A fresh instance configured as the checkpointed one was."""
        return cls(task, telemetry=telemetry, **kwargs)

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
        return rec

    def step(self, budget: int | None = None) -> list[EvaluationRecord]:
        """One round; returns the new evaluation records."""
        if not self._initialized:
            raise RuntimeError("call initialize() first")
        self._round += 1
        return self._step(budget)

    # -- full run --------------------------------------------------------------
    def _wall_time(self) -> float:
        if self._wall_t0 is None:
            return self._wall_s
        return self._wall_s + time.perf_counter() - self._wall_t0

    def _drive(self, name: str | None, n_sims: int, n_init: int,
               x_init: np.ndarray | None, f_init: np.ndarray | None,
               checkpoint_path: str | pathlib.Path | None = None,
               checkpoint_every: int | None = None) -> OptimizationResult:
        """Run rounds until ``n_sims`` post-init simulations are spent
        (see :meth:`repro.core.ma_opt.MAOptimizer.run`).

        ``name`` is the run's name (``OptimizationResult.method``).  It
        and a checkpoint argument left at ``None`` keep the optimizer's
        current setting: the method name and no checkpoint on a fresh
        optimizer, the checkpointed run's after :meth:`restore`.
        """
        if name is not None:
            self._name = name
        name = self._name or self.method_name
        path = (self._checkpoint_path if checkpoint_path is None
                else str(checkpoint_path))
        every = (self._checkpoint_every if checkpoint_every is None
                 else checkpoint_every)
        check_checkpointing(path, every)
        self._checkpoint_path, self._checkpoint_every = path, every
        if self._wall_t0 is None:
            self._wall_t0 = time.perf_counter()
        run_id = self.obs.run_id or new_run_id()
        self.run_log.emit("run_start", method=name, task=self.task.name,
                          n_sims=n_sims, run_id=run_id)
        self._check_budget(n_sims, n_init)
        with self.obs.span("run", method=name, task=self.task.name,
                           run_id=run_id):
            with self._executor:
                if not self._initialized:
                    self.initialize(n_init=n_init, x_init=x_init,
                                    f_init=f_init)
                while len(self._records) < n_sims:
                    self.step(budget=n_sims - len(self._records))
                    if path and every and self._round % every == 0:
                        self.save_checkpoint(path)
            # Stop the wall clock first, so the final archive holds the
            # result's own wall time.
            self._wall_s, self._wall_t0 = self._wall_time(), None
            if path:
                self.save_checkpoint(path)
        meta = {**self._result_meta(), "run_id": run_id}
        result = OptimizationResult(
            task_name=self.task.name, method=name,
            records=list(self._records),
            init_best_fom=self._init_best_fom,
            wall_time_s=self._wall_s,
            meta=meta,
        )
        self.run_log.emit("run_end", method=name, n_sims=len(self._records),
                          best_fom=result.best_fom, success=result.success,
                          wall_time_s=result.wall_time_s, run_id=run_id)
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
            "name": self._name or self.method_name,
            "task": self.task.name,
            "d": d,
            "m": m,
            "initialized": self._initialized,
            "init_best_fom": self._init_best_fom,
            "rng_state": rng_state(self.rng),
            "t_offset": (None if self._t0 is None
                         else time.perf_counter() - self._t0),
            "wall_time_s": self._wall_time(),
            "checkpoint_path": self._checkpoint_path,
            "checkpoint_every": self._checkpoint_every,
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
            "records/kind": (np.array([r.kind for r in recs], dtype=np.str_)
                             if recs else np.empty(0, dtype="U1")),
            "records/owner": np.array(
                [-1 if r.owner is None else r.owner for r in recs],
                dtype=int),
            **self._state_arrays(),
        }
        final = save_checkpoint(path, header, arrays)
        self.run_log.emit("checkpoint_saved", path=str(final),
                          round=self._round, n_records=len(recs))
        return final

    @classmethod
    def restore(cls: type[_D], path: str | pathlib.Path, task: SizingTask,
                telemetry: Telemetry | None = None,
                **kwargs: Any) -> _D:
        """Rebuild an optimizer from a :meth:`save_checkpoint` snapshot.

        ``task`` must be the one the checkpoint was taken on; telemetry
        is wired fresh.  ``kwargs`` go to the constructor
        (baseline hyper-parameters are not checkpointed).  Continuing with
        ``run`` replays the records an uninterrupted run would produce and,
        unless ``run`` is given other checkpoint arguments, checkpoints to
        the same path at the same cadence as the checkpointed run.
        """
        from repro.resilience.checkpoint import load_checkpoint
        from repro.resilience.state import set_rng_state

        header, arrays = load_checkpoint(path)
        if header.get("kind") != cls.checkpoint_kind:
            raise ValueError(
                f"checkpoint is for method {header.get('method')!r}, not "
                f"a {cls.checkpoint_kind!r} optimizer")
        if (header["task"] != task.name or header["d"] != task.d
                or header["m"] != task.m):
            raise ValueError(
                f"checkpoint was taken on task {header['task']!r} "
                f"(d={header['d']}, m={header['m']}); got {task.name!r} "
                f"(d={task.d}, m={task.m})")
        opt = cls._from_header(header, task, telemetry, **kwargs)
        if opt.method_name != header["method"]:
            raise ValueError(
                f"checkpoint is for method {header['method']!r}, "
                f"restore it with that class (got {opt.method_name!r})")
        opt._records = _read_records(arrays)
        opt._initialized = bool(header["initialized"])
        opt._init_best_fom = float(header["init_best_fom"])
        # Both clocks restart now: the time between the checkpoint and
        # the restore counts toward neither.
        now = time.perf_counter()
        t_offset = header["t_offset"]
        opt._t0 = None if t_offset is None else now - float(t_offset)
        opt._wall_s, opt._wall_t0 = float(header["wall_time_s"]), now
        opt._name = header["name"]
        opt._checkpoint_path = header["checkpoint_path"]
        opt._checkpoint_every = int(header["checkpoint_every"])
        opt._load_state(header, arrays)
        set_rng_state(opt.rng, header["rng_state"])
        opt.run_log.emit("checkpoint_restored", path=str(path),
                         round=opt._round, n_records=len(opt._records))
        return opt


def _read_records(arrays: dict[str, np.ndarray]) -> list[EvaluationRecord]:
    """The evaluation records of a checkpoint's ``records/*`` arrays."""
    return [
        EvaluationRecord(
            index=i, x=np.array(arrays["records/x"][i]),
            metrics=np.array(arrays["records/metrics"][i]),
            fom=float(fom), kind=str(arrays["records/kind"][i]),
            owner=None if owner < 0 else int(owner),
            feasible=bool(arrays["records/feasible"][i]),
            t_wall=float(arrays["records/t_wall"][i]))
        for i, (fom, owner) in enumerate(zip(arrays["records/fom"],
                                             arrays["records/owner"]))
    ]


def load_result(path: str | pathlib.Path) -> OptimizationResult:
    """The result a checkpoint archive holds: the finished run for the
    final archive of a run, the run so far for a mid-run one.

    ``meta`` (run ID, config, diagnostics) is not archived and comes back
    empty.  Loads never unpickle; archives of another checkpoint version
    are refused with ``ValueError``.
    """
    from repro.resilience.checkpoint import load_checkpoint

    header, arrays = load_checkpoint(path)
    return OptimizationResult(
        task_name=header["task"], method=header["name"],
        records=_read_records(arrays),
        init_best_fom=float(header["init_best_fom"]),
        wall_time_s=float(header["wall_time_s"]))


def check_checkpointing(path: str | None, every: int) -> None:
    """Refuse a checkpoint plan that would fail or do nothing, before the
    first simulation; a missing directory is created, as
    :func:`repro.resilience.checkpoint.save_checkpoint` would."""
    if every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {every}")
    if not path:
        if every > 0:
            raise ValueError(f"checkpoint_every={every} needs a "
                             f"checkpoint_path to write to")
        return
    parent = pathlib.Path(path).parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create checkpoint directory "
                         f"{str(parent)!r}: {exc.strerror or exc}") from exc
    if not os.access(parent, os.W_OK):
        raise ValueError(f"checkpoint directory {str(parent)!r} is not "
                         f"writable")
