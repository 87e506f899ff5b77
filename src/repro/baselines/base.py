"""Shared scaffolding for baseline optimizers.

A baseline is a :class:`~repro.core.driver.Driver` whose round is one
simulation of one proposed design.  The driver gives it the same run loop,
records, events and checkpoint format as MA-Opt, and every design is
simulated through the same :class:`~repro.core.parallel.SimulationExecutor`
(ERC gate, default failure policy, ``simulate``/``lint-gate`` spans), so
the paper's comparison tables run every method on one evaluation path.
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import Driver
from repro.core.parallel import SimulationExecutor
from repro.core.problem import SizingTask
from repro.core.result import EvaluationRecord, OptimizationResult
from repro.obs import Telemetry


class BaselineOptimizer(Driver):
    """Budgeted black-box minimizer of the task FoM.

    Subclasses implement :meth:`_propose` (the next design to simulate)
    and may override :meth:`_observe` to update internal state.  Each
    simulation is a round of size one, with its own ``round_start`` and
    ``round_end`` events.

    Checkpoint/resume: :meth:`save_checkpoint` snapshots the driver state
    plus the FoM history, and :meth:`restore` rebuilds it, after which
    :meth:`run` continues toward its budget from the records it already
    holds.  Resume is bit-exact for any subclass whose only state is the
    history plus ``self.rng`` (random search); a subclass with more
    mutable state extends :meth:`_state_arrays` / :meth:`_load_state`
    (BO's GP hyper-parameters and iteration count, PPO's networks and
    episode).
    """

    checkpoint_kind = "baseline"
    method_name = "baseline"

    def __init__(self, task: SizingTask, seed: int | None = None,
                 telemetry: Telemetry | None = None) -> None:
        super().__init__(task, telemetry)
        self.rng = np.random.default_rng(seed)
        self._executor = SimulationExecutor(task, telemetry=self.obs)
        self.x_hist: list[np.ndarray] = []
        self.y_hist: list[float] = []

    # -- subclass interface ----------------------------------------------------
    def _propose(self) -> np.ndarray:
        """Return the next design (shape (d,)) to simulate."""
        raise NotImplementedError

    def _observe(self, x: np.ndarray, fom_value: float,
                 metrics: np.ndarray) -> None:
        """Hook called after each post-init simulation."""
        del metrics

    # -- driver hooks ------------------------------------------------------------
    def _add(self, x: np.ndarray, metrics: np.ndarray, fom: float,
             owner: int | None) -> None:
        self.x_hist.append(np.array(x, dtype=float))
        self.y_hist.append(fom)

    def _step(self, budget: int | None) -> list[EvaluationRecord]:
        self._start_clock()
        self.run_log.emit("round_start", round=self._round,
                          kind=self.method_name)
        with self.obs.span("propose"):
            x = np.clip(self._propose(), 0.0, 1.0)
        metrics = self._executor.evaluate_batch(
            x[None], kind=self.method_name)[0]
        rec = self._record(x, metrics, kind=self.method_name, owner=None)
        self._observe(x, rec.fom, metrics)
        self.run_log.emit("round_end", round=self._round,
                          kind=self.method_name, fom=rec.fom)
        return [rec]

    def run(self, n_sims: int, n_init: int = 100,
            x_init: np.ndarray | None = None,
            f_init: np.ndarray | None = None,
            checkpoint_path: str | None = None,
            checkpoint_every: int | None = None) -> OptimizationResult:
        """Spend ``n_sims`` post-init simulations, one design per round,
        checkpointing as :meth:`repro.core.ma_opt.MAOptimizer.run` does."""
        return self._drive(None, n_sims, n_init, x_init, f_init,
                           checkpoint_path=checkpoint_path,
                           checkpoint_every=checkpoint_every)

    # -- checkpoint state ----------------------------------------------------
    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "hist/x": (np.array(self.x_hist) if self.x_hist
                       else np.empty((0, self.task.d))),
            "hist/y": np.array(self.y_hist),
        }

    def _load_state(self, header: dict, arrays: dict[str, np.ndarray]
                    ) -> None:
        self.x_hist = [np.array(x) for x in arrays["hist/x"]]
        self.y_hist = [float(y) for y in arrays["hist/y"]]
        self._round = len(self._records)  # one simulation per round
