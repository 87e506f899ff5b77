"""MA-Opt optimizer: Algorithms 1 and 3 of the paper.

One *round* is either

* an **optimization round** (Alg. 1): refresh the critic on pseudo-samples
  (Eq. 3/4), train every actor against the critic + elite-box penalty
  (Eq. 5/6), then let each actor propose one design — the actor-predicted
  best successor of an elite state — and simulate it (``n_actors``
  simulations per round); or
* a **near-sampling round** (Alg. 2): one simulation of the critic-ranked
  best neighbour of the incumbent optimum.

Alg. 3 alternates: optimization rounds until the specs are met, then
near-sampling every ``t_ns``-th round.  All four paper variants (DNN-Opt,
MA-Opt1, MA-Opt2, MA-Opt) are this class under different
:class:`~repro.core.config.MAOptConfig` presets.

The run loop, records, events, ``t_wall`` clock and the common checkpoint
format come from :class:`~repro.core.driver.Driver`, shared with the
baselines.  Every simulation flows through the instrumented
:class:`~repro.core.parallel.SimulationExecutor`; every round and every
evaluation emits one structured event on the run log (see
``docs/observability.md``).  The legacy :attr:`MAOptimizer.diagnostics`
list is now a read-only view over the ``round_end`` events.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis.configlint import check_config, validate_config
from repro.core.config import MAOptConfig
from repro.core.driver import Driver
from repro.core.near_sampling import near_sampling_proposal
from repro.core.networks import Actor, Critic, CriticEnsemble
from repro.core.parallel import SimulationExecutor
from repro.core.population import EliteSet, TotalDesignSet
from repro.core.problem import SizingTask
from repro.core.result import EvaluationRecord, OptimizationResult
from repro.core.training import propose_design, train_actor, train_critic
from repro.obs import Telemetry


class MAOptimizer(Driver):
    """The MA-Opt family optimizer (see module docstring)."""

    checkpoint_kind = "maopt"

    def __init__(self, task: SizingTask, config: MAOptConfig | None = None,
                 telemetry: Telemetry | None = None) -> None:
        super().__init__(task, telemetry)
        self.config = config or MAOptConfig()
        # Config cross-validation (repro.analysis.configlint): errors that
        # are knowable without the simulation budget raise here, before any
        # state is built; warnings become config_warning run events.
        for diag in validate_config(self.config, task=task):
            self.run_log.emit("config_warning", rule=diag.rule,
                              message=diag.message, fix=diag.fix)
        self.rng = np.random.default_rng(self.config.seed)
        n_metrics = task.m + 1
        self.total = TotalDesignSet(task.d, n_metrics)
        seed_seq = np.random.SeedSequence(self.config.seed)
        child_seeds = seed_seq.spawn(self.config.n_actors + 1)
        critic_seed = int(child_seeds[0].generate_state(1)[0])
        log_mask = task.metric_log_mask
        log_floors = task.metric_log_floors
        if self.config.n_critics > 1:
            self.critic = CriticEnsemble(
                task.d, n_metrics, self.config.n_critics,
                hidden=self.config.hidden, lr=self.config.critic_lr,
                seed=critic_seed, log_mask=log_mask, log_floors=log_floors,
            )
        else:
            self.critic = Critic(
                task.d, n_metrics, hidden=self.config.hidden,
                lr=self.config.critic_lr, seed=critic_seed,
                log_mask=log_mask, log_floors=log_floors,
            )
        self.actors = [
            Actor(task.d, hidden=self.config.hidden, lr=self.config.actor_lr,
                  action_scale=self.config.action_scale,
                  seed=int(child_seeds[i + 1].generate_state(1)[0]))
            for i in range(self.config.n_actors)
        ]
        # Elite views: the global view always ranks everything; per-actor
        # views implement Fig. 2's shared/individual distinction.
        self.global_elite = EliteSet(self.total, self.config.n_elite, owner=None)
        if self.config.shared_elite:
            self.actor_elites = [self.global_elite] * self.config.n_actors
        else:
            self.actor_elites = [
                EliteSet(self.total, self.config.n_elite, owner=i)
                for i in range(self.config.n_actors)
            ]
        self._executor = SimulationExecutor(task, telemetry=self.obs)

    @property
    def diagnostics(self) -> list[dict]:
        """Per-round research diagnostics (critic loss, elite-box width, ...).

        Backward-compatible view over the run log's ``round_end`` events —
        same dicts as the pre-telemetry ad-hoc list.
        """
        return [dict(e.payload) for e in self.run_log.events("round_end")]

    @property
    def method_name(self) -> str:  # type: ignore[override]
        """The paper variant this configuration is."""
        cfg = self.config
        if cfg.n_actors == 1 and not cfg.near_sampling:
            return "DNN-Opt"
        if not cfg.shared_elite:
            return "MA-Opt1"
        if not cfg.near_sampling:
            return "MA-Opt2"
        return "MA-Opt"

    def _add(self, x: np.ndarray, metrics: np.ndarray, fom: float,
             owner: int | None) -> None:
        self.total.add(x, metrics, fom, owner=owner)

    # -- single round ----------------------------------------------------------
    def _specs_met(self) -> bool:
        metrics = self.total.metrics
        if len(metrics) == 0:
            return False
        return bool(np.any(self.fom.is_feasible(metrics)))

    def optimization_round(self, budget: int | None = None
                           ) -> list[EvaluationRecord]:
        """Alg. 1: critic + actor training, then one proposal per actor."""
        self._start_clock()
        cfg = self.config
        n_propose = cfg.n_actors if budget is None else min(cfg.n_actors, budget)
        self.run_log.emit("round_start", round=self._round, kind="actor",
                          n_propose=n_propose)
        with self.obs.span("round", index=self._round, kind="actor"):
            # Equal training compute per *simulation* across variants: the
            # round spends n_propose simulations, so the critic gets
            # n_propose x critic_steps updates.  Otherwise multi-actor
            # variants would see 1/n_actors of DNN-Opt's surrogate training
            # for the same simulation budget.
            critic_steps = cfg.critic_steps * n_propose
            critic_loss = train_critic(self.critic, self.total, critic_steps,
                                       cfg.batch_size, self.rng,
                                       telemetry=self.obs)
            actor_losses: list[float] = []
            proposals: list[tuple[int, np.ndarray]] = []
            for i in range(n_propose):
                actor_losses.append(train_actor(
                    self.actors[i], self.critic, self.fom, self.total,
                    self.actor_elites[i], cfg.actor_steps, cfg.batch_size,
                    cfg.lambda_viol, self.rng,
                    telemetry=self.obs, actor_index=i))
                proposal = propose_design(self.actors[i], self.critic,
                                          self.fom, self.actor_elites[i],
                                          exclude=[p for _, p in proposals],
                                          min_dist=cfg.proposal_min_dist,
                                          telemetry=self.obs)
                proposals.append((i, proposal))
            designs = np.array([p[1] for p in proposals])
            metrics = self._executor.evaluate_batch(designs, kind="actor")
            records = [
                self._record(x, f, kind="actor", owner=i)
                for (i, x), f in zip(proposals, metrics)
            ]
        lb, ub = self.global_elite.bounds()
        info = {
            "round": self._round,
            "kind": "actor",
            "critic_loss": critic_loss,
            "actor_losses": actor_losses,
            "elite_box_width": float(np.mean(ub - lb)),
            "best_fom": float(self.total.foms.min()),
        }
        self.run_log.emit("round_end", **info)
        return records

    def near_sampling_round(self) -> EvaluationRecord:
        """Alg. 2: simulate the critic-predicted best near-neighbour of the
        incumbent best design."""
        self._start_clock()
        self.run_log.emit("round_start", round=self._round, kind="ns")
        with self.obs.span("round", index=self._round, kind="ns"):
            x_opt, _ = self.global_elite.best()
            candidate = near_sampling_proposal(
                self.critic, self.fom, x_opt, self.config.ns_radius,
                self.config.ns_samples, self.rng,
                margin=self.config.ns_margin,
                telemetry=self.obs,
            )
            metrics = self._executor.evaluate_batch(candidate, kind="ns")[0]
            record = self._record(candidate, metrics, kind="ns", owner=None)
        info = {
            "round": self._round,
            "kind": "ns",
            "improved": bool(record.fom < self.total.foms[:-1].min()),
            "best_fom": float(self.total.foms.min()),
        }
        self.run_log.emit("round_end", **info)
        return record

    def _step(self, budget: int | None) -> list[EvaluationRecord]:
        """One Alg. 3 round."""
        use_ns = (
            self.config.near_sampling
            and self._specs_met()
            and self._round % self.config.t_ns == self.config.ns_phase
        )
        if use_ns:
            return [self.near_sampling_round()]
        return self.optimization_round(budget=budget)

    # -- full run -----------------------------------------------------------
    def run(self, n_sims: int = 200, n_init: int = 100,
            x_init: np.ndarray | None = None,
            f_init: np.ndarray | None = None,
            method_name: str | None = None,
            checkpoint_path: str | None = None,
            checkpoint_every: int | None = None) -> OptimizationResult:
        """Alg. 3: run until ``n_sims`` post-init simulations are spent.

        With ``checkpoint_path`` the run snapshots its full state every
        ``checkpoint_every`` rounds (0: never) plus once at the end, so a
        killed run resumes bit-exactly via :meth:`restore`.  A restored
        optimizer continues toward ``n_sims`` from the records it already
        holds, under the name it was given and checkpointing as the run it
        was taken from did unless these arguments say otherwise.
        """
        return self._drive(method_name, n_sims, n_init,
                           x_init, f_init, checkpoint_path=checkpoint_path,
                           checkpoint_every=checkpoint_every)

    def _check_budget(self, n_sims: int, n_init: int) -> None:
        # Budget-aware config checks: logged, never raised — a deliberate
        # tiny-budget run (tests, smoke runs) must not be blocked here.
        n_have = len(self.total.foms) if self._initialized else n_init
        for diag in check_config(self.config, task=self.task,
                                 n_sims=n_sims, n_init=n_have):
            self.run_log.emit("config_warning", rule=diag.rule,
                              severity=str(diag.severity),
                              message=diag.message, fix=diag.fix)

    def _result_meta(self) -> dict:
        return {"rounds": self._round, "config": self.config,
                "diagnostics": self.diagnostics}

    # -- checkpoint state ----------------------------------------------------
    # The checkpoint is bit-exact: on top of the driver's records it holds
    # the dataset, actor/critic weights, Adam moments and the round counter.
    def _state_header(self) -> dict:
        return {"config": self.config.to_dict(), "round": self._round}

    def _state_arrays(self) -> dict[str, np.ndarray]:
        from repro.resilience.state import capture_actor, capture_critic

        arrays: dict[str, np.ndarray] = {
            "total/x": self.total.designs,
            "total/f": self.total.metrics,
            "total/fom": self.total.foms,
            "total/owner": np.array(
                [-1 if o is None else o for o in self.total.owners],
                dtype=int),
        }
        arrays.update(capture_critic("critic", self.critic))
        for i, actor in enumerate(self.actors):
            arrays.update(capture_actor(f"actor{i}", actor))
        return arrays

    @classmethod
    def _from_header(cls, header: dict, task: SizingTask,
                     telemetry: Telemetry | None, **kwargs: Any
                     ) -> "MAOptimizer":
        return cls(task, MAOptConfig.from_dict(header["config"]),
                   telemetry=telemetry, **kwargs)

    def _load_state(self, header: dict, arrays: dict[str, np.ndarray]
                    ) -> None:
        from repro.resilience.state import restore_actor, restore_critic

        for x, f, g, o in zip(arrays["total/x"], arrays["total/f"],
                              arrays["total/fom"], arrays["total/owner"]):
            self.total.add(x, f, float(g), owner=None if o < 0 else int(o))
        restore_critic("critic", self.critic, arrays)
        for i, actor in enumerate(self.actors):
            restore_actor(f"actor{i}", actor, arrays)
        self._round = int(header["round"])
