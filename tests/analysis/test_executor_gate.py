"""Tests for the pre-simulation ERC gate in SimulationExecutor."""

import numpy as np

from repro.analysis.erc import ERC_RULES
from repro.circuits.ota import TwoStageOTA
from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.parallel import SimulationExecutor
from repro.core.synthetic import ConstrainedSphere
from repro.obs import RunLogger, Telemetry
from repro.resilience.policy import penalty_metrics
from tests.resilience.stubs import DivergingSphere


class BrokenNetlistOTA(TwoStageOTA):
    """OTA whose netlist builder always emits a floating node."""

    def __init__(self):
        super().__init__()
        self.simulated = 0

    def build_netlist(self, params):
        ckt = super().build_netlist(params)
        ckt.add_resistor("Rbad", "dangle_a", "dangle_b", 1e3)
        return ckt

    def measure(self, params):
        self.simulated += 1
        return super().measure(params)


class GatedSphere(ConstrainedSphere):
    """Sphere whose ERC gate rejects every design with u[1] > 0.7."""

    def lint_design(self, u):
        if u[1] > 0.7:
            return [ERC_RULES.diag("erc.no-ground", "forced")]
        return []


class RaisingBuilderOTA(TwoStageOTA):
    def build_netlist(self, params):
        raise RuntimeError("builder exploded")


def telemetry():
    return Telemetry(run_logger=RunLogger())


def rejected_indices(obs):
    return [e.payload["design_index"]
            for e in obs.run_logger.events("lint_rejected")]


class TestGate:
    def test_clean_designs_pass_through(self):
        task = TwoStageOTA()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            out = ex.evaluate_batch(np.full((2, task.d), 0.5), kind="init")
        assert out.shape == (2, task.m + 1)
        assert rejected_indices(obs) == []

    def test_broken_designs_never_simulate(self):
        task = BrokenNetlistOTA()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            out = ex.evaluate_batch(np.full((2, task.d), 0.5),
                                    kind="actor")
        assert task.simulated == 0
        assert rejected_indices(obs) == [0, 1]
        assert np.allclose(out, penalty_metrics(task))
        events = list(obs.run_logger.events("lint_rejected"))
        assert "erc.floating-node" in events[0].payload["rules"]

    def test_mixed_batch_merges_in_order(self):
        # Same task; corrupt one design so only it gets gated.
        task = TwoStageOTA()

        class OneBadOTA(TwoStageOTA):
            def lint_design(self, u):
                if u[0] > 0.9:
                    from repro.analysis.erc import ERC_RULES
                    return [ERC_RULES.diag("erc.no-ground", "forced")]
                return []

        bad_task = OneBadOTA()
        u = np.full((3, task.d), 0.5)
        u[1, 0] = 1.0
        obs = telemetry()
        with SimulationExecutor(bad_task, telemetry=obs) as ex:
            out = ex.evaluate_batch(u, kind="ns")
        assert rejected_indices(obs) == [1]
        assert np.allclose(out[1], penalty_metrics(bad_task))
        # Rows 0 and 2 are real simulations of the same design.
        assert np.allclose(out[0], out[2])
        assert not np.allclose(out[0], penalty_metrics(bad_task))

    def test_raising_builder_is_rejected(self):
        task = RaisingBuilderOTA()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            out = ex.evaluate_batch(np.full((1, task.d), 0.5))
        (rejected,) = obs.run_logger.events("lint_rejected")
        assert rejected.payload["design_index"] == 0
        assert rejected.payload["rules"] == ["erc.parse-error"]
        assert np.allclose(out, penalty_metrics(task))

    def test_counter_increments(self):
        task = BrokenNetlistOTA()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            ex.evaluate_batch(np.full((2, task.d), 0.5), kind="actor")
        rejected = obs.run_logger.events("lint_rejected")
        assert len(rejected) == 2
        assert {e.payload["kind"] for e in rejected} == {"actor"}
        # nothing reached the simulator, so no simulated event
        assert obs.run_logger.events("simulated") == []

    def test_tasks_without_lint_design_skip_gate(self):
        from repro.core.synthetic import ConstrainedSphere

        task = ConstrainedSphere()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            out = ex.evaluate_batch(np.full((2, task.d), 0.5))
        assert out.shape == (2, task.m + 1)
        assert rejected_indices(obs) == []

    def test_failure_index_is_the_callers(self):
        # Gated designs are taken out before simulation; a later failure
        # must still be reported at its index in the caller's batch.
        class GatedDivergingSphere(GatedSphere, DivergingSphere):
            pass

        task = GatedDivergingSphere(d=4, seed=0)
        u = np.full((3, task.d), 0.2)
        u[0, 1] = 0.95   # ERC-rejected
        u[2, 0] = 0.8    # diverges
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            ex.evaluate_batch(u, kind="actor")
        (rejected,) = obs.run_logger.events("lint_rejected")
        (failed,) = obs.run_logger.events("sim_failed")
        assert rejected.payload["design_index"] == 0
        assert failed.payload["design_index"] == 2


class TestSimulatedEvent:
    def test_rejected_designs_have_no_seconds(self):
        task = GatedSphere(d=4, seed=0)
        u = np.full((4, task.d), 0.2)
        u[[0, 2], 1] = 0.95   # ERC-rejected
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            ex.evaluate_batch(u, kind="actor")
        (event,) = obs.run_logger.events("simulated")
        assert event.payload["kind"] == "actor"
        assert len(event.payload["seconds"]) == 2

    def test_seconds_per_kind_are_evaluations_minus_rejections(self):
        task = GatedSphere(d=4, seed=0)
        cfg = MAOptConfig(seed=0, critic_steps=10, actor_steps=5,
                          batch_size=8, n_elite=5, hidden=(8, 8))
        opt = MAOptimizer(task, cfg)
        opt.run(n_sims=12, n_init=20)
        log = opt.run_log

        def per_kind(kind):
            out: dict[str, int] = {}
            for e in log.events(kind):
                k = e.payload["kind"]
                n = len(e.payload["seconds"]) if kind == "simulated" else 1
                out[k] = out.get(k, 0) + n
            return out

        evaluations = per_kind("evaluation")
        rejected = per_kind("lint_rejected")
        assert rejected  # the gate fired during the run
        assert per_kind("simulated") == {
            k: n - rejected.get(k, 0) for k, n in evaluations.items()
            if n > rejected.get(k, 0)}
