"""Tests for the pre-simulation ERC gate in SimulationExecutor."""

import numpy as np

from repro.circuits.ota import TwoStageOTA
from repro.core.parallel import SimulationExecutor
from repro.obs import MetricsRegistry, RunLogger, Telemetry
from repro.resilience.policy import penalty_metrics


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


class RaisingBuilderOTA(TwoStageOTA):
    def build_netlist(self, params):
        raise RuntimeError("builder exploded")


def telemetry():
    return Telemetry(metrics=MetricsRegistry(), run_logger=RunLogger())


class TestGate:
    def test_clean_designs_pass_through(self):
        task = TwoStageOTA()
        with SimulationExecutor(task) as ex:
            out = ex.evaluate_batch(np.full((2, task.d), 0.5), kind="init")
        assert out.shape == (2, task.m + 1)
        assert ex.last_lint_rejections == {}

    def test_broken_designs_never_simulate(self):
        task = BrokenNetlistOTA()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            out = ex.evaluate_batch(np.full((2, task.d), 0.5),
                                    kind="actor")
        assert task.simulated == 0
        assert sorted(ex.last_lint_rejections) == [0, 1]
        assert np.allclose(out, penalty_metrics(task))
        events = list(obs.run_logger.events("lint_rejected"))
        assert len(events) == 2
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
        with SimulationExecutor(bad_task) as ex:
            out = ex.evaluate_batch(u, kind="ns")
        assert list(ex.last_lint_rejections) == [1]
        assert np.allclose(out[1], penalty_metrics(bad_task))
        # Rows 0 and 2 are real simulations of the same design.
        assert np.allclose(out[0], out[2])
        assert not np.allclose(out[0], penalty_metrics(bad_task))

    def test_raising_builder_is_rejected(self):
        task = RaisingBuilderOTA()
        with SimulationExecutor(task) as ex:
            out = ex.evaluate_batch(np.full((1, task.d), 0.5))
        assert list(ex.last_lint_rejections) == [0]
        assert ex.last_lint_rejections[0][0].rule == "erc.parse-error"
        assert np.allclose(out, penalty_metrics(task))

    def test_counter_increments(self):
        task = BrokenNetlistOTA()
        obs = telemetry()
        with SimulationExecutor(task, telemetry=obs) as ex:
            ex.evaluate_batch(np.full((2, task.d), 0.5), kind="actor")
        snap = obs.metrics.snapshot()
        (key, value), = [(k, v) for k, v in snap["counters"].items()
                         if "lint_rejections_total" in k]
        assert value == 2
        assert "actor" in key

    def test_tasks_without_lint_design_skip_gate(self):
        from repro.core.synthetic import ConstrainedSphere

        task = ConstrainedSphere()
        with SimulationExecutor(task) as ex:
            out = ex.evaluate_batch(np.full((2, task.d), 0.5))
        assert out.shape == (2, task.m + 1)
        assert ex.last_lint_rejections == {}
