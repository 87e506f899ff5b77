"""Pool watchdog: a hung worker's design is quarantined, the rest finish."""

import time

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.core.config import ResilienceConfig
from repro.core.parallel import SimulationExecutor
from repro.obs import MetricsRegistry, Telemetry
from repro.resilience.policy import penalty_metrics
from tests.resilience.stubs import HangingSphere


@pytest.mark.slow
class TestWatchdog:
    def test_hung_design_quarantined_and_pool_recovered(self, monkeypatch):
        # Shrink the spin-up slack so the test doesn't wait the full
        # production-grade deadline for a deliberately hung worker.
        monkeypatch.setattr(parallel_mod, "_WATCHDOG_SLACK_S", 3.0)
        task = HangingSphere(d=5, seed=2)
        designs = np.full((4, task.d), 0.4)
        designs[:, 0] = [0.2, 0.95, 0.6, 0.8]  # design 1 hangs for 60 s
        policy = ResilienceConfig(sim_timeout_s=0.2)
        reg = MetricsRegistry()
        t0 = time.perf_counter()
        with SimulationExecutor(task, n_workers=2,
                                telemetry=Telemetry(metrics=reg),
                                resilience=policy) as ex:
            metrics = ex.evaluate_batch(designs, kind="actor")
            outcomes = list(ex.last_outcomes)
        # The batch finished in bounded time despite the 60s sleeper.
        assert time.perf_counter() - t0 < 30.0
        assert metrics.shape == (4, task.m + 1)
        out = outcomes[1]
        assert out.failed and out.reason == "timeout"
        np.testing.assert_array_equal(out.metrics, penalty_metrics(task))
        # The other designs completed normally (re-dispatched if their
        # results died with the pool).
        for i in (0, 2, 3):
            assert not outcomes[i].failed
            np.testing.assert_array_equal(metrics[i],
                                          task.evaluate(designs[i]))
        # One timeout, one torn-down pool, one quarantine.
        assert reg.counter_value("pool_rebuilds_total") == 1
        assert reg.counter_value("sim_failures_total", kind="actor") == 1
