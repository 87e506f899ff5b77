"""The failure rule classifies a mixed batch exactly as planned."""

import numpy as np

from repro.core.parallel import SimulationExecutor
from repro.obs import MetricsRegistry, Telemetry
from tests.resilience.stubs import NaNSphere, failure_reason


def failing_setup():
    task = NaNSphere(d=4, seed=0)
    designs = task.space.sample(np.random.default_rng(9), 8)
    # The batch holds healthy, diverging and NaN designs, so the check
    # covers every outcome.
    assert {failure_reason(u) for u in designs} == {
        None, "exception", "nonfinite"}
    return task, designs


def run_path(task, designs):
    reg = MetricsRegistry()
    with SimulationExecutor(task, telemetry=Telemetry(metrics=reg)) as ex:
        metrics = ex.evaluate_batch(designs, kind="actor")
        outcomes = list(ex.last_outcomes)
    return metrics, outcomes, reg


class TestSerialGroundTruth:
    def test_matches_planned_outcomes(self):
        task, designs = failing_setup()
        metrics, outcomes, reg = run_path(task, designs)
        reasons = [failure_reason(u) for u in designs]
        assert [o.reason for o in outcomes] == reasons
        assert [o.failed for o in outcomes] == [r is not None
                                                for r in reasons]
        assert reg.counter_value("sim_failures_total", kind="actor") == sum(
            r is not None for r in reasons)
