"""The failure rule classifies a mixed batch exactly as planned."""

import numpy as np

from repro.core.parallel import SimulationExecutor
from repro.obs import RunLogger, Telemetry
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
    log = RunLogger()
    with SimulationExecutor(task, telemetry=Telemetry(run_logger=log)) as ex:
        metrics = ex.evaluate_batch(designs, kind="actor")
    failures = {e.payload["design_index"]: e.payload["reason"]
                for e in log.events("sim_failed")}
    return metrics, failures, log


class TestSerialGroundTruth:
    def test_matches_planned_outcomes(self):
        task, designs = failing_setup()
        metrics, failures, log = run_path(task, designs)
        reasons = [failure_reason(u) for u in designs]
        assert failures == {i: r for i, r in enumerate(reasons)
                            if r is not None}
        assert sum(e.payload["kind"] == "actor"
                   for e in log.events("sim_failed")) == sum(
            r is not None for r in reasons)
