"""Serial vs pool parity: the failure rule must not depend on the path."""

import numpy as np
import pytest

from repro.core.parallel import SimulationExecutor
from repro.obs import MetricsRegistry, Telemetry
from tests.resilience.stubs import NaNSphere, failure_reason


def failing_setup():
    task = NaNSphere(d=4, seed=0)
    designs = task.space.sample(np.random.default_rng(9), 8)
    # The batch holds healthy, diverging and NaN designs, so the parity
    # check covers every outcome.
    assert {failure_reason(u) for u in designs} == {
        None, "exception", "nonfinite"}
    return task, designs


def run_path(task, designs, n_workers):
    reg = MetricsRegistry()
    with SimulationExecutor(task, n_workers=n_workers,
                            telemetry=Telemetry(metrics=reg)) as ex:
        metrics = ex.evaluate_batch(designs, kind="actor")
        outcomes = list(ex.last_outcomes)
    return metrics, outcomes, reg


class TestSerialGroundTruth:
    def test_matches_planned_outcomes(self):
        task, designs = failing_setup()
        metrics, outcomes, reg = run_path(task, designs, n_workers=0)
        reasons = [failure_reason(u) for u in designs]
        assert [o.reason for o in outcomes] == reasons
        assert [o.failed for o in outcomes] == [r is not None
                                                for r in reasons]
        assert reg.counter_value("sim_failures_total", kind="actor") == sum(
            r is not None for r in reasons)


@pytest.mark.slow
class TestPoolParity:
    def test_identical_records_and_reasons(self):
        task, designs = failing_setup()
        m_serial, o_serial, reg_s = run_path(task, designs, 0)
        m_pool, o_pool, reg_p = run_path(task, designs, 2)
        np.testing.assert_array_equal(m_serial, m_pool)
        assert [o.failed for o in o_serial] == [o.failed for o in o_pool]
        assert [o.reason for o in o_serial] == [o.reason for o in o_pool]
        assert (reg_s.counter_value("sim_failures_total", kind="actor")
                == reg_p.counter_value("sim_failures_total", kind="actor"))
