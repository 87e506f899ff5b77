"""One evaluation path and one failure boundary for every method.

MA-Opt and the baselines simulate through the same SimulationExecutor, so
on a task with known failing regions every method completes its budget
with each quarantine counted; simulator errors (SpiceError) and NaN
metrics become penalty records, and any other exception raised while
measuring a design propagates.
"""

import numpy as np
import pytest

from repro.circuits import ThreeStageTIA
from repro.experiments import make_initial_set, run_method
from repro.experiments.runner import METHOD_NAMES
from repro.obs import RunLogger, Telemetry
from repro.resilience.policy import penalty_metrics
from tests.resilience.stubs import DivergingSphere, NaNSphere, failure_reason

FAST = dict(critic_steps=8, actor_steps=4, batch_size=8, n_elite=5,
            hidden=(8, 8))
N_SIMS = 20


def telemetry():
    return Telemetry(run_logger=RunLogger())


class TestEveryMethodUnderFaults:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_budget_completes_and_quarantines_are_counted(self, method):
        task = NaNSphere(d=4)
        obs = telemetry()
        x_init, f_init = make_initial_set(task, 10, seed=0, telemetry=obs)
        result = run_method(method, task, N_SIMS, x_init, f_init, seed=7,
                            maopt_overrides=FAST, telemetry=obs)
        assert len(result.records) == N_SIMS
        assert np.all(np.isfinite(result.foms))
        evaluated = [*x_init, *(r.x for r in result.records)]
        reasons = [failure_reason(x) for x in evaluated]
        expected = [r for r in reasons if r is not None]
        assert expected  # the initial set alone crosses both regions
        failed = obs.run_logger.events("sim_failed")
        assert [e.payload["reason"] for e in failed] == expected
        kinds = {"init"} | {r.kind for r in result.records}
        assert sum(e.payload["kind"] in kinds
                   for e in failed) == len(expected)
        for r in result.records:
            if failure_reason(r.x) is not None:
                np.testing.assert_array_equal(r.metrics,
                                              penalty_metrics(task))


class TestSimulatorErrors:
    @pytest.mark.parametrize("method", ["MA-Opt", "Random"])
    def test_convergence_error_becomes_penalty_record(self, method):
        task = DivergingSphere(d=4)
        x_init = np.full((8, task.d), 0.25) + np.linspace(0, 0.2, 8)[:, None]
        f_init = task.evaluate_batch(x_init)
        obs = telemetry()
        result = run_method(method, task, 12, x_init, f_init, seed=3,
                            maopt_overrides=FAST, telemetry=obs)
        assert len(result.records) == 12
        diverged = [r for r in result.records if r.x[0] > 0.5]
        assert diverged, "no proposal crossed into the failing region"
        for r in diverged:
            np.testing.assert_array_equal(r.metrics, penalty_metrics(task))
        failed = obs.run_logger.events("sim_failed")
        assert len(failed) == len(diverged)
        assert all(e.payload["reason"] == "exception" for e in failed)
        assert all("ConvergenceError" in e.payload["error"] for e in failed)


class TestProgrammingErrorsPropagate:
    @pytest.fixture(scope="class")
    def tia_setup(self):
        task = ThreeStageTIA(fidelity="fast")
        return task, *make_initial_set(task, 6, seed=0)

    @pytest.mark.parametrize("planted", ["operating_point", "noise_analysis"])
    @pytest.mark.parametrize("method", ["MA-Opt", "BO"])
    def test_type_error_in_measure_propagates(self, method, planted,
                                              tia_setup, monkeypatch):
        import repro.circuits.tia as tia

        def buggy(*args, **kwargs):
            raise TypeError(f"planted bug in {planted}")

        task, x_init, f_init = tia_setup
        monkeypatch.setattr(tia, planted, buggy)
        with pytest.raises(TypeError, match="planted bug"):
            run_method(method, task, 2, x_init, f_init, seed=1,
                       maopt_overrides=FAST)
