"""One evaluation path and one failure boundary for every method.

MA-Opt and the baselines simulate through the same SimulationExecutor, so
under injected faults every method completes its budget with each
quarantine counted; simulator errors (SpiceError) become penalty records,
and any other exception raised while measuring a design propagates.
"""

import numpy as np
import pytest

from repro.circuits import ThreeStageTIA
from repro.core.config import ResilienceConfig
from repro.core.synthetic import ConstrainedSphere
from repro.experiments import make_initial_set, run_method
from repro.experiments.runner import METHOD_NAMES
from repro.obs import MetricsRegistry, RunLogger, Telemetry
from repro.resilience.faults import FaultyTask
from repro.resilience.policy import penalty_metrics
from repro.spice.exceptions import ConvergenceError

FAST = dict(critic_steps=8, actor_steps=4, batch_size=8, n_elite=5,
            hidden=(8, 8))
MA_METHODS = ("DNN-Opt", "MA-Opt1", "MA-Opt2", "MA-Opt")
MAX_RETRIES = 2
N_SIMS = 20


def telemetry():
    return Telemetry(metrics=MetricsRegistry(), run_logger=RunLogger())


@pytest.fixture(scope="module")
def faulty_setup():
    task = FaultyTask(ConstrainedSphere(d=4), error_rate=0.1, nan_rate=0.1)
    policy = ResilienceConfig(max_retries=MAX_RETRIES)
    x_init, f_init = make_initial_set(task, 10, seed=0, resilience=policy)
    return task, policy, x_init, f_init


class TestEveryMethodUnderFaults:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_budget_completes_and_quarantines_are_counted(
            self, method, faulty_setup):
        task, policy, x_init, f_init = faulty_setup
        obs = telemetry()
        result = run_method(method, task, N_SIMS, x_init, f_init, seed=7,
                            maopt_overrides=dict(FAST, resilience=policy),
                            telemetry=obs)
        assert len(result.records) == N_SIMS
        assert np.all(np.isfinite(result.foms))
        # Baselines take no retry policy: they run the default one.
        retries = MAX_RETRIES if method in MA_METHODS else 0
        quarantined = [i for i, r in enumerate(result.records)
                       if task.planned_outcome(r.x, retries)[1]]
        if not retries:  # 20% faults, no retries: some must quarantine
            assert quarantined
        assert len(obs.run_logger.events("sim_failed")) == len(quarantined)
        kinds = {r.kind for r in result.records}
        assert sum(obs.metrics.counter_value("sim_failures_total", kind=k)
                   for k in kinds) == len(quarantined)
        for i in quarantined:
            np.testing.assert_array_equal(result.records[i].metrics,
                                          penalty_metrics(task))


class TestSimulatorErrors:
    @pytest.mark.parametrize("method", ["MA-Opt", "Random"])
    def test_convergence_error_becomes_penalty_record(self, method):
        class HalfDiverging(ConstrainedSphere):
            def simulate(self, u):
                if u[0] > 0.5:
                    raise ConvergenceError("newton diverged")
                return super().simulate(u)

        task = HalfDiverging(d=4)
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
