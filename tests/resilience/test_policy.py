"""Unit tests for the failure rule (one attempt, quarantine)."""

import numpy as np
import pytest

from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.resilience.policy import evaluate_design, penalty_metrics
from repro.spice.exceptions import ConvergenceError


class FlakyTask:
    """Fails the first ``n_failures`` evaluate() calls, then succeeds."""

    def __init__(self, inner, n_failures):
        self.inner = inner
        self.n_failures = n_failures
        self.calls = 0
        self.target = inner.target
        self.specs = inner.specs
        self.m = inner.m

    def evaluate(self, u):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise ConvergenceError(f"boom #{self.calls}")
        return self.inner.evaluate(u)


class NaNTask:
    """Always returns all-NaN metrics."""

    def __init__(self, inner):
        self.inner = inner
        self.target = inner.target
        self.specs = inner.specs
        self.m = inner.m

    def evaluate(self, u):
        return np.full(self.m + 1, np.nan)


class TestFailureRule:
    def test_success_first_try(self, sphere_task):
        u = np.full(sphere_task.d, 0.5)
        out = evaluate_design(sphere_task, u)
        assert not out.failed and out.reason is None
        np.testing.assert_allclose(out.metrics, sphere_task.evaluate(u))

    def test_failure_is_not_retried(self, sphere_task):
        # A second call would succeed; the design is quarantined anyway.
        task = FlakyTask(sphere_task, n_failures=1)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5))
        assert out.failed and task.calls == 1

    def test_exception_quarantined(self, sphere_task):
        task = FlakyTask(sphere_task, n_failures=10)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5))
        assert out.failed and out.reason == "exception"
        assert "boom" in out.error
        np.testing.assert_allclose(out.metrics, penalty_metrics(sphere_task))

    def test_nonfinite_quarantined(self, sphere_task):
        task = NaNTask(sphere_task)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5))
        assert out.failed and out.reason == "nonfinite"
        assert np.all(np.isfinite(out.metrics))

    def test_programming_error_is_not_retried(self, sphere_task):
        class Buggy(FlakyTask):
            def evaluate(self, u):
                self.calls += 1
                raise TypeError("planted bug")

        task = Buggy(sphere_task, n_failures=0)
        with pytest.raises(TypeError):
            evaluate_design(task, np.full(sphere_task.d, 0.5))
        assert task.calls == 1


class TestPenaltyMetrics:
    def test_infeasible_and_finite(self, sphere_task):
        pm = penalty_metrics(sphere_task)
        assert pm.shape == (sphere_task.m + 1,)
        assert np.all(np.isfinite(pm))
        assert not sphere_task.is_feasible(pm)


class TestConfigValidation:
    def test_bad_checkpoint_every_rejected(self, sphere_task):
        opt = MAOptimizer(sphere_task, MAOptConfig(seed=0, hidden=(8, 8)))
        with pytest.raises(ValueError, match="checkpoint_every"):
            opt.run(n_sims=2, n_init=4, checkpoint_every=-2)
        assert len(opt.total) == 0  # refused before the first simulation
