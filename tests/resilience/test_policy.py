"""Unit tests for the failure policy (retry / backoff / quarantine)."""

import numpy as np
import pytest

from repro.core.config import ResilienceConfig
from repro.core.synthetic import ConstrainedSphere
from repro.resilience.policy import (
    SimulationFailure,
    backoff_delay,
    evaluate_design,
    penalty_metrics,
)
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


class TestRetryLoop:
    def test_success_first_try(self, sphere_task):
        policy = ResilienceConfig(max_retries=3)
        u = np.full(sphere_task.d, 0.5)
        out = evaluate_design(sphere_task, u, policy)
        assert not out.failed and out.retries == 0
        np.testing.assert_allclose(out.metrics, sphere_task.evaluate(u))

    def test_retry_until_success(self, sphere_task):
        task = FlakyTask(sphere_task, n_failures=2)
        policy = ResilienceConfig(max_retries=3)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5), policy)
        assert not out.failed
        assert out.retries == 2
        assert task.calls == 3

    def test_quarantine_after_budget(self, sphere_task):
        task = FlakyTask(sphere_task, n_failures=10)
        policy = ResilienceConfig(max_retries=2)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5), policy)
        assert out.failed and out.retries == 2
        assert out.reason == "exception"
        assert "boom" in out.error
        np.testing.assert_allclose(out.metrics, penalty_metrics(sphere_task))

    def test_nonfinite_quarantined(self, sphere_task):
        task = NaNTask(sphere_task)
        policy = ResilienceConfig(max_retries=1)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5), policy)
        assert out.failed and out.reason == "nonfinite"
        assert np.all(np.isfinite(out.metrics))

    def test_nonfinite_passthrough_when_disabled(self, sphere_task):
        task = NaNTask(sphere_task)
        policy = ResilienceConfig(quarantine_nonfinite=False)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5), policy)
        assert not out.failed
        assert np.all(np.isnan(out.metrics))

    def test_raises_when_quarantine_disabled(self, sphere_task):
        task = FlakyTask(sphere_task, n_failures=10)
        policy = ResilienceConfig(max_retries=1, quarantine_failures=False)
        with pytest.raises(SimulationFailure):
            evaluate_design(task, np.full(sphere_task.d, 0.5), policy)

    def test_programming_error_is_not_retried(self, sphere_task):
        class Buggy(FlakyTask):
            def evaluate(self, u):
                self.calls += 1
                raise TypeError("planted bug")

        task = Buggy(sphere_task, n_failures=0)
        policy = ResilienceConfig(max_retries=3)
        with pytest.raises(TypeError):
            evaluate_design(task, np.full(sphere_task.d, 0.5), policy)
        assert task.calls == 1

    def test_start_attempt_charges_budget(self, sphere_task):
        task = FlakyTask(sphere_task, n_failures=10)
        policy = ResilienceConfig(max_retries=2)
        out = evaluate_design(task, np.full(sphere_task.d, 0.5), policy,
                              start_attempt=2)
        # Only attempt 2 remains: one call, no further retries.
        assert out.failed and task.calls == 1 and out.retries == 0


class TestPenaltyMetrics:
    def test_infeasible_and_finite(self, sphere_task):
        pm = penalty_metrics(sphere_task)
        assert pm.shape == (sphere_task.m + 1,)
        assert np.all(np.isfinite(pm))
        assert not sphere_task.is_feasible(pm)


class TestBackoff:
    def test_zero_base_is_free(self):
        policy = ResilienceConfig(max_retries=2)
        assert backoff_delay(policy, np.zeros(3), 0) == 0.0

    def test_deterministic_and_growing(self):
        policy = ResilienceConfig(max_retries=4, backoff_base_s=0.1,
                                  backoff_factor=2.0, backoff_jitter=0.5)
        u = np.array([0.1, 0.7])
        d0 = backoff_delay(policy, u, 0)
        d2 = backoff_delay(policy, u, 2)
        assert d0 == backoff_delay(policy, u, 0)  # pure function
        assert 0.1 <= d0 <= 0.1 * 1.5
        assert 0.4 <= d2 <= 0.4 * 1.5  # exponential growth
        # different designs draw different jitter
        assert d0 != backoff_delay(policy, u + 0.01, 0)


class TestConfigValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(sim_timeout_s=0.0)

    def test_bad_checkpoint_every_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(checkpoint_every=-2)
