"""Unit tests for Spec / Target / SizingTask."""

import numpy as np
import pytest

from repro.core.parallel import SimulationExecutor
from repro.core.problem import Spec, Target
from repro.core.synthetic import ConstrainedSphere
from repro.resilience.policy import penalty_metrics
from repro.spice.exceptions import ConvergenceError


class TestSpec:
    def test_gt_violation_sign(self):
        s = Spec("gain", ">", 60.0)
        assert s.violation(70.0) < 0
        assert s.violation(50.0) > 0
        assert s.satisfied(60.0)

    def test_lt_violation_sign(self):
        s = Spec("noise", "<", 30.0)
        assert s.violation(20.0) < 0
        assert s.violation(40.0) > 0

    def test_violation_normalized_by_bound(self):
        s = Spec("gain", ">", 100.0)
        assert s.violation(50.0) == pytest.approx(0.5)

    def test_negative_bound_normalization(self):
        s = Spec("offset", "<", -10.0)
        assert s.violation(-5.0) == pytest.approx(0.5)
        assert s.satisfied(-20.0)

    def test_bad_kind_raises(self):
        with pytest.raises(ValueError):
            Spec("x", ">=", 1.0)

    def test_zero_bound_raises(self):
        with pytest.raises(ValueError):
            Spec("x", ">", 0.0)

    def test_default_fail_value_violates(self):
        for kind in (">", "<"):
            for bound in (5.0, -5.0):
                s = Spec("x", kind, bound)
                assert not s.satisfied(s.default_fail_value())

    def test_explicit_fail_value_used(self):
        s = Spec("x", ">", 1.0, fail_value=-99.0)
        assert s.default_fail_value() == -99.0


class TestTarget:
    def test_bad_weight_raises(self):
        with pytest.raises(ValueError):
            Target("power", weight=0.0)


class TestSizingTaskEvaluate:
    def test_metric_vector_order(self, sphere_task):
        u = np.full(sphere_task.d, 0.5)
        mv = sphere_task.evaluate(u)
        assert mv.shape == (sphere_task.m + 1,)
        metrics = sphere_task.simulate(u)
        assert mv[0] == pytest.approx(metrics["loss"])
        assert mv[1] == pytest.approx(metrics["gain"])

    def test_evaluate_clips_inputs(self, sphere_task):
        a = sphere_task.evaluate(np.full(sphere_task.d, 2.0))
        b = sphere_task.evaluate(np.full(sphere_task.d, 1.0))
        np.testing.assert_allclose(a, b)

    def test_exception_in_simulate_maps_to_fail_values(self, sphere_task):
        # evaluate() lets a simulator error through; the executor's failure
        # policy is the one place that maps it to the fail values.
        class Broken(type(sphere_task)):
            def simulate(self, u):
                raise ConvergenceError("sim crashed")

        broken = Broken(d=sphere_task.d)
        u = np.full((1, broken.d), 0.5)
        with pytest.raises(ConvergenceError):
            broken.evaluate(u[0])
        with SimulationExecutor(broken) as ex:
            mv = ex.evaluate_batch(u)[0]
        np.testing.assert_array_equal(mv, penalty_metrics(broken))
        assert mv[0] == broken.target.fail_value
        assert not broken.is_feasible(mv)
        assert ex.last_outcomes[0].failed

    def test_programming_error_in_simulate_propagates(self, sphere_task):
        class Buggy(type(sphere_task)):
            def simulate(self, u):
                raise TypeError("planted bug")

        buggy = Buggy(d=sphere_task.d)
        with SimulationExecutor(buggy) as ex, pytest.raises(TypeError):
            ex.evaluate_batch(np.full((1, buggy.d), 0.5))

    def test_missing_metric_maps_to_fail_value(self, sphere_task):
        class Partial(type(sphere_task)):
            def simulate(self, u):
                out = super().simulate(u)
                del out["gain"]
                return out

        partial = Partial(d=sphere_task.d)
        mv = partial.evaluate(np.full(partial.d, 0.5))
        assert mv[1] == partial.specs[0].default_fail_value()

    def test_nan_metric_maps_to_fail_value(self, sphere_task):
        class Nan(type(sphere_task)):
            def simulate(self, u):
                out = super().simulate(u)
                out["power"] = float("nan")
                return out

        nan_task = Nan(d=sphere_task.d)
        mv = nan_task.evaluate(np.full(nan_task.d, 0.5))
        assert np.isfinite(mv).all()

    def test_evaluate_batch_shape(self, sphere_task, rng):
        us = sphere_task.space.sample(rng, 7)
        fv = sphere_task.evaluate_batch(us)
        assert fv.shape == (7, sphere_task.m + 1)

    def test_is_feasible_consistent_with_specs(self, sphere_task, rng):
        us = sphere_task.space.sample(rng, 20)
        for u in us:
            mv = sphere_task.evaluate(u)
            manual = all(s.satisfied(mv[i + 1])
                         for i, s in enumerate(sphere_task.specs))
            assert sphere_task.is_feasible(mv) == manual

    def test_describe_mentions_target_and_specs(self, sphere_task):
        text = sphere_task.describe()
        assert "loss" in text
        assert "gain" in text
