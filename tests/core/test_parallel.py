"""Unit tests for the parallel simulation executor."""

import numpy as np
import pytest

from repro.core.parallel import SimulationExecutor
from repro.core.synthetic import ConstrainedSphere
from repro.obs import MetricsRegistry, Telemetry, Tracer


class TestSerial:
    def test_matches_direct_evaluation(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        ex = SimulationExecutor(task, n_workers=0)
        us = task.space.sample(rng, 5)
        out = ex.evaluate_batch(us)
        np.testing.assert_allclose(out, task.evaluate_batch(us))

    def test_single_design(self):
        task = ConstrainedSphere(d=4, seed=0)
        ex = SimulationExecutor(task, n_workers=0)
        out = ex.evaluate_batch(np.full(4, 0.5))
        assert out.shape == (1, task.m + 1)

    def test_negative_workers_raise(self):
        with pytest.raises(ValueError):
            SimulationExecutor(ConstrainedSphere(d=2), n_workers=-1)

    def test_close_idempotent(self):
        ex = SimulationExecutor(ConstrainedSphere(d=2), n_workers=0)
        ex.close()
        ex.close()

    def test_empty_batch(self):
        task = ConstrainedSphere(d=4, seed=0)
        reg, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(task, n_workers=0,
                                telemetry=Telemetry(tracer=tracer,
                                                    metrics=reg))
        for empty in ([], np.empty((0, task.d))):
            out = ex.evaluate_batch(empty)
            assert out.shape == (0, task.m + 1)
        # nothing was simulated
        assert tracer.find("simulate") == []
        assert reg.snapshot()["counters"] == {}

    def test_context_manager_closes_pool(self):
        task = ConstrainedSphere(d=4, seed=0)
        with SimulationExecutor(task, n_workers=0) as ex:
            assert ex.evaluate_batch(np.full(4, 0.5)).shape == (1, task.m + 1)
        assert ex._pool is None


class TestTelemetry:
    def test_batch_timing_recorded(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        reg, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(task, n_workers=0,
                                telemetry=Telemetry(tracer=tracer,
                                                    metrics=reg))
        us = task.space.sample(rng, 5)
        ex.evaluate_batch(us, kind="actor")
        ex.evaluate_batch(us[0], kind="ns")
        first, second = tracer.find("simulate")
        assert first.attrs == {"n": 5, "kind": "actor", "parallel": False}
        assert second.attrs == {"n": 1, "kind": "ns", "parallel": False}
        stats = reg.histogram_stats("sim_latency_s", kind="actor")
        assert stats["count"] == 5 and stats["min"] >= 0
        # same clock, sane scale: the batch span covers its simulations
        assert first.duration_s >= stats["sum"] * 0.5
        assert reg.histogram_stats("sim_latency_s", kind="ns")["count"] == 1

    def test_metrics_and_spans(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        reg, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(task, n_workers=0,
                                telemetry=Telemetry(tracer=tracer,
                                                    metrics=reg))
        ex.evaluate_batch(task.space.sample(rng, 4), kind="actor")
        assert reg.counter_value("sims_total", kind="actor") == 4
        assert reg.histogram_stats("sim_latency_s", kind="actor")["count"] == 4
        spans = tracer.find("simulate")
        assert len(spans) == 1
        assert spans[0].attrs["n"] == 4
        assert spans[0].attrs["kind"] == "actor"


@pytest.mark.slow
class TestParallel:
    def test_parallel_matches_serial(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        us = task.space.sample(rng, 6)
        serial = SimulationExecutor(task, n_workers=0).evaluate_batch(us)
        ex = SimulationExecutor(task, n_workers=2)
        try:
            parallel = ex.evaluate_batch(us)
        finally:
            ex.close()
        np.testing.assert_allclose(parallel, serial)

    def test_parallel_metrics_match_serial(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        us = task.space.sample(rng, 6)
        reg_s = MetricsRegistry()
        SimulationExecutor(task, n_workers=0,
                           telemetry=Telemetry(metrics=reg_s)
                           ).evaluate_batch(us, kind="actor")
        reg_p, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(task, n_workers=2,
                                telemetry=Telemetry(tracer=tracer,
                                                    metrics=reg_p))
        try:
            ex.evaluate_batch(us, kind="actor")
        finally:
            ex.close()
        # identical counters and observation counts on both paths
        assert (reg_p.counter_value("sims_total", kind="actor")
                == reg_s.counter_value("sims_total", kind="actor") == 6)
        assert (reg_p.histogram_stats("sim_latency_s", kind="actor")["count"]
                == reg_s.histogram_stats("sim_latency_s",
                                         kind="actor")["count"] == 6)
        span = tracer.find("simulate")[-1]
        assert span.attrs["parallel"] and span.attrs["n"] == 6

    def test_pool_close_idempotent(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        ex = SimulationExecutor(task, n_workers=2)
        ex.evaluate_batch(task.space.sample(rng, 4))
        ex.close()
        ex.close()
        # the pool is lazily rebuilt after close
        out = ex.evaluate_batch(task.space.sample(rng, 3))
        assert out.shape == (3, task.m + 1)
        ex.close()
