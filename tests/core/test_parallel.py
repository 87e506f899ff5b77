"""Unit tests for the simulation executor."""

import numpy as np

from repro.core.parallel import SimulationExecutor
from repro.core.synthetic import ConstrainedSphere
from repro.obs import MetricsRegistry, Telemetry, Tracer


class TestSerial:
    def test_matches_direct_evaluation(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        ex = SimulationExecutor(task)
        us = task.space.sample(rng, 5)
        out = ex.evaluate_batch(us)
        np.testing.assert_allclose(out, task.evaluate_batch(us))

    def test_single_design(self):
        task = ConstrainedSphere(d=4, seed=0)
        ex = SimulationExecutor(task)
        out = ex.evaluate_batch(np.full(4, 0.5))
        assert out.shape == (1, task.m + 1)

    def test_empty_batch(self):
        task = ConstrainedSphere(d=4, seed=0)
        reg, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(
            task, telemetry=Telemetry(tracer=tracer, metrics=reg))
        for empty in ([], np.empty((0, task.d))):
            out = ex.evaluate_batch(empty)
            assert out.shape == (0, task.m + 1)
        # nothing was simulated
        assert tracer.find("simulate") == []
        assert reg.snapshot()["counters"] == {}

    def test_context_manager(self):
        task = ConstrainedSphere(d=4, seed=0)
        with SimulationExecutor(task) as ex:
            assert ex.evaluate_batch(np.full(4, 0.5)).shape == (1, task.m + 1)


class TestTelemetry:
    def test_batch_timing_recorded(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        reg, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(
            task, telemetry=Telemetry(tracer=tracer, metrics=reg))
        us = task.space.sample(rng, 5)
        ex.evaluate_batch(us, kind="actor")
        ex.evaluate_batch(us[0], kind="ns")
        first, second = tracer.find("simulate")
        assert first.attrs == {"n": 5, "kind": "actor"}
        assert second.attrs == {"n": 1, "kind": "ns"}
        stats = reg.histogram_stats("sim_latency_s", kind="actor")
        assert stats["count"] == 5 and stats["min"] >= 0
        # same clock, sane scale: the batch span covers its simulations
        assert first.duration_s >= stats["sum"] * 0.5
        assert reg.histogram_stats("sim_latency_s", kind="ns")["count"] == 1

    def test_metrics_and_spans(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        reg, tracer = MetricsRegistry(), Tracer()
        ex = SimulationExecutor(
            task, telemetry=Telemetry(tracer=tracer, metrics=reg))
        ex.evaluate_batch(task.space.sample(rng, 4), kind="actor")
        assert reg.counter_value("sims_total", kind="actor") == 4
        assert reg.histogram_stats("sim_latency_s", kind="actor")["count"] == 4
        spans = tracer.find("simulate")
        assert len(spans) == 1
        assert spans[0].attrs["n"] == 4
        assert spans[0].attrs["kind"] == "actor"
