"""Unit tests for the simulation executor."""

import numpy as np

from repro.core.parallel import SimulationExecutor
from repro.core.synthetic import ConstrainedSphere
from repro.obs import RunLogger, Telemetry, Tracer


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
        log, tracer = RunLogger(), Tracer()
        ex = SimulationExecutor(
            task, telemetry=Telemetry(tracer=tracer, run_logger=log))
        for empty in ([], np.empty((0, task.d))):
            out = ex.evaluate_batch(empty)
            assert out.shape == (0, task.m + 1)
        # nothing was simulated
        assert tracer.find("simulate") == []
        assert log.events() == []

    def test_context_manager(self):
        task = ConstrainedSphere(d=4, seed=0)
        with SimulationExecutor(task) as ex:
            assert ex.evaluate_batch(np.full(4, 0.5)).shape == (1, task.m + 1)


class TestTelemetry:
    def test_batch_timing_recorded(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        log, tracer = RunLogger(), Tracer()
        ex = SimulationExecutor(
            task, telemetry=Telemetry(tracer=tracer, run_logger=log))
        us = task.space.sample(rng, 5)
        ex.evaluate_batch(us, kind="actor")
        ex.evaluate_batch(us[0], kind="ns")
        first, second = tracer.find("simulate")
        assert first.attrs == {"n": 5, "kind": "actor"}
        assert second.attrs == {"n": 1, "kind": "ns"}
        actor, ns = log.events("simulated")
        assert actor.payload["kind"] == "actor"
        seconds = actor.payload["seconds"]
        assert len(seconds) == 5 and min(seconds) >= 0
        # same clock, sane scale: the batch span covers its simulations
        assert first.duration_s >= sum(seconds) * 0.5
        assert ns.payload["kind"] == "ns"
        assert len(ns.payload["seconds"]) == 1

    def test_events_and_spans(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        log, tracer = RunLogger(), Tracer()
        ex = SimulationExecutor(
            task, telemetry=Telemetry(tracer=tracer, run_logger=log))
        ex.evaluate_batch(task.space.sample(rng, 4), kind="actor")
        # one simulated event per batch, one second per design
        (event,) = log.events()
        assert event.kind == "simulated"
        assert event.payload["kind"] == "actor"
        assert len(event.payload["seconds"]) == 4
        spans = tracer.find("simulate")
        assert len(spans) == 1
        assert spans[0].attrs["n"] == 4
        assert spans[0].attrs["kind"] == "actor"
