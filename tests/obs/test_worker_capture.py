"""Worker-side telemetry capture and its grafting into the parent tree."""

import numpy as np
import pytest

from repro.core.parallel import SimulationExecutor, _Heartbeat
from repro.core.synthetic import ConstrainedSphere
from repro.obs import (
    MetricsRegistry,
    RunLogger,
    Telemetry,
    Tracer,
    WorkerCapture,
    WorkerTelemetry,
    absorb_capture,
)


class TestWorkerTelemetry:
    def test_span_nesting_and_drain(self):
        wt = WorkerTelemetry()
        with wt.span("outer", attempt=0):
            with wt.span("inner"):
                pass
        wt.inc("worker_sims_total")
        wt.observe("lat", 0.25, kind="x")
        cap = wt.drain()
        assert isinstance(cap, WorkerCapture)
        assert cap.seq == 1 and cap.pid > 0
        assert [s.name for s in cap.spans] == ["outer"]
        assert [s.name for s in cap.spans[0].children] == ["inner"]
        assert cap.counters == [("worker_sims_total", 1.0, {})]
        assert cap.observations == [("lat", 0.25, {"kind": "x"})]

    def test_drain_resets_for_next_task(self):
        wt = WorkerTelemetry()
        with wt.span("a"):
            pass
        first = wt.drain()
        with wt.span("b"):
            pass
        second = wt.drain()
        assert [s.name for s in first.spans] == ["a"]
        assert [s.name for s in second.spans] == ["b"]
        assert second.seq == 2
        # re-based clock: span "b" starts near zero on the fresh epoch
        assert second.spans[0].t_start < 1.0

    def test_durations_are_recorded(self):
        wt = WorkerTelemetry()
        with wt.span("timed"):
            pass
        span = wt.drain().spans[0]
        assert span.duration_s >= 0
        assert span.t_start >= 0


class TestAbsorbCapture:
    def _capture(self):
        wt = WorkerTelemetry()
        with wt.span("worker-evaluate"):
            pass
        wt.inc("worker_sims_total", 2.0, kind="actor")
        wt.observe("h", 1.5)
        wt.set_gauge("g", 3.0)
        return wt.drain()

    def test_grafts_under_parent_with_pid_seq(self):
        tracer, reg = Tracer(), MetricsRegistry()
        telemetry = Telemetry(tracer=tracer, metrics=reg)
        with telemetry.span("simulate", n=1) as parent:
            absorb_capture(telemetry, self._capture(), parent)
        children = tracer.find("worker-evaluate")
        assert len(children) == 1
        assert children[0].attrs["pid"] > 0
        assert children[0].attrs["seq"] == 1
        # grafted spans are re-based onto the parent's clock
        assert children[0].t_start >= parent.t_start
        assert reg.counter_value("worker_sims_total", kind="actor") == 2.0
        assert reg.histogram_stats("h")["count"] == 1
        assert reg.gauge_value("g") == 3.0

    def test_none_parent_merges_metrics_only(self):
        reg = MetricsRegistry()
        telemetry = Telemetry(metrics=reg)  # no tracer -> span enter is None
        absorb_capture(telemetry, self._capture(), None)
        assert reg.counter_value("worker_sims_total", kind="actor") == 2.0

    def test_wants_worker_capture(self):
        assert not Telemetry().wants_worker_capture
        assert Telemetry(tracer=Tracer()).wants_worker_capture
        assert Telemetry(metrics=MetricsRegistry()).wants_worker_capture
        assert not Telemetry(run_logger=RunLogger()).wants_worker_capture


class TestHeartbeat:
    def test_beats_emit_events_and_refresh_gauge(self):
        reg, log = MetricsRegistry(), RunLogger()
        seen = []

        class Obs:
            def on_heartbeat(self, source, info):
                seen.append((source, info))

        telemetry = Telemetry(metrics=reg, run_logger=log, observers=[Obs()])
        hb = _Heartbeat(telemetry, interval_s=0.01, n=6, n_workers=2)
        import time
        time.sleep(0.08)
        hb.stop()
        beats = log.events("heartbeat")
        assert len(beats) >= 2
        assert beats[0].payload["n"] == 6
        assert beats[0].payload["workers"] == 2
        assert beats[-1].payload["beats"] == len(beats)
        assert reg.gauge_value("pool_workers_busy") == 2
        assert seen and seen[0][0] == "pool"

    def test_stop_is_prompt(self):
        hb = _Heartbeat(Telemetry(), interval_s=5.0, n=1, n_workers=1)
        hb.stop()  # must not wait out the interval
        assert not hb._thread.is_alive()


class TestBusyGaugeGuard:
    def test_gauge_reset_when_pool_map_raises(self):
        task = ConstrainedSphere(d=4, seed=0)
        reg = MetricsRegistry()
        ex = SimulationExecutor(task, n_workers=2,
                                telemetry=Telemetry(metrics=reg))

        class ExplodingPool:
            def starmap(self, fn, items):
                raise RuntimeError("worker died")

        ex._ensure_pool = lambda: ExplodingPool()
        with pytest.raises(RuntimeError, match="worker died"):
            ex.evaluate_batch(
                task.space.sample(np.random.default_rng(0), 4))
        assert reg.gauge_value("pool_workers_busy") == 0


@pytest.mark.slow
class TestPooledCapture:
    def test_worker_spans_grafted_under_simulate(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        tracer, reg = Tracer(), MetricsRegistry()
        ex = SimulationExecutor(task, n_workers=2,
                                telemetry=Telemetry(tracer=tracer,
                                                    metrics=reg))
        try:
            ex.evaluate_batch(task.space.sample(rng, 6), kind="actor")
        finally:
            ex.close()
        sim = tracer.find("simulate")[0]
        workers = [c for c in sim.children if c.name == "worker-evaluate"]
        assert len(workers) == 6
        assert all(c.attrs["pid"] > 0 for c in workers)
        assert all(c.attrs["seq"] >= 1 for c in workers)
        assert reg.counter_value("worker_sims_total") == 6

    def test_capture_disabled_without_listeners(self, rng):
        task = ConstrainedSphere(d=4, seed=0)
        ex = SimulationExecutor(task, n_workers=2)
        assert not ex._capture
        try:
            out = ex.evaluate_batch(task.space.sample(rng, 4))
        finally:
            ex.close()
        assert out.shape == (4, task.m + 1)

    def test_resilient_pool_captures_attempt_spans(self, rng):
        from repro.core.config import ResilienceConfig

        task = ConstrainedSphere(d=4, seed=0)
        tracer = Tracer()
        ex = SimulationExecutor(
            task, n_workers=2, telemetry=Telemetry(tracer=tracer),
            resilience=ResilienceConfig(max_retries=1))
        try:
            ex.evaluate_batch(task.space.sample(rng, 4), kind="actor")
        finally:
            ex.close()
        workers = tracer.find("worker-evaluate")
        assert len(workers) == 4
        # Every pooled design runs the policy's retry loop in the worker.
        assert all([c.name for c in w.children] == ["sim-attempt"]
                   for w in workers)
        attempts = tracer.find("sim-attempt")
        assert len(attempts) == 4  # healthy sims: exactly one attempt each
        assert all(a.attrs["attempt"] == 0 for a in attempts)
