"""End-to-end telemetry behavior of the optimizer stack."""

import numpy as np
import pytest

from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.synthetic import ConstrainedSphere
from repro.experiments.runner import make_initial_set, run_method
from repro.obs import RunLogger, Telemetry, Tracer

FAST = dict(critic_steps=10, actor_steps=5, batch_size=8, n_elite=5,
            hidden=(8, 8))


class TestNearSamplingRouting:
    def test_ns_simulation_flows_through_executor(self):
        task = ConstrainedSphere(d=4, seed=0)
        tracer = Tracer()
        cfg = MAOptConfig(seed=0, t_ns=1, ns_samples=50, **FAST)
        opt = MAOptimizer(task, cfg, telemetry=Telemetry(tracer=tracer))
        opt.initialize(n_init=30)
        if not opt._specs_met():
            pytest.skip("init infeasible for this seed")
        record = opt.step()[0]
        assert record.kind == "ns"
        # the simulation went through the instrumented choke point
        (ns,) = [e for e in opt.run_log.events("simulated")
                 if e.payload["kind"] == "ns"]
        assert len(ns.payload["seconds"]) == 1
        assert tracer.find("simulate")[-1].attrs["kind"] == "ns"
        # and produced the same metrics as a direct evaluation
        np.testing.assert_allclose(record.metrics, task.evaluate(record.x))


class TestTelemetryDefaults:
    def test_run_without_telemetry_has_no_sinks(self):
        task = ConstrainedSphere(d=4, seed=0)
        opt = MAOptimizer(task, MAOptConfig(seed=0, **FAST))
        assert opt.obs.tracer is None
        res = opt.run(n_sims=4, n_init=6)
        # events still collected internally (diagnostics view needs them)
        assert len(opt.diagnostics) >= 1
        assert res.meta["diagnostics"] == opt.diagnostics

    def test_telemetry_does_not_change_results(self):
        task = ConstrainedSphere(d=4, seed=0)
        plain = MAOptimizer(task, MAOptConfig(seed=0, **FAST))
        res_plain = plain.run(n_sims=6, n_init=8)
        tel = Telemetry(tracer=Tracer(), run_logger=RunLogger())
        traced = MAOptimizer(ConstrainedSphere(d=4, seed=0),
                             MAOptConfig(seed=0, **FAST), telemetry=tel)
        res_traced = traced.run(n_sims=6, n_init=8)
        np.testing.assert_allclose(res_plain.foms, res_traced.foms)


class TestRunnerThreading:
    def test_run_method_shares_bundle_across_methods(self):
        task = ConstrainedSphere(d=4, seed=0)
        tel = Telemetry(tracer=Tracer(), run_logger=RunLogger())
        x, f = make_initial_set(task, 8, seed=0)
        run_method("Random", task, 4, x, f, seed=0, telemetry=tel)
        run_method("DNN-Opt", task, 4, x, f, seed=0,
                   maopt_overrides=FAST, telemetry=tel)
        roots = tel.tracer.roots()
        assert [r.name for r in roots] == ["run", "run"]
        assert {r.attrs["method"] for r in roots} == {"Random", "DNN-Opt"}
        sims: dict[str, int] = {}
        for e in tel.run_logger.events("simulated"):
            k = e.payload["kind"]
            sims[k] = sims.get(k, 0) + len(e.payload["seconds"])
        assert sims == {"Random": 4, "actor": 4}


class TestWallClockConvention:
    def test_first_record_includes_training_time(self):
        # the clock starts when the first post-init round begins, so the
        # first record's t_wall includes that round's training work
        task = ConstrainedSphere(d=4, seed=0)
        opt = MAOptimizer(task, MAOptConfig(
            seed=0, critic_steps=200, actor_steps=50, batch_size=16,
            n_elite=5, hidden=(16, 16)))
        opt.initialize(n_init=8)
        records = opt.step()
        assert records[0].t_wall > 0.0

    def test_t_wall_monotone(self):
        task = ConstrainedSphere(d=4, seed=0)
        res = MAOptimizer(task, MAOptConfig(seed=0, **FAST)).run(
            n_sims=6, n_init=8)
        walls = [r.t_wall for r in res.records]
        assert walls == sorted(walls)
        assert all(w > 0 for w in walls)
