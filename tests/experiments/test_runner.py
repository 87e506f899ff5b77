"""Tests for the shared-initial-set comparison protocol."""

import numpy as np
import pytest

import repro.experiments.runner as runner
from repro.core.driver import load_result
from repro.core.synthetic import ConstrainedSphere
from repro.experiments import make_initial_set, run_comparison, run_method
from tests.test_interrupted_runs import InterruptedSphere

FAST = {"critic_steps": 20, "actor_steps": 10, "batch_size": 16, "n_elite": 6}


@pytest.fixture
def task():
    return ConstrainedSphere(d=5, seed=4)


class TestInitialSet:
    def test_shapes(self, task):
        x, f = make_initial_set(task, 12, seed=0)
        assert x.shape == (12, 5)
        assert f.shape == (12, task.m + 1)

    def test_seeded_reproducibility(self, task):
        x1, _ = make_initial_set(task, 8, seed=3)
        x2, _ = make_initial_set(task, 8, seed=3)
        np.testing.assert_array_equal(x1, x2)


class TestRunMethod:
    def test_all_paper_methods_run(self, task):
        x, f = make_initial_set(task, 10, seed=0)
        for m in ("BO", "DNN-Opt", "MA-Opt1", "MA-Opt2", "MA-Opt"):
            res = run_method(m, task, 6, x, f, seed=1, maopt_overrides=FAST)
            assert res.method == m
            assert res.n_sims == 6

    def test_extra_methods_run(self, task):
        x, f = make_initial_set(task, 10, seed=0)
        for m in ("Random", "PPO"):
            res = run_method(m, task, 6, x, f, seed=1)
            assert res.n_sims == 6

    def test_unknown_method_raises(self, task):
        x, f = make_initial_set(task, 5, seed=0)
        with pytest.raises(ValueError):
            run_method("SGD", task, 3, x, f)

    def test_checkpoint_arguments(self, task, tmp_path):
        # Every method takes the checkpoint arguments.
        x, f = make_initial_set(task, 10, seed=0)
        for method in ("MA-Opt", "Random"):
            path = tmp_path / f"{method}.npz"
            run_method(method, task, 4, x, f, seed=1, maopt_overrides=FAST,
                       checkpoint_path=str(path))
            assert load_result(path).method == method

    def test_same_init_best_across_methods(self, task):
        x, f = make_initial_set(task, 10, seed=0)
        res = {m: run_method(m, task, 4, x, f, seed=1,
                             maopt_overrides=FAST)
               for m in ("Random", "DNN-Opt", "MA-Opt")}
        vals = {r.init_best_fom for r in res.values()}
        assert len(vals) == 1  # identical shared initial set


class TestRunComparison:
    def test_structure(self, task):
        out = run_comparison(task, ["Random", "MA-Opt"], n_runs=2,
                             n_sims=6, n_init=8, seed=0,
                             maopt_overrides=FAST)
        assert set(out) == {"Random", "MA-Opt"}
        assert all(len(v) == 2 for v in out.values())

    def test_per_repeat_init_sets_differ(self, task):
        out = run_comparison(task, ["Random"], n_runs=2, n_sims=4,
                             n_init=8, seed=0)
        r0, r1 = out["Random"]
        assert r0.init_best_fom != r1.init_best_fom


class TestInitialSetTelemetry:
    def test_counted_and_policy_covered(self):
        from repro.obs import RunLogger, Telemetry
        from repro.resilience.policy import penalty_metrics
        from tests.resilience.stubs import NaNSphere, failure_reason

        log = RunLogger()
        task = NaNSphere(d=5, seed=4)
        x, f = make_initial_set(task, 10, seed=0,
                                telemetry=Telemetry(run_logger=log))
        assert x.shape == (10, 5) and np.all(np.isfinite(f))
        (simulated,) = log.events("simulated")
        assert simulated.payload["kind"] == "init"
        assert len(simulated.payload["seconds"]) == 10
        failed = [i for i, u in enumerate(x) if failure_reason(u)]
        assert failed
        assert [e.payload["kind"] for e in log.events("sim_failed")] == \
            ["init"] * len(failed)
        for i in failed:
            np.testing.assert_array_equal(f[i], penalty_metrics(task))


class TestResumableComparison:
    def test_completed_cells_are_skipped(self, task, tmp_path):
        ckpt = tmp_path / "cmp"
        kwargs = dict(n_runs=2, n_sims=5, n_init=8, seed=0,
                      maopt_overrides=FAST, checkpoint_dir=ckpt)
        first = run_comparison(task, ["Random", "DNN-Opt"], **kwargs)
        assert len(list(ckpt.glob("*.npz"))) == 4
        # Second invocation restores every cell from the archives without
        # re-running anything; results must match bit-for-bit.
        second = run_comparison(task, ["Random", "DNN-Opt"], **kwargs)
        for method in ("Random", "DNN-Opt"):
            for a, b in zip(first[method], second[method]):
                np.testing.assert_array_equal(
                    [r.fom for r in a.records], [r.fom for r in b.records])

    def test_partial_directory_resumes(self, task, tmp_path):
        ckpt = tmp_path / "cmp"
        kwargs = dict(n_runs=1, n_sims=5, n_init=8, seed=0,
                      maopt_overrides=FAST, checkpoint_dir=ckpt)
        only_random = run_comparison(task, ["Random"], **kwargs)
        both = run_comparison(task, ["Random", "DNN-Opt"], **kwargs)
        # the archived Random run is reused verbatim ...
        np.testing.assert_array_equal(
            [r.fom for r in only_random["Random"][0].records],
            [r.fom for r in both["Random"][0].records])
        # ... and the missing cell was run and archived
        assert (ckpt / "DNN-Opt_run0.npz").exists()

    def test_killed_cell_resumes_mid_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "CELL_CHECKPOINT_EVERY", 2)
        methods = ["Random", "DNN-Opt"]
        kwargs = dict(n_runs=1, n_sims=8, n_init=6, seed=0,
                      maopt_overrides=FAST)
        ckpt = tmp_path / "cmp"
        # Killed during DNN-Opt's 6th simulation, after the initial set
        # and the whole Random cell.
        with pytest.raises(KeyboardInterrupt):
            run_comparison(InterruptedSphere(after=6 + 8 + 5), methods,
                           checkpoint_dir=ckpt, **kwargs)
        assert load_result(ckpt / "DNN-Opt_run0.npz").n_sims == 4
        counting = InterruptedSphere(after=10**6)
        resumed = run_comparison(counting, methods, checkpoint_dir=ckpt,
                                 **kwargs)
        # Only DNN-Opt's remaining 4 simulations ran: no initial set and
        # no Random cell were simulated again.
        assert counting.calls == 4
        ref = run_comparison(InterruptedSphere(after=10**6), methods,
                             **kwargs)
        for method in methods:
            (a,), (b,) = ref[method], resumed[method]
            assert b.n_sims == 8
            for r1, r2 in zip(a.records, b.records):
                np.testing.assert_array_equal(r1.x, r2.x)
                np.testing.assert_array_equal(r1.metrics, r2.metrics)
                assert (r1.kind, r1.owner) == (r2.kind, r2.owner)
