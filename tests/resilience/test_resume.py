"""Bit-exact checkpoint/resume tests for every method."""

import time

import numpy as np
import pytest

from repro.baselines import BayesOpt, PPOSizer, RandomSearch
from repro.core.config import MAOptConfig
from repro.core.driver import load_result
from repro.core.ma_opt import MAOptimizer
from repro.core.synthetic import ConstrainedSphere
from repro.experiments.runner import (
    METHOD_NAMES,
    make_initial_set,
    optimizer_class,
    run_method,
)
from repro.resilience.checkpoint import load_checkpoint
from tests.test_interrupted_runs import InterruptedSphere


def small_cfg(**overrides) -> MAOptConfig:
    base = dict(seed=0, critic_steps=8, actor_steps=4, batch_size=8,
                n_elite=5, hidden=(8, 8))
    base.update(overrides)
    return MAOptConfig(**base)


def assert_same_records(a, b):
    assert len(a) == len(b)
    for r1, r2 in zip(a, b):
        np.testing.assert_array_equal(r1.x, r2.x)
        np.testing.assert_array_equal(r1.metrics, r2.metrics)
        assert r1.fom == r2.fom
        assert r1.kind == r2.kind
        assert r1.owner == r2.owner
        assert r1.feasible == r2.feasible


class TestMAOptResume:
    def test_bit_exact_resume(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        ref = MAOptimizer(task, small_cfg()).run(n_sims=12, n_init=8)

        interrupted = MAOptimizer(task, small_cfg())
        interrupted.run(n_sims=6, n_init=8)
        path = interrupted.save_checkpoint(tmp_path / "ck.npz")

        resumed = MAOptimizer.restore(path, task)
        res = resumed.run(n_sims=12)

        assert_same_records(ref.records, res.records)
        assert ref.init_best_fom == res.init_best_fom
        assert ref.best_fom == res.best_fom

    def test_checkpoint_every_writes_during_run(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        path = tmp_path / "auto.npz"
        opt = MAOptimizer(task, small_cfg())
        result = opt.run(n_sims=8, n_init=8, checkpoint_path=str(path),
                         checkpoint_every=1)
        # One snapshot per round plus the final one.
        assert len(opt.run_log.events("checkpoint_saved")) == opt._round + 1
        # The final snapshot holds the completed run's full record stream.
        restored = MAOptimizer.restore(path, task)
        assert_same_records(result.records, restored.records)

    def test_resumed_run_keeps_checkpointing(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        path = tmp_path / "ck.npz"
        MAOptimizer(task, small_cfg()).run(
            n_sims=6, n_init=8, checkpoint_path=str(path),
            checkpoint_every=1)
        MAOptimizer.restore(path, task).run(n_sims=12)
        _, arrays = load_checkpoint(path)
        assert len(arrays["records/fom"]) == 12

    def test_run_arguments_override_restored_checkpointing(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        path, other = tmp_path / "ck.npz", tmp_path / "other.npz"
        MAOptimizer(task, small_cfg()).run(
            n_sims=6, n_init=8, checkpoint_path=str(path),
            checkpoint_every=1)
        MAOptimizer.restore(path, task).run(n_sims=12,
                                            checkpoint_path=str(other))
        assert len(load_checkpoint(path)[1]["records/fom"]) == 6
        assert len(load_checkpoint(other)[1]["records/fom"]) == 12

    def test_restore_rejects_other_task(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        opt = MAOptimizer(task, small_cfg())
        opt.run(n_sims=4, n_init=6)
        path = opt.save_checkpoint(tmp_path / "ck.npz")
        with pytest.raises(ValueError, match="task"):
            MAOptimizer.restore(path, ConstrainedSphere(d=6, seed=0))

    def test_restore_rejects_baseline_checkpoint(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        rs = RandomSearch(task, seed=1)
        rs.run(n_sims=3, n_init=4)
        path = rs.save_checkpoint(tmp_path / "rs.npz")
        with pytest.raises(ValueError):
            MAOptimizer.restore(path, task)


class TestCheckpointArguments:
    """``run``'s checkpoint plan is checked before the first simulation."""

    def test_cadence_without_path_rejected(self):
        opt = MAOptimizer(ConstrainedSphere(d=4, seed=0), small_cfg())
        with pytest.raises(ValueError, match="checkpoint_path"):
            opt.run(n_sims=4, n_init=6, checkpoint_every=5)
        assert len(opt.total) == 0

    def test_missing_checkpoint_dir_is_created(self, tmp_path):
        path = tmp_path / "no" / "such" / "dir" / "ck.npz"
        opt = MAOptimizer(ConstrainedSphere(d=4, seed=0), small_cfg())
        opt.run(n_sims=2, n_init=6, checkpoint_path=str(path))
        assert path.exists()

    def test_unwritable_checkpoint_location_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        opt = MAOptimizer(ConstrainedSphere(d=4, seed=0), small_cfg())
        with pytest.raises(ValueError, match="checkpoint directory"):
            opt.run(n_sims=4, n_init=6,
                    checkpoint_path=str(blocker / "ck.npz"))
        assert len(opt.total) == 0


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_resumes_bit_exactly(method, tmp_path):
    """Kill a run after 5 of 14 simulations, restore its last checkpoint
    and finish: the run matches an uninterrupted one record for record."""
    task = ConstrainedSphere(d=4, seed=0)
    x, f = make_initial_set(task, 8, seed=0)
    kwargs = dict(seed=7, maopt_overrides=dict(
        critic_steps=8, actor_steps=4, batch_size=8, n_elite=5,
        hidden=(8, 8)))
    ref = run_method(method, task, 14, x, f, **kwargs)
    path = tmp_path / "ck.npz"
    with pytest.raises(KeyboardInterrupt):
        run_method(method, InterruptedSphere(5, d=4, seed=0), 14, x, f,
                   checkpoint_path=str(path), checkpoint_every=1, **kwargs)
    assert 0 < load_result(path).n_sims <= 5
    res = optimizer_class(method).restore(path, task).run(n_sims=14)

    assert_same_records(ref.records, res.records)
    assert res.method == ref.method == method
    assert res.init_best_fom == ref.init_best_fom


def test_ppo_resumes_across_episodes(tmp_path):
    # A 4-step horizon makes the checkpoint fall between PPO updates, so
    # the resumed run updates networks and Adam moments it restored, on
    # an episode that started before the checkpoint.  A sampled action
    # rarely flips under a small weight change, so the whole agent state
    # is compared, not only the records.
    task = ConstrainedSphere(d=4, seed=0)
    ref = PPOSizer(task, seed=7, horizon=4)
    ref_result = ref.run(n_sims=14, n_init=8)
    interrupted = PPOSizer(task, seed=7, horizon=4)
    interrupted.run(n_sims=5, n_init=8)
    assert interrupted._traj and interrupted.policy_opt.state_dict()["t"]
    path = interrupted.save_checkpoint(tmp_path / "ck.npz")
    resumed = PPOSizer.restore(path, task, horizon=4)
    assert_same_records(ref_result.records, resumed.run(n_sims=14).records)
    expected, got = ref._state_arrays(), resumed._state_arrays()
    assert expected.keys() == got.keys()
    for key in expected:
        np.testing.assert_array_equal(got[key], expected[key], err_msg=key)


def test_resumed_wall_time_counts_every_segment(tmp_path):
    # Before the header carried wall_time_s, a resumed BO run reported
    # 0.28 s while its own last record had t_wall 0.65 s.
    path = tmp_path / "ck.npz"
    with pytest.raises(KeyboardInterrupt):
        BayesOpt(InterruptedSphere(8 + 10, d=4, seed=0), seed=7).run(
            n_sims=20, n_init=8, checkpoint_path=str(path),
            checkpoint_every=1)
    first = load_result(path).wall_time_s
    t0 = time.perf_counter()
    res = BayesOpt.restore(path, ConstrainedSphere(d=4, seed=0)).run(
        n_sims=20)
    segment = time.perf_counter() - t0
    assert res.wall_time_s >= res.records[-1].t_wall
    assert first < res.wall_time_s <= first + segment


def test_resumed_run_keeps_its_name(tmp_path):
    task = ConstrainedSphere(d=4, seed=0)
    path = tmp_path / "ck.npz"
    MAOptimizer(task, small_cfg()).run(n_sims=6, n_init=8,
                                       method_name="2-actor",
                                       checkpoint_path=str(path))
    assert MAOptimizer.restore(path, task).run(n_sims=12).method == "2-actor"


class TestBaselineResume:
    def test_restore_rejects_other_method(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        rs = RandomSearch(task, seed=1)
        rs.run(n_sims=3, n_init=4)
        path = rs.save_checkpoint(tmp_path / "rs.npz")
        with pytest.raises(ValueError, match="method"):
            BayesOpt.restore(path, task)

    def test_checkpoint_emits_event(self, tmp_path):
        from repro.obs import RunLogger, Telemetry

        task = ConstrainedSphere(d=4, seed=0)
        log = RunLogger()
        rs = RandomSearch(task, seed=1, telemetry=Telemetry(run_logger=log))
        rs.run(n_sims=3, n_init=4)
        rs.save_checkpoint(tmp_path / "ck.npz")
        assert len(log.events("checkpoint_saved")) == 1
