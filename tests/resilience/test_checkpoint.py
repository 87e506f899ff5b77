"""Unit tests for the atomic checkpoint file format, and for the
checkpoint as a finished run's archive (:func:`repro.core.driver.load_result`)."""

import json

import numpy as np
import pytest

from repro.core.driver import load_result
from repro.core.synthetic import ConstrainedSphere
from repro.experiments.runner import make_initial_set, run_method
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)


class TestRoundTrip:
    def test_header_and_arrays_survive(self, tmp_path):
        header = {"kind": "test", "round": 3, "best": float("inf")}
        arrays = {"a/x": np.arange(6.0).reshape(2, 3),
                  "b": np.array([True, False])}
        path = save_checkpoint(tmp_path / "ck.npz", header, arrays)
        back_header, back_arrays = load_checkpoint(path)
        assert back_header["kind"] == "test"
        assert back_header["round"] == 3
        assert back_header["best"] == float("inf")
        assert back_header["checkpoint_version"] == CHECKPOINT_VERSION
        np.testing.assert_array_equal(back_arrays["a/x"], arrays["a/x"])
        np.testing.assert_array_equal(back_arrays["b"], arrays["b"])

    def test_suffix_appended(self, tmp_path):
        path = save_checkpoint(tmp_path / "ck", {"kind": "t"}, {})
        assert path.name == "ck.npz" and path.exists()

    def test_string_arrays_stay_pickle_free(self, tmp_path):
        arrays = {"kinds": np.array(["init", "actor"], dtype=np.str_)}
        path = save_checkpoint(tmp_path / "ck.npz", {"kind": "t"}, arrays)
        _, back = load_checkpoint(path)  # load_checkpoint forbids pickle
        assert list(back["kinds"]) == ["init", "actor"]


class TestSafety:
    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="pickle-free"):
            save_checkpoint(tmp_path / "ck.npz", {"kind": "t"},
                            {"bad": np.array([{"a": 1}], dtype=object)})

    def test_reserved_header_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(tmp_path / "ck.npz", {"kind": "t"},
                            {"__header__": np.zeros(1)})

    def test_failed_write_preserves_previous_checkpoint(self, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", {"kind": "good"},
                               {"x": np.ones(3)})
        # A non-serializable header fails before the atomic rename ...
        with pytest.raises(TypeError):
            save_checkpoint(path, {"bad": object()}, {})
        # ... so the original snapshot survives and no temp files linger.
        header, arrays = load_checkpoint(path)
        assert header["kind"] == "good"
        np.testing.assert_array_equal(arrays["x"], np.ones(3))
        assert list(tmp_path.glob("*.tmp-*")) == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        header = json.dumps({"checkpoint_version": 999})
        np.savez_compressed(path, __header__=np.array(header))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_version_1_header_rejected(self, tmp_path):
        # Version-1 to version-3 headers hold config settings this build
        # no longer has, and version 4 lacks the run archive's fields;
        # they must be refused by version, not by a TypeError from the
        # config constructor or a KeyError from the archive reader.
        path = tmp_path / "ck.npz"
        for version in (1, 2, 3, 4):
            header = json.dumps({"checkpoint_version": version,
                                 "config": {}})
            np.savez_compressed(path, __header__=np.array(header))
            with pytest.raises(
                    ValueError,
                    match=f"unsupported checkpoint version {version}"):
                load_checkpoint(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        np.savez_compressed(path, x=np.zeros(2))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_creates_parent_directories(self, tmp_path):
        path = save_checkpoint(tmp_path / "deep" / "dir" / "ck.npz",
                               {"kind": "t"}, {})
        assert path.exists()


SMALL_MAOPT = dict(critic_steps=8, actor_steps=4, batch_size=8, n_elite=5,
                   hidden=(8, 8))


def archived_run(method, tmp_path, n_sims=6, **run_kwargs):
    """(in-memory result, archive path) of one small run of ``method``."""
    task = ConstrainedSphere(d=4, seed=0)
    x, f = make_initial_set(task, 8, seed=0)
    path = tmp_path / "run.npz"
    result = run_method(method, task, n_sims, x, f, seed=7,
                        maopt_overrides=SMALL_MAOPT,
                        checkpoint_path=str(path), **run_kwargs)
    return result, path


class TestRunArchive:
    """A run's final checkpoint is its archive: :func:`load_result` gives
    back the in-memory result."""

    @pytest.mark.parametrize("method", ["MA-Opt", "BO", "PPO"])
    def test_all_fields_survive(self, method, tmp_path):
        result, path = archived_run(method, tmp_path)
        loaded = load_result(path)
        assert loaded.task_name == result.task_name
        assert loaded.method == result.method == method
        assert loaded.init_best_fom == result.init_best_fom
        assert loaded.wall_time_s == result.wall_time_s > 0
        assert loaded.n_sims == result.n_sims == 6
        for a, b in zip(loaded.records, result.records):
            assert a.index == b.index
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.metrics, b.metrics)
            assert a.fom == b.fom
            assert a.kind == b.kind
            assert a.owner == b.owner
            assert a.feasible == b.feasible
            assert a.t_wall == b.t_wall

    def test_custom_run_name_survives(self, tmp_path):
        from repro.core.config import MAOptConfig
        from repro.core.ma_opt import MAOptimizer

        task = ConstrainedSphere(d=4, seed=0)
        path = tmp_path / "run.npz"
        result = MAOptimizer(task, MAOptConfig(seed=0, **SMALL_MAOPT)).run(
            n_sims=6, n_init=8, method_name="2-actor",
            checkpoint_path=str(path))
        assert load_result(path).method == result.method == "2-actor"

    def test_traces_identical(self, tmp_path):
        result, path = archived_run("MA-Opt", tmp_path)
        loaded = load_result(path)
        np.testing.assert_array_equal(loaded.best_fom_trace(),
                                      result.best_fom_trace())
        np.testing.assert_array_equal(loaded.fom_vs_runtime(),
                                      result.fom_vs_runtime())

    def test_archives_load_without_pickle(self, tmp_path):
        _, path = archived_run("PPO", tmp_path)
        with np.load(path, allow_pickle=False) as data:
            for key in data.files:
                assert data[key].dtype != object, key

    def test_older_archive_refused(self, tmp_path):
        _, path = archived_run("BO", tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["__header__"]))
        header["checkpoint_version"] = CHECKPOINT_VERSION - 1
        arrays["__header__"] = np.array(json.dumps(header))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint "
                                             "version"):
            load_result(path)

    def test_foreign_archive_version_refused(self, tmp_path):
        _, path = archived_run("MA-Opt", tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["__header__"]))
        header["checkpoint_version"] = 99
        arrays["__header__"] = np.array(json.dumps(header))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_result(path)

    def test_archive_suffix_appended(self, tmp_path):
        task = ConstrainedSphere(d=4, seed=0)
        x, f = make_initial_set(task, 8, seed=0)
        result = run_method("Random", task, 3, x, f, seed=7,
                            checkpoint_path=str(tmp_path / "run"))
        assert (tmp_path / "run.npz").exists()
        assert load_result(tmp_path / "run.npz").n_sims == result.n_sims == 3

    def test_zero_post_init_records(self, tmp_path):
        _, path = archived_run("Random", tmp_path, n_sims=0)
        loaded = load_result(path)
        assert loaded.records == [] and loaded.method == "Random"

    def test_zero_record_archive_keeps_init_best(self, tmp_path):
        result, path = archived_run("Random", tmp_path, n_sims=0)
        loaded = load_result(path)
        assert loaded.n_sims == 0
        assert loaded.best_fom == result.best_fom == result.init_best_fom
