"""Tests for result save/load round-tripping."""

import numpy as np
import pytest

from repro.core.serialize import load_result, save_result


@pytest.fixture
def result():
    from repro.core.config import MAOptConfig
    from repro.core.ma_opt import MAOptimizer
    from repro.core.synthetic import ConstrainedSphere

    task = ConstrainedSphere(d=4, seed=0)
    cfg = MAOptConfig(seed=0, critic_steps=10, actor_steps=5, batch_size=8,
                      n_elite=5, hidden=(8, 8))
    return MAOptimizer(task, cfg).run(n_sims=6, n_init=8)


class TestRoundTrip:
    def test_all_fields_survive(self, result, tmp_path):
        path = tmp_path / "run.npz"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.task_name == result.task_name
        assert loaded.method == result.method
        assert loaded.init_best_fom == pytest.approx(result.init_best_fom)
        assert loaded.wall_time_s == pytest.approx(result.wall_time_s)
        assert loaded.n_sims == result.n_sims
        for a, b in zip(loaded.records, result.records):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.metrics, b.metrics)
            assert a.fom == pytest.approx(b.fom)
            assert a.kind == b.kind
            assert a.owner == b.owner
            assert a.feasible == b.feasible
            assert a.t_wall == pytest.approx(b.t_wall)

    def test_traces_identical(self, result, tmp_path):
        path = tmp_path / "run.npz"
        save_result(result, path)
        loaded = load_result(path)
        np.testing.assert_allclose(loaded.best_fom_trace(),
                                   result.best_fom_trace())

    def test_suffix_appended(self, result, tmp_path):
        path = tmp_path / "run"
        save_result(result, path)
        assert (tmp_path / "run.npz").exists()

    def test_empty_result(self, tmp_path):
        from repro.core.result import OptimizationResult

        empty = OptimizationResult("t", "m", init_best_fom=1.0)
        save_result(empty, tmp_path / "e.npz")
        loaded = load_result(tmp_path / "e.npz")
        assert loaded.n_sims == 0
        assert loaded.best_fom == 1.0

    def test_version_check(self, result, tmp_path):
        import json

        path = tmp_path / "run.npz"
        save_result(result, path)
        with np.load(path, allow_pickle=True) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["header"]))
        header["version"] = 99
        arrays["header"] = np.array(json.dumps(header))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_result(path)


class TestComparisonArchive:
    def test_save_load_comparison(self, result, tmp_path):
        from repro.core.serialize import load_comparison, save_comparison

        results = {"MA-Opt": [result], "Random": [result, result]}
        written = save_comparison(results, tmp_path / "runs")
        assert len(written) == 3
        loaded = load_comparison(tmp_path / "runs")
        assert set(loaded) == {"MA-Opt", "Random"}
        assert len(loaded["Random"]) == 2
        import numpy as np

        np.testing.assert_allclose(loaded["MA-Opt"][0].foms, result.foms)

    def test_comparison_curves_survive(self, result, tmp_path):
        from repro.core.serialize import load_comparison, save_comparison
        from repro.experiments import fom_curves

        save_comparison({"m": [result]}, tmp_path / "c")
        curves = fom_curves(load_comparison(tmp_path / "c"))
        assert "m" in curves


class TestPickleFreeFormat:
    def test_archives_load_without_pickle(self, result, tmp_path):
        path = tmp_path / "run.npz"
        save_result(result, path)
        # a v2 archive must be fully readable with pickle disabled
        with np.load(path, allow_pickle=False) as data:
            for key in data.files:
                assert data[key].dtype != object
                data[key]  # force decompression of every array

    def test_version_1_archives_are_rejected(self, result, tmp_path):
        import json

        path = tmp_path / "run.npz"
        save_result(result, path)
        # rewrite as a faithful v1 archive: object-dtype kinds + version 1
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["header"]))
        header["version"] = 1
        arrays["header"] = np.array(json.dumps(header))
        arrays["kinds"] = np.array([str(k) for k in arrays["kinds"]],
                                   dtype=object)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unsupported result format "
                                             "version 1"):
            load_result(path)

    def test_empty_result_round_trips(self, tmp_path):
        from repro.core.result import OptimizationResult

        empty = OptimizationResult(task_name="t", method="m", records=[],
                                   init_best_fom=1.0, wall_time_s=0.0)
        path = tmp_path / "empty.npz"
        save_result(empty, path)
        loaded = load_result(path)
        assert loaded.records == [] and loaded.method == "m"
