"""Behavioural tests for the baseline optimizers."""

import numpy as np
import pytest

from repro.baselines import BayesOpt, PPOSizer, RandomSearch
from repro.core.fom import FigureOfMerit
from repro.core.synthetic import ConstrainedSphere


@pytest.fixture
def task():
    return ConstrainedSphere(d=5, seed=2)


ALL = [RandomSearch, BayesOpt, PPOSizer]


class TestProtocol:
    @pytest.mark.parametrize("cls", ALL)
    def test_budget_respected(self, cls, task):
        res = cls(task, seed=0).run(n_sims=15, n_init=10)
        assert res.n_sims == 15

    @pytest.mark.parametrize("cls", ALL)
    def test_shared_init_set_used(self, cls, task, rng):
        x = task.space.sample(rng, 8)
        f = task.evaluate_batch(x)
        fom = FigureOfMerit(task)
        res = cls(task, seed=0).run(n_sims=5, x_init=x, f_init=f)
        assert res.init_best_fom == pytest.approx(float(np.min(fom(f))))

    @pytest.mark.parametrize("cls", ALL)
    def test_designs_stay_in_cube(self, cls, task):
        res = cls(task, seed=0).run(n_sims=25, n_init=10)
        for r in res.records:
            assert np.all(r.x >= 0.0) and np.all(r.x <= 1.0)

    @pytest.mark.parametrize("cls", ALL)
    def test_deterministic_given_seed(self, cls, task, rng):
        x = task.space.sample(rng, 8)
        f = task.evaluate_batch(x)
        a = cls(task, seed=5).run(n_sims=10, x_init=x, f_init=f)
        b = cls(task, seed=5).run(n_sims=10, x_init=x, f_init=f)
        np.testing.assert_allclose(a.foms, b.foms)

    @pytest.mark.parametrize("cls", ALL)
    def test_method_name_recorded(self, cls, task):
        res = cls(task, seed=0).run(n_sims=3, n_init=5)
        assert res.method == cls.method_name


class TestOptimizationQuality:
    def test_bo_beats_random_on_smooth_task(self, task, rng):
        x = task.space.sample(rng, 15)
        f = task.evaluate_batch(x)
        bo = BayesOpt(task, seed=1).run(n_sims=30, x_init=x, f_init=f)
        rnd = RandomSearch(task, seed=1).run(n_sims=30, x_init=x, f_init=f)
        assert bo.best_fom < rnd.best_fom


class TestValidation:
    def test_bo_candidate_pool(self, task):
        with pytest.raises(ValueError):
            BayesOpt(task, n_candidates=1)

