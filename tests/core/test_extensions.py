"""Tests for the optional critic ensemble (``n_critics > 1``)."""

import numpy as np
import pytest

from repro.core.config import MAOptConfig
from repro.core.ma_opt import MAOptimizer
from repro.core.networks import Critic, CriticEnsemble
from repro.core.synthetic import ConstrainedSphere

FAST = dict(critic_steps=20, actor_steps=10, batch_size=16, n_elite=6)


class TestCriticEnsemble:
    def test_predict_is_member_mean(self, rng):
        ens = CriticEnsemble(3, 2, n_members=3, hidden=(8,), seed=0)
        x = rng.uniform(size=(5, 3))
        dx = rng.uniform(size=(5, 3)) * 0.1
        expected = np.mean([m.predict(x, dx) for m in ens.members], axis=0)
        np.testing.assert_allclose(ens.predict(x, dx), expected)

    def test_members_have_distinct_weights(self):
        ens = CriticEnsemble(3, 2, n_members=2, hidden=(8,), seed=0)
        w0 = ens.members[0].net.get_weights()[0]
        w1 = ens.members[1].net.get_weights()[0]
        assert not np.allclose(w0, w1)

    def test_shared_scaler(self, rng):
        ens = CriticEnsemble(3, 2, n_members=3, hidden=(8,), seed=0)
        ens.fit_scaler(rng.normal(5.0, 2.0, size=(20, 2)))
        for m in ens.members:
            assert m.scaler is ens.scaler

    def test_training_reduces_loss(self, rng):
        ens = CriticEnsemble(2, 1, n_members=2, hidden=(16,), lr=3e-3, seed=0)
        x = rng.uniform(size=(64, 2))
        dx = np.zeros_like(x)
        y = x.sum(axis=1, keepdims=True)
        ens.fit_scaler(y)
        inputs = np.concatenate([x, dx], axis=1)
        first = ens.train_step(inputs, y)
        for _ in range(150):
            last = ens.train_step(inputs, y)
        assert last < first

    def test_backward_matches_mean_of_members(self, rng):
        """Input gradient of the ensemble == mean of member input grads."""
        ens = CriticEnsemble(3, 2, n_members=2, hidden=(8,), seed=0)
        x = rng.uniform(size=(4, 6))
        out = ens.forward(x)
        grad = np.ones_like(out)
        din = ens.input_grad(grad)
        member_grads = []
        for m in ens.members:
            m.net.forward(x)
            member_grads.append(m.net.input_grad(grad))
        np.testing.assert_allclose(din, np.mean(member_grads, axis=0),
                                   atol=1e-12)

    def test_parameter_count_scales(self):
        single = CriticEnsemble(3, 2, n_members=1, hidden=(8,), seed=0)
        triple = CriticEnsemble(3, 2, n_members=3, hidden=(8,), seed=0)
        assert triple.parameter_count() == 3 * single.parameter_count()

    def test_bad_member_count_raises(self):
        with pytest.raises(ValueError):
            CriticEnsemble(3, 2, n_members=0)


class TestOptimizerWithExtensions:
    def test_multi_critic_run(self):
        task = ConstrainedSphere(d=5, seed=1)
        cfg = MAOptConfig(seed=0, n_critics=3, hidden=(16, 16), **FAST)
        res = MAOptimizer(task, cfg).run(n_sims=9, n_init=10)
        assert res.n_sims == 9
        assert res.best_fom <= res.init_best_fom

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MAOptConfig(n_critics=0)
