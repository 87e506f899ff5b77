"""Tests for training extensions: proposal diversity and per-simulation
training equalization."""

import numpy as np
import pytest

from repro.core.config import MAOptConfig
from repro.core.fom import FigureOfMerit
from repro.core.ma_opt import MAOptimizer
from repro.core.networks import Actor, Critic
from repro.core.population import EliteSet, TotalDesignSet
from repro.core.synthetic import ConstrainedSphere
from repro.core.training import propose_design


@pytest.fixture
def setup(rng):
    task = ConstrainedSphere(d=4, seed=0)
    fom = FigureOfMerit(task)
    total = TotalDesignSet(task.d, task.m + 1)
    for x in task.space.sample(rng, 30):
        mv = task.evaluate(x)
        total.add(x, mv, float(fom(mv)))
    critic = Critic(task.d, task.m + 1, hidden=(16, 16), seed=1)
    critic.fit_scaler(total.metrics)
    actor = Actor(task.d, hidden=(16, 16), seed=2, action_scale=0.3)
    elite = EliteSet(total, n_es=6)
    return task, fom, total, critic, actor, elite


class TestProposalDiversity:
    def test_excluded_neighbourhood_avoided(self, setup):
        task, fom, total, critic, actor, elite = setup
        first = propose_design(actor, critic, fom, elite)
        second = propose_design(actor, critic, fom, elite,
                                exclude=[first], min_dist=0.05)
        # Either the second proposal is genuinely far from the first, or
        # every candidate was close and the fallback returned the argmin.
        states = elite.designs()
        succ = np.clip(states + actor.act(states), 0.0, 1.0)
        distances = np.linalg.norm(succ - first, axis=1)
        if np.any(distances >= 0.05):
            assert np.linalg.norm(second - first) >= 0.05

    def test_fallback_when_all_candidates_taken(self, setup):
        task, fom, total, critic, actor, elite = setup
        states = elite.designs()
        succ = np.clip(states + actor.act(states), 0.0, 1.0)
        # Exclude everything with a huge radius: must still return a design.
        out = propose_design(actor, critic, fom, elite,
                             exclude=[s for s in succ], min_dist=10.0)
        assert out.shape == (task.d,)

    def test_round_proposals_pairwise_distinct(self):
        task = ConstrainedSphere(d=6, seed=2)
        cfg = MAOptConfig(seed=0, critic_steps=10, actor_steps=5,
                          batch_size=16, n_elite=6, hidden=(16, 16),
                          proposal_min_dist=0.05)
        opt = MAOptimizer(task, cfg)
        opt.initialize(n_init=15)
        recs = opt.step()
        xs = [r.x for r in recs]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                # distinct unless the fallback fired (rare with fresh nets)
                assert np.linalg.norm(xs[i] - xs[j]) > 1e-9


class TestTrainingEqualization:
    def test_critic_steps_scaled_by_round_size(self, monkeypatch):
        task = ConstrainedSphere(d=4, seed=1)
        cfg = MAOptConfig(seed=0, n_actors=3, critic_steps=7, actor_steps=3,
                          batch_size=8, n_elite=5, hidden=(8, 8))
        opt = MAOptimizer(task, cfg)
        opt.initialize(n_init=10)
        seen = {}

        import repro.core.ma_opt as mod

        real = mod.train_critic

        def spy(critic, total, steps, batch_size, rng, **kwargs):
            seen["steps"] = steps
            return real(critic, total, steps, batch_size, rng, **kwargs)

        monkeypatch.setattr(mod, "train_critic", spy)
        opt.optimization_round()
        assert seen["steps"] == 21  # 7 * 3 actors
