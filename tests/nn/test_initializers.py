"""Unit tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import MLP, glorot_uniform, he_normal


class TestGlorot:
    def test_bounds(self, rng):
        w = glorot_uniform(100, 50, rng)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert w.shape == (100, 50)

    def test_spread_uses_range(self, rng):
        w = glorot_uniform(200, 200, rng)
        limit = np.sqrt(6.0 / 400)
        assert np.max(np.abs(w)) > 0.8 * limit


class TestHeNormal:
    def test_std_close_to_target(self, rng):
        w = he_normal(400, 100, rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.1)

    def test_mean_near_zero(self, rng):
        w = he_normal(300, 300, rng)
        assert abs(w.mean()) < 0.01


class TestRegistry:
    def test_lookup(self):
        """ReLU networks draw He-normal weights, tanh networks Glorot-uniform
        ones, layer by layer from ``default_rng(seed)``; biases start at 0."""
        for activation, init in (("relu", he_normal), ("tanh", glorot_uniform)):
            net = MLP([3, 5, 2], activation=activation, seed=7)
            rng = np.random.default_rng(7)
            expected = [init(3, 5, rng), np.zeros(5),
                        init(5, 2, rng), np.zeros(2)]
            for w, e in zip(net.weights, expected, strict=True):
                np.testing.assert_array_equal(w, e)
