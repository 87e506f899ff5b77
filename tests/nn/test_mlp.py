"""Unit tests for repro.nn.mlp."""

import numpy as np
import pytest

from repro.nn import MLP, Adam


class TestConstruction:
    def test_layer_count(self):
        net = MLP([4, 8, 8, 2], seed=0)
        # 3 affine layers, each a weight matrix and a bias
        assert len(net.weights) == 6

    def test_tanh_output_kept(self, rng):
        x = rng.normal(size=(5, 2))
        linear = MLP([2, 4, 1], seed=0).forward(x)
        squashed = MLP([2, 4, 1], output_activation="tanh", seed=0).forward(x)
        np.testing.assert_array_equal(squashed, np.tanh(linear))

    def test_too_few_sizes_raises(self):
        with pytest.raises(ValueError):
            MLP([3])

    def test_in_out_features(self):
        net = MLP([7, 5, 3], seed=0)
        assert net.weights[0].shape[0] == 7
        assert net.weights[-1].shape == (3,)


class TestForward:
    def test_shapes(self, rng):
        net = MLP([4, 16, 3], seed=0)
        assert net.forward(rng.normal(size=(9, 4))).shape == (9, 3)

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(5, 4))
        a = MLP([4, 8, 2], seed=42).forward(x)
        b = MLP([4, 8, 2], seed=42).forward(x)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, rng):
        x = rng.normal(size=(5, 4))
        a = MLP([4, 8, 2], seed=1).forward(x)
        b = MLP([4, 8, 2], seed=2).forward(x)
        assert not np.allclose(a, b)

    def test_tanh_output_bounded(self, rng):
        net = MLP([3, 16, 3], output_activation="tanh", seed=0)
        out = net.forward(rng.normal(size=(20, 3)) * 10)
        assert np.all(np.abs(out) <= 1.0)


class TestWeights:
    def test_get_set_roundtrip(self, rng):
        net = MLP([3, 5, 2], seed=0)
        x = rng.normal(size=(4, 3))
        before = net.forward(x)
        weights = net.get_weights()
        net.values += 1.0
        assert not np.allclose(net.forward(x), before)
        net.set_weights(weights)
        np.testing.assert_allclose(net.forward(x), before)

    def test_set_weights_wrong_count_raises(self):
        net = MLP([3, 5, 2], seed=0)
        with pytest.raises(ValueError, match="expected 4 arrays"):
            net.set_weights(net.get_weights()[:-1])

    def test_set_weights_wrong_shape_raises(self):
        net = MLP([3, 5, 2], seed=0)
        before = net.values.copy()
        w = [np.zeros_like(a) for a in net.weights]
        w[-1] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.set_weights(w)
        # A rejected load leaves every weight as it was.
        np.testing.assert_array_equal(net.values, before)

    def test_copy_is_independent(self, rng):
        """Neither get_weights() nor set_weights() shares a value or grad
        buffer with the source: training the loaded net leaves the source
        untouched."""
        net = MLP([3, 5, 2], seed=0)
        net.forward(rng.normal(size=(4, 3)))
        net.backward(rng.normal(size=(4, 2)))
        loaded = MLP([3, 5, 2], seed=1)
        weights = net.get_weights()
        loaded.set_weights(weights)
        for w in weights:
            assert not np.shares_memory(w, net.values)
        for a in (loaded.values, loaded.grads):
            assert not any(np.shares_memory(a, b)
                           for b in [net.values, net.grads, *weights])
        values, grads = net.values.copy(), net.grads.copy()
        loaded.forward(rng.normal(size=(4, 3)))
        loaded.backward(rng.normal(size=(4, 2)))
        Adam(loaded, lr=0.1).step()
        np.testing.assert_array_equal(net.values, values)
        np.testing.assert_array_equal(net.grads, grads)


class TestTraining:
    def test_can_fit_linear_map(self, rng):
        net = MLP([2, 32, 1], activation="tanh", seed=0)
        opt = Adam(net, lr=1e-2)
        w_true = np.array([[1.5], [-0.7]])
        x = rng.uniform(-1, 1, size=(128, 2))
        y = x @ w_true
        for _ in range(300):
            diff = net.forward(x) - y
            loss = float(np.mean(diff**2))
            net.zero_grad()
            net.backward(2.0 * diff / diff.size)
            opt.step()
        assert loss < 1e-3
