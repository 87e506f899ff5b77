"""Unit tests for repro.nn.mlp."""

import numpy as np
import pytest

from repro.nn import MLP, Adam


class TestConstruction:
    def test_layer_count(self):
        net = MLP([4, 8, 8, 2], seed=0)
        # 3 affine layers + 2 hidden activations (+ output identity dropped)
        assert len(net.layers) == 5

    def test_tanh_output_kept(self):
        net = MLP([2, 4, 1], output_activation="tanh", seed=0)
        assert len(net.layers) == 4

    def test_too_few_sizes_raises(self):
        with pytest.raises(ValueError):
            MLP([3])

    def test_in_out_features(self):
        net = MLP([7, 5, 3], seed=0)
        assert net.in_features == 7
        assert net.out_features == 3


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

    def test_predict_single_sample_returns_1d(self):
        net = MLP([4, 8, 2], seed=0)
        assert net.predict(np.zeros(4)).shape == (2,)

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
        for p in net.parameters():
            p.value += 1.0
        assert not np.allclose(net.forward(x), before)
        net.set_weights(weights)
        np.testing.assert_allclose(net.forward(x), before)

    def test_set_weights_wrong_count_raises(self):
        net = MLP([3, 5, 2], seed=0)
        with pytest.raises(ValueError):
            net.set_weights(net.get_weights()[:-1])

    def test_set_weights_wrong_shape_raises(self):
        net = MLP([3, 5, 2], seed=0)
        w = net.get_weights()
        w[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.set_weights(w)

    def test_copy_is_independent(self, rng):
        net = MLP([3, 5, 2], seed=0)
        clone = net.copy()
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(net.forward(x), clone.forward(x))
        for p in clone.parameters():
            p.value += 1.0
        assert not np.allclose(net.forward(x), clone.forward(x))
        # Neither copy() nor set_weights() shares a value or grad buffer
        # with the source: training the result leaves the source untouched.
        net.forward(rng.normal(size=(4, 3)))
        net.backward(rng.normal(size=(4, 2)))
        loaded = MLP([3, 5, 2], seed=1)
        weights = net.get_weights()
        loaded.set_weights(weights)
        arrays = [a for p in net.parameters() for a in (p.value, p.grad)]
        values = [p.value.copy() for p in net.parameters()]
        grads = [p.grad.copy() for p in net.parameters()]
        for other in (net.copy(), loaded):
            for p in other.parameters():
                for a in (p.value, p.grad):
                    assert not any(np.shares_memory(a, b)
                                   for b in arrays + weights)
            other.forward(rng.normal(size=(4, 3)))
            other.zero_grad()
            other.backward(rng.normal(size=(4, 2)))
            Adam(other.parameters(), lr=0.1).step()
            for p, value, grad in zip(net.parameters(), values, grads):
                np.testing.assert_array_equal(p.value, value)
                np.testing.assert_array_equal(p.grad, grad)


class TestTraining:
    def test_can_fit_linear_map(self, rng):
        net = MLP([2, 32, 1], activation="tanh", seed=0)
        from repro.nn import Adam, mse_loss

        opt = Adam(net.parameters(), lr=1e-2)
        w_true = np.array([[1.5], [-0.7]])
        x = rng.uniform(-1, 1, size=(128, 2))
        y = x @ w_true
        for _ in range(300):
            pred = net.forward(x)
            loss, dloss = mse_loss(pred, y)
            net.zero_grad()
            net.backward(dloss)
            opt.step()
        assert loss < 1e-3
