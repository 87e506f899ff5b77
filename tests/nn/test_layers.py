"""Unit tests for repro.nn.layers."""

import numpy as np
import pytest

from repro.nn.layers import (
    Identity,
    LeakyReLU,
    Linear,
    Parameter,
    ReLU,
    Sigmoid,
    Tanh,
    make_activation,
    pack_parameters,
)
from repro.nn.mlp import MLP


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0.0)

    def test_zero_grad_resets(self):
        p = Parameter(np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_shape_property(self):
        assert Parameter(np.zeros((5, 7))).shape == (5, 7)


class TestPackParameters:
    def test_loose_parameters_are_packed_in_order(self):
        a, b = Parameter(np.ones((2, 3))), Parameter(np.arange(4.0))
        b.grad += 2.0
        values, grads = pack_parameters([a, b])
        np.testing.assert_array_equal(values, np.r_[np.ones(6), np.arange(4.0)])
        np.testing.assert_array_equal(grads, np.r_[np.zeros(6), np.full(4, 2.0)])
        values[:] = 7.0
        grads[:] = 1.0
        assert a.value.shape == (2, 3) and np.all(a.value == 7.0)
        assert np.all(b.grad == 1.0)

    def test_tiled_parameters_keep_their_buffer(self, rng):
        net = MLP([3, 4, 2], seed=0)
        params = net.parameters()
        weights = net.get_weights()
        values, grads = pack_parameters(params)
        tail, _ = pack_parameters(params[2:])
        assert all(np.shares_memory(values, p.value) for p in params)
        tail[:] = 0.0
        np.testing.assert_array_equal(params[0].value, weights[0])
        assert np.all(params[2].value == 0.0)
        net.forward(rng.normal(size=(5, 3)))
        net.backward(rng.normal(size=(5, 2)))
        assert np.any(grads != 0.0)
        net.zero_grad()
        assert np.all(grads == 0.0)

    def test_backward_without_param_grads_leaves_grads(self, rng):
        net = MLP([3, 4, 2], seed=0)
        x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        net.forward(x)
        din = net.backward(g)
        grads = [p.grad.copy() for p in net.parameters()]
        net.forward(x)
        np.testing.assert_array_equal(net.backward(g, param_grads=False), din)
        for p, before in zip(net.parameters(), grads):
            np.testing.assert_array_equal(p.grad, before)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(10, 4)))
        assert out.shape == (10, 3)

    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_single_sample_promoted_to_2d(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer.forward(np.ones(4))
        assert out.shape == (1, 3)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(2, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_backward_accumulates_weight_grad(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        layer.forward(x)
        g = np.ones((4, 2))
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, x.T @ g)
        np.testing.assert_allclose(layer.bias.grad, g.sum(axis=0))

    def test_backward_returns_input_grad(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        layer.forward(x)
        g = rng.normal(size=(4, 2))
        din = layer.backward(g)
        np.testing.assert_allclose(din, g @ layer.weight.value.T)

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)

    def test_parameters_listed(self, rng):
        layer = Linear(2, 2, rng=rng)
        assert len(layer.parameters()) == 2


@pytest.mark.parametrize("cls,fn,dfn", [
    (Tanh, np.tanh, lambda x: 1 - np.tanh(x) ** 2),
    (ReLU, lambda x: np.maximum(x, 0), lambda x: (x > 0).astype(float)),
    (Sigmoid, lambda x: 1 / (1 + np.exp(-x)),
     lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
])
class TestActivations:
    def test_forward(self, cls, fn, dfn, rng):
        act = cls()
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(act.forward(x), fn(x), atol=1e-12)

    def test_backward(self, cls, fn, dfn, rng):
        act = cls()
        x = rng.normal(size=(3, 5))
        act.forward(x)
        g = rng.normal(size=(3, 5))
        np.testing.assert_allclose(act.backward(g), g * dfn(x), atol=1e-12)


class TestLeakyReLU:
    def test_negative_slope(self):
        act = LeakyReLU(0.1)
        x = np.array([[-2.0, 3.0]])
        np.testing.assert_allclose(act.forward(x), [[-0.2, 3.0]])

    def test_backward_slopes(self):
        act = LeakyReLU(0.1)
        x = np.array([[-1.0, 1.0]])
        act.forward(x)
        np.testing.assert_allclose(act.backward(np.ones_like(x)), [[0.1, 1.0]])

    def test_invalid_slope_raises(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.5)


class TestIdentity:
    def test_passthrough(self, rng):
        act = Identity()
        x = rng.normal(size=(2, 2))
        np.testing.assert_array_equal(act.forward(x), x)
        np.testing.assert_array_equal(act.backward(x), x)


class TestMakeActivation:
    def test_known_names(self):
        assert isinstance(make_activation("tanh"), Tanh)
        assert isinstance(make_activation("relu"), ReLU)

    def test_unknown_raises_with_options(self):
        with pytest.raises(KeyError, match="tanh"):
            make_activation("nope")
