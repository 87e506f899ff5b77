"""Per-layer behaviour of :class:`repro.nn.MLP`: its flat parameter
buffers, one affine layer (a single-layer MLP) and the activations."""

import numpy as np
import pytest

from repro.nn import MLP


def identity_net(n: int, activation: str = "relu") -> MLP:
    """``[n, n, n]`` net with identity weights and zero biases, so its
    output is the hidden activation of its input."""
    net = MLP([n, n, n], activation=activation, seed=0)
    net.set_weights([np.eye(n), np.zeros(n), np.eye(n), np.zeros(n)])
    return net


class TestParameter:
    def test_grad_starts_zero(self):
        net = MLP([2, 3], seed=0)
        assert net.grads.shape == net.values.shape == (9,)
        assert np.all(net.grads == 0.0)

    def test_zero_grad_resets(self):
        net = MLP([2, 3], seed=0)
        net.grads += 2.0
        net.zero_grad()
        assert np.all(net.grads == 0.0)

    def test_shape_property(self):
        shapes = [w.shape for w in MLP([5, 7, 2], seed=0).weights]
        assert shapes == [(5, 7), (7,), (7, 2), (2,)]


class TestPackParameters:
    def test_tiled_parameters_keep_their_buffer(self, rng):
        net = MLP([3, 4, 2], seed=0)
        weights = net.get_weights()
        assert all(np.shares_memory(net.values, w) for w in net.weights)
        net.values[3 * 4 + 4:] = 0.0
        np.testing.assert_array_equal(net.weights[0], weights[0])
        assert np.all(net.weights[2] == 0.0)
        net.forward(rng.normal(size=(5, 3)))
        net.backward(rng.normal(size=(5, 2)))
        assert np.any(net.grads != 0.0)
        net.zero_grad()
        assert np.all(net.grads == 0.0)

    def test_backward_without_param_grads_leaves_grads(self, rng):
        """``input_grad`` back-propagates to the inputs without touching the
        grad buffer, and ``backward`` does not change what it returns."""
        net = MLP([3, 4, 2], seed=0)
        x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        net.forward(x)
        din = net.input_grad(g)
        assert np.all(net.grads == 0.0)
        net.backward(g)
        grads = net.grads.copy()
        np.testing.assert_array_equal(net.input_grad(g), din)
        np.testing.assert_array_equal(net.grads, grads)

    def test_backward_accumulates(self, rng):
        net = MLP([3, 4, 2], seed=0)
        net.forward(rng.normal(size=(5, 3)))
        g = rng.normal(size=(5, 2))
        net.backward(g)
        once = net.grads.copy()
        net.backward(g)
        np.testing.assert_array_equal(net.grads, 2.0 * once)


class TestLinear:
    """A single-layer MLP is one affine layer ``y = x W + b``."""

    def test_forward_shape(self, rng):
        net = MLP([4, 3], seed=0)
        out = net.forward(rng.normal(size=(10, 4)))
        assert out.shape == (10, 3)

    def test_forward_matches_matmul(self, rng):
        net = MLP([4, 3], seed=0)
        net.weights[1][:] = rng.normal(size=3)
        x = rng.normal(size=(5, 4))
        expected = x @ net.weights[0] + net.weights[1]
        np.testing.assert_allclose(net.forward(x), expected)

    def test_single_sample_promoted_to_2d(self):
        net = MLP([4, 3], seed=0)
        out = net.forward(np.ones(4))
        assert out.shape == (1, 3)

    def test_backward_before_forward_raises(self):
        net = MLP([2, 2], seed=0)
        with pytest.raises(RuntimeError):
            net.backward(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            net.input_grad(np.ones((1, 2)))

    def test_backward_accumulates_weight_grad(self, rng):
        net = MLP([3, 2], seed=0)
        x = rng.normal(size=(4, 3))
        net.forward(x)
        g = np.ones((4, 2))
        net.backward(g)
        dW, db = net.views(net.grads)
        np.testing.assert_allclose(dW, x.T @ g)
        np.testing.assert_allclose(db, g.sum(axis=0))

    def test_backward_returns_input_grad(self, rng):
        net = MLP([3, 2], seed=0)
        net.forward(rng.normal(size=(4, 3)))
        g = rng.normal(size=(4, 2))
        np.testing.assert_allclose(net.input_grad(g), g @ net.weights[0].T)

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError):
            MLP([0, 3])
        with pytest.raises(ValueError):
            MLP([3, -1])

    def test_parameters_listed(self):
        assert len(MLP([2, 2], seed=0).weights) == 2


@pytest.mark.parametrize("name,fn,dfn", [
    ("Tanh", np.tanh, lambda x: 1 - np.tanh(x) ** 2),
    ("ReLU", lambda x: np.maximum(x, 0), lambda x: (x > 0).astype(float)),
])
class TestActivations:
    def test_forward(self, name, fn, dfn, rng):
        net = identity_net(5, name.lower())
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(net.forward(x), fn(x), atol=1e-12)

    def test_backward(self, name, fn, dfn, rng):
        net = identity_net(5, name.lower())
        x = rng.normal(size=(3, 5))
        net.forward(x)
        g = rng.normal(size=(3, 5))
        np.testing.assert_allclose(net.input_grad(g), g * dfn(x), atol=1e-12)


class TestReLU:
    def test_nan_preactivation_maps_to_zero(self, rng):
        """A NaN pre-activation gives a 0 output and a 0 gradient, exactly
        like a dead unit (``np.where(z > 0, z, 0)``, not ``np.maximum``)."""
        x, g = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        nets = [MLP([3, 5, 2], seed=1) for _ in range(2)]
        nets[0].weights[1][2] = np.nan
        nets[1].weights[1][2] = -1e300
        out, din, grads = [], [], []
        for net in nets:
            out.append(net.forward(x))
            din.append(net.input_grad(g))
            net.backward(g)
            grads.append(net.grads.copy())
        assert np.all(np.isfinite(out[0]))
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(din[0], din[1])
        np.testing.assert_array_equal(grads[0], grads[1])
        dW0, db0 = nets[0].views(grads[0])[:2]
        assert np.all(dW0[:, 2] == 0.0) and db0[2] == 0.0


class TestIdentity:
    def test_passthrough(self, rng):
        net = MLP([2, 2], seed=0)
        net.set_weights([np.eye(2), np.zeros(2)])
        x = rng.normal(size=(2, 2))
        np.testing.assert_array_equal(net.forward(x), x)
        np.testing.assert_array_equal(net.input_grad(x), x)


class TestMakeActivation:
    def test_known_names(self):
        for activation in ("tanh", "relu"):
            for output in ("identity", "tanh"):
                net = MLP([2, 3, 1], activation=activation,
                          output_activation=output, seed=0)
                assert (net.activation, net.output_activation) == (
                    activation, output)

    def test_unknown_raises_with_options(self):
        with pytest.raises(ValueError, match="tanh"):
            MLP([2, 3, 1], activation="nope")
        with pytest.raises(ValueError, match="identity"):
            MLP([2, 3, 1], output_activation="sigmoid")
