"""Property-based tests for the neural-network substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, Adam


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient."""
    diff = pred - target
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


@st.composite
def architectures(draw):
    n_hidden = draw(st.integers(0, 3))
    sizes = [draw(st.integers(1, 6))]
    sizes += [draw(st.integers(2, 12)) for _ in range(n_hidden)]
    sizes.append(draw(st.integers(1, 4)))
    activation = draw(st.sampled_from(["tanh", "relu"]))
    return sizes, activation


@given(architectures(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_forward_shape_for_any_architecture(arch, seed):
    sizes, activation = arch
    net = MLP(sizes, activation=activation, seed=seed)
    x = np.random.default_rng(seed).normal(size=(5, sizes[0]))
    out = net.forward(x)
    assert out.shape == (5, sizes[-1])
    assert np.all(np.isfinite(out))


@given(architectures(), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_gradcheck_any_architecture(arch, seed):
    """Backprop matches finite differences for arbitrary architectures."""
    sizes, activation = arch
    net = MLP(sizes, activation=activation, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(3, sizes[0]))
    target = rng.normal(size=(3, sizes[-1]))
    pred = net.forward(x)
    _, dloss = mse_loss(pred, target)
    net.zero_grad()
    net.backward(dloss)
    # check one weight of the first layer against finite differences
    flat, gflat = net.values, net.grads
    idx = rng.integers(0, net.weights[0].size)
    eps = 1e-6
    orig = flat[idx]
    flat[idx] = orig + eps
    hi, _ = mse_loss(net.forward(x), target)
    flat[idx] = orig - eps
    lo, _ = mse_loss(net.forward(x), target)
    flat[idx] = orig
    fd = (hi - lo) / (2 * eps)
    assert abs(gflat[idx] - fd) < 1e-4 * max(1.0, abs(fd))


@given(st.integers(0, 2**31 - 1), st.floats(1e-4, 1e-1))
@settings(max_examples=20, deadline=None)
def test_adam_reduces_loss_on_regression(seed, lr):
    rng = np.random.default_rng(seed)
    net = MLP([3, 16, 1], activation="tanh", seed=seed)
    opt = Adam(net, lr=lr)
    x = rng.uniform(-1, 1, size=(64, 3))
    y = x[:, :1] * 0.5
    first, _ = mse_loss(net.forward(x), y)
    for _ in range(60):
        pred = net.forward(x)
        _, d = mse_loss(pred, y)
        net.zero_grad()
        net.backward(d)
        opt.step()
    last, _ = mse_loss(net.forward(x), y)
    assert last <= first + 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_weight_roundtrip_preserves_function(seed):
    rng = np.random.default_rng(seed)
    net = MLP([4, 8, 2], seed=seed)
    x = rng.normal(size=(6, 4))
    before = net.forward(x)
    clone = MLP([4, 8, 2], seed=seed + 1)
    clone.set_weights(net.get_weights())
    np.testing.assert_allclose(clone.forward(x), before, atol=1e-12)
