"""Finite-difference validation of the MLP's hand-written backward passes."""

from typing import Callable

import numpy as np
import pytest

from repro.nn import MLP


def numerical_gradient(net: MLP, loss_fn: Callable[[np.ndarray], float],
                       x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``loss_fn(net.forward(x))`` w.r.t.
    every entry of the network's flat value buffer (laid out like
    ``net.grads``).  ``loss_fn`` must be a pure function of the output."""
    flat = net.values
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn(net.forward(x))
        flat[i] = orig - eps
        lo = loss_fn(net.forward(x))
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def loss_fn(out: np.ndarray) -> float:
    """An asymmetric smooth loss to exercise all gradient paths."""
    return float(np.sum(out**2) + 0.3 * np.sum(out**3))


def dloss(out: np.ndarray) -> np.ndarray:
    return 2.0 * out + 0.9 * out**2


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("output_activation", ["identity", "tanh"])
def test_backward_matches_finite_difference(activation, output_activation, rng):
    net = MLP([3, 7, 5, 2], activation=activation,
              output_activation=output_activation, seed=11)
    x = rng.normal(size=(6, 3))
    out = net.forward(x)
    net.zero_grad()
    net.backward(dloss(out))
    analytic = net.grads.copy()
    numeric = numerical_gradient(net, loss_fn, x, eps=1e-6)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


def test_input_gradient_matches_finite_difference(rng):
    """``input_grad`` is what actor training differentiates through the
    critic — it must be exact."""
    for activation, output_activation in (("tanh", "identity"),
                                          ("relu", "tanh")):
        net = MLP([4, 9, 3], activation=activation,
                  output_activation=output_activation, seed=5)
        x = rng.normal(size=(2, 4))
        out = net.forward(x)
        din = net.input_grad(dloss(out))
        eps = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[i, j] += eps
                hi = loss_fn(net.forward(xp))
                xp[i, j] -= 2 * eps
                lo = loss_fn(net.forward(xp))
                fd = (hi - lo) / (2 * eps)
                assert din[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)
