"""A small, dependency-free neural-network library built on numpy.

This is the substrate MA-Opt's actor and critic networks run on.  It
implements exactly what the paper needs — fully-connected feed-forward
networks with manual reverse-mode differentiation, MSE-style losses, and
first-order optimizers (SGD with momentum, Adam) — so no PyTorch is
required.

Each :class:`MLP` keeps all its weights in one flat value buffer and all
its gradients in one flat grad buffer; every layer's ``Parameter`` is a
view into them.  ``zero_grad`` is one fill, and an optimizer step is one
vectorized update over the whole buffer (with its moments in flat buffers
of the same layout), while ``state_dict`` still reports one array per
parameter.  ``backward(grad, param_grads=False)`` back-propagates to the
inputs without touching the gradient buffer — how actors are trained
through a frozen critic.

Example
-------
>>> import numpy as np
>>> from repro.nn import MLP, Adam, mse_loss
>>> net = MLP([4, 32, 32, 2], activation="tanh", seed=0)
>>> opt = Adam(net.parameters(), lr=1e-3)
>>> x = np.random.default_rng(0).normal(size=(16, 4))
>>> y = np.zeros((16, 2))
>>> for _ in range(10):
...     pred = net.forward(x)
...     loss, dloss = mse_loss(pred, y)
...     net.zero_grad()
...     net.backward(dloss)
...     opt.step()
"""

from repro.nn.initializers import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import (
    Identity,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import huber_loss, mae_loss, mse_loss
from repro.nn.mlp import MLP
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.utils import numerical_gradient

__all__ = [
    "Module",
    "Linear",
    "Tanh",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Identity",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "mse_loss",
    "mae_loss",
    "huber_loss",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "numerical_gradient",
]
