"""The numpy MLP and Adam that MA-Opt's actors and critic and PPO run on.

One network shape covers them all: ReLU or tanh hidden layers, a linear
or tanh output, trained with Adam by manual reverse-mode differentiation,
so no PyTorch is required.

Each :class:`MLP` keeps all its weights in one flat value buffer and all
its gradients in one flat grad buffer; ``weights`` are per-array views of
the value buffer.  ``zero_grad`` is one fill, and an :class:`Adam` step is
one vectorized update over the whole buffer (with its moments in flat
buffers of the same layout), while ``state_dict`` still reports one array
per weight or bias.  ``backward`` accumulates parameter gradients only;
``input_grad`` back-propagates to the inputs without touching the grad
buffer — how actors are trained through a frozen critic.

Example
-------
>>> import numpy as np
>>> from repro.nn import MLP, Adam
>>> net = MLP([4, 32, 32, 2], activation="tanh", seed=0)
>>> opt = Adam(net, lr=1e-3)
>>> x = np.random.default_rng(0).normal(size=(16, 4))
>>> y = np.zeros((16, 2))
>>> for _ in range(10):
...     diff = net.forward(x) - y
...     net.zero_grad()
...     net.backward(2.0 * diff / diff.size)
...     opt.step()
>>> net.input_grad(np.ones((16, 2))).shape
(16, 4)
"""

from repro.nn.initializers import glorot_uniform, he_normal
from repro.nn.mlp import MLP
from repro.nn.optim import Adam

__all__ = ["MLP", "Adam", "glorot_uniform", "he_normal"]
