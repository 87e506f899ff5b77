"""Adam over an :class:`~repro.nn.MLP`'s flat buffers.

Each step is one vectorized update of the network's value buffer from its
grad buffer; the moments live in flat buffers of the same layout, while
``state_dict`` reports them one array per weight or bias.
"""

from __future__ import annotations

import numpy as np

from repro.nn.mlp import MLP


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(self, net: MLP, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.net = net
        self.lr = lr
        self.betas = (b1, b2)
        self.eps = eps
        self._m = np.zeros_like(net.values)
        self._v = np.zeros_like(net.values)
        self._t = 0

    def step(self) -> None:
        """One update of the network's values from its grads."""
        b1, b2 = self.betas
        self._t += 1
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        g, m, v = self.net.grads, self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        self.net.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_dict(self) -> dict:
        """The moments (one array per weight or bias) and the step count.

        Restoring it via :meth:`load_state_dict` makes subsequent steps
        bit-identical to an uninterrupted optimizer — the contract the
        checkpoint/resume layer relies on.
        """
        return {
            "t": self._t,
            "m": [m.copy() for m in self.net.views(self._m)],
            "v": [v.copy() for v in self.net.views(self._v)],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        n = len(self.net.weights)
        if len(state["m"]) != n or len(state["v"]) != n:
            raise ValueError("moment list length mismatch")
        self._t = int(state["t"])
        for key, flat in (("m", self._m), ("v", self._v)):
            for dst, src in zip(self.net.views(flat), state[key]):
                dst[...] = src
