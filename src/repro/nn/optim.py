"""First-order optimizers updating :class:`repro.nn.layers.Parameter`.

An optimizer works on the flat value/grad buffers its parameters tile (see
:func:`repro.nn.layers.pack_parameters`), so each step is one vectorized
update over every weight; its per-parameter state lives in flat buffers of
the same layout.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter, pack_parameters


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = lr
        self._values, self._grads = pack_parameters(self.params)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a buffer laid out like ``_values``."""
        views, off = [], 0
        for p in self.params:
            views.append(flat[off:off + p.value.size].reshape(p.value.shape))
            off += p.value.size
        return views

    def state_dict(self) -> dict:
        """Snapshot of the optimizer's mutable state (moments, step count).

        Values are either scalars or lists of arrays (one per parameter);
        restoring via :meth:`load_state_dict` makes subsequent steps
        bit-identical to an uninterrupted optimizer — the contract the
        checkpoint/resume layer relies on.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state:
            raise ValueError(f"{type(self).__name__} holds no state, got "
                             f"keys {sorted(state)}")

    def _load_split(self, flat: np.ndarray, arrays: list) -> None:
        """Copy per-parameter arrays into a buffer laid out like ``_values``."""
        for dst, src in zip(self._split(flat), arrays):
            dst[...] = src


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self, params: list[Parameter], lr: float = 1e-2, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = np.zeros_like(self._values)

    def step(self) -> None:
        if self.momentum:
            v = self._velocity
            v *= self.momentum
            v -= self.lr * self._grads
            self._values += v
        else:
            self._values -= self.lr * self._grads

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._split(self._velocity)]}

    def load_state_dict(self, state: dict) -> None:
        if len(state["velocity"]) != len(self.params):
            raise ValueError("velocity list length mismatch")
        self._load_split(self._velocity, state["velocity"])


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.betas = (b1, b2)
        self.eps = eps
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._t = 0

    def step(self) -> None:
        b1, b2 = self.betas
        self._t += 1
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        g, m, v = self._grads, self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        self._values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_dict(self) -> dict:
        return {
            "t": self._t,
            "m": [m.copy() for m in self._split(self._m)],
            "v": [v.copy() for v in self._split(self._v)],
        }

    def load_state_dict(self, state: dict) -> None:
        if (len(state["m"]) != len(self.params)
                or len(state["v"]) != len(self.params)):
            raise ValueError("moment list length mismatch")
        self._t = int(state["t"])
        self._load_split(self._m, state["m"])
        self._load_split(self._v, state["v"])
