"""The multi-layer perceptron behind MA-Opt's actors and critic and PPO.

MA-Opt's actors and critic are both 2-hidden-layer, 100-unit MLPs; PPO's
policy and value networks are smaller tanh ones.  Each network keeps all
its weights in one flat value buffer and all its gradients in one flat
grad buffer, so zeroing the gradients and an optimizer step are each one
array operation over the whole network.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, he_normal

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("identity", "tanh")


class MLP:
    """Fully-connected feed-forward network ``x @ W + b`` per layer.

    Parameters
    ----------
    sizes:
        Layer widths, e.g. ``[d_in, 100, 100, d_out]``.
    activation:
        Hidden activation, ``relu`` (He-normal weights) or ``tanh``
        (Glorot-uniform weights).  ReLU maps a NaN pre-activation to 0.
    output_activation:
        ``identity`` (default) or ``tanh``; MA-Opt's actors use ``tanh``
        so actions live in a bounded box.
    seed:
        Seed of the generator the weights are drawn from, layer by layer.
        Biases start at zero.

    ``weights`` are per-array views of the flat ``values`` buffer in
    checkpoint order (``W0, b0, W1, b1, ...``); ``grads`` is laid out the
    same way.
    """

    def __init__(self, sizes: list[int], activation: str = "relu",
                 output_activation: str = "identity",
                 seed: int | None = None) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if min(sizes) <= 0:
            raise ValueError("layer sizes must be positive")
        if activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; options: "
                             f"{HIDDEN_ACTIVATIONS}")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}"
                             f"; options: {OUTPUT_ACTIVATIONS}")
        self.sizes = list(sizes)
        self.activation = activation
        self.output_activation = output_activation
        self._shapes: list[tuple[int, ...]] = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            self._shapes += [(n_in, n_out), (n_out,)]
        n = sum(int(np.prod(shape)) for shape in self._shapes)
        self.values = np.zeros(n)
        self.grads = np.zeros(n)
        self.weights = self.views(self.values)
        self._grad_views = self.views(self.grads)
        init = he_normal if activation == "relu" else glorot_uniform
        rng = np.random.default_rng(seed)
        for w in self.weights[::2]:
            w[...] = init(*w.shape, rng)
        # Per-layer inputs, hidden activations (ReLU masks or tanh outputs)
        # and the tanh output, cached by forward for the backward passes.
        self._xs: list[np.ndarray] | None = None
        self._acts: list[np.ndarray] = []
        self._y: np.ndarray | None = None

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-array views of a buffer laid out like :attr:`values`."""
        out, off = [], 0
        for shape in self._shapes:
            k = int(np.prod(shape))
            out.append(flat[off:off + k].reshape(shape))
            off += k
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Outputs for a batch (a single sample is promoted to a row)."""
        out = np.atleast_2d(np.asarray(x, dtype=float))
        w = self.weights
        n = len(w) // 2
        self._xs, self._acts = [], []
        for k in range(n):
            self._xs.append(out)
            out = out @ w[2 * k] + w[2 * k + 1]
            if k < n - 1:
                if self.activation == "relu":
                    mask = out > 0.0
                    self._acts.append(mask)
                    out = np.where(mask, out, 0.0)
                else:
                    out = np.tanh(out)
                    self._acts.append(out)
            elif self.output_activation == "tanh":
                out = np.tanh(out)
                self._y = out
        return out

    def _output_grad(self, grad_out: np.ndarray) -> np.ndarray:
        if self._xs is None:
            raise RuntimeError("backward called before forward")
        grad = np.atleast_2d(grad_out)
        if self.output_activation == "tanh":
            grad = grad * (1.0 - self._y**2)
        return grad

    def _hidden_grad(self, grad: np.ndarray, k: int) -> np.ndarray:
        """``grad`` w.r.t. hidden layer ``k``'s output, taken back through
        its activation."""
        if self.activation == "relu":
            return grad * self._acts[k]
        return grad * (1.0 - self._acts[k]**2)

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate ``dL/dW`` and ``dL/db`` into :attr:`grads`.

        ``grad_out`` is ``dL/d(output)`` for the last :meth:`forward` batch.
        """
        grad = self._output_grad(grad_out)
        w, g = self.weights, self._grad_views
        for k in range(len(w) // 2 - 1, -1, -1):
            g[2 * k] += self._xs[k].T @ grad
            g[2 * k + 1] += grad.sum(axis=0)
            if k:
                grad = self._hidden_grad(grad @ w[2 * k].T, k - 1)

    def input_grad(self, grad_out: np.ndarray) -> np.ndarray:
        """``dL/dx`` for the last :meth:`forward` batch; grads untouched.

        This is how actors are trained through a frozen critic: nothing
        accumulates into :attr:`grads`.
        """
        grad = self._output_grad(grad_out)
        w = self.weights
        for k in range(len(w) // 2 - 1, 0, -1):
            grad = self._hidden_grad(grad @ w[2 * k].T, k - 1)
        return grad @ w[0].T

    def zero_grad(self) -> None:
        """Zero every gradient (one fill of the flat grad buffer)."""
        self.grads.fill(0.0)

    def get_weights(self) -> list[np.ndarray]:
        """Snapshot all weights and biases (copies)."""
        return [w.copy() for w in self.weights]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load weights and biases from :meth:`get_weights` output."""
        if len(weights) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} arrays, got {len(weights)}")
        for j, (dst, src) in enumerate(zip(self.weights, weights)):
            if dst.shape != np.shape(src):
                raise ValueError(f"shape mismatch for array {j}: "
                                 f"{dst.shape} vs {np.shape(src)}")
        for dst, src in zip(self.weights, weights):
            dst[...] = src
