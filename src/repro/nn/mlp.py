"""Multi-layer perceptron assembled from :mod:`repro.nn.layers`.

MA-Opt's actors and critic are both 2-hidden-layer, 100-unit MLPs; this
class is the shared implementation.  Each network keeps all its weights in
one flat value buffer and all its gradients in one flat grad buffer (the
layers' parameters are views into them), so zeroing the gradients and an
optimizer step are each one array operation over the whole network.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Identity,
    Linear,
    Module,
    Parameter,
    make_activation,
    pack_parameters,
)


class MLP(Module):
    """Fully-connected feed-forward network.

    Parameters
    ----------
    sizes:
        Layer widths, e.g. ``[d_in, 100, 100, d_out]``.
    activation:
        Hidden activation name (``tanh``, ``relu``, ...).
    output_activation:
        Activation applied to the final layer (default ``identity``;
        MA-Opt actors use ``tanh`` so actions live in a bounded box).
    seed:
        Seed for weight initialization; pass ``rng`` instead for full
        control.
    """

    def __init__(
        self,
        sizes: list[int],
        activation: str = "relu",
        output_activation: str = "identity",
        weight_init: str | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if rng is None:
            rng = np.random.default_rng(seed)
        if weight_init is None:
            weight_init = "he_normal" if activation == "relu" else "glorot_uniform"
        self.sizes = list(sizes)
        self.layers: list[Module] = []
        n_affine = len(sizes) - 1
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.layers.append(
                Linear(n_in, n_out, rng=rng, weight_init=weight_init, name=f"fc{i}")
            )
            if i < n_affine - 1:
                self.layers.append(make_activation(activation))
            else:
                self.layers.append(make_activation(output_activation))
        # Drop a trailing Identity for speed/clarity.
        if isinstance(self.layers[-1], Identity):
            self.layers.pop()
        self._grads = pack_parameters(self.parameters())[1]

    @property
    def in_features(self) -> int:
        return self.sizes[0]

    @property
    def out_features(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        grad = np.atleast_2d(grad_out)
        for layer in reversed(self.layers):
            grad = layer.backward(grad, param_grads)
        return grad

    def zero_grad(self) -> None:
        """Zero every gradient (one fill of the flat grad buffer)."""
        self._grads.fill(0.0)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without keeping shapes 2-D for single samples."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        out = self.forward(x)
        return out[0] if single else out

    def get_weights(self) -> list[np.ndarray]:
        """Snapshot all parameter values (copies)."""
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameter values from :meth:`get_weights` output."""
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(
                f"expected {len(params)} arrays, got {len(weights)}"
            )
        for p, w in zip(params, weights):
            if p.value.shape != np.asarray(w).shape:
                raise ValueError(
                    f"shape mismatch for {p.name}: {p.value.shape} vs {np.shape(w)}"
                )
            p.value[...] = w

    def copy(self) -> "MLP":
        """Structural + weight copy into fresh value and gradient buffers."""
        clone = MLP.__new__(MLP)
        clone.sizes = list(self.sizes)
        clone.layers = []
        for layer in self.layers:
            if isinstance(layer, Linear):
                new = Linear.__new__(Linear)
                new.weight = Parameter(layer.weight.value.copy(), layer.weight.name)
                new.bias = Parameter(layer.bias.value.copy(), layer.bias.name)
                new._x = None
                clone.layers.append(new)
            else:
                clone.layers.append(type(layer)())
        clone._grads = pack_parameters(clone.parameters())[1]
        return clone
