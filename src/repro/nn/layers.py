"""Layers with explicit forward/backward passes.

Every layer caches what it needs during :meth:`forward` and consumes the
cache in :meth:`backward`.  Parameters are exposed as :class:`Parameter`
objects (value + grad) so optimizers can update them in place;
:func:`pack_parameters` lays a parameter list out in one flat value buffer
and one flat grad buffer, so whole-network updates are single array ops.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import get_initializer


class Parameter:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


def _tiled_range(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The flat slice of one base buffer that ``arrays`` tile in order, or
    ``None`` when they are not consecutive C-contiguous views of one base."""
    base = arrays[0].base
    if base is None or base.ndim != 1:
        return None
    addr0 = base.__array_interface__["data"][0]
    start = (arrays[0].__array_interface__["data"][0] - addr0) // base.itemsize
    end = start
    for a in arrays:
        if (a.base is not base or not a.flags.c_contiguous
                or a.__array_interface__["data"][0]
                != addr0 + end * base.itemsize):
            return None
        end += a.size
    return base[start:end]


def pack_parameters(params: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(values, grads)`` buffers whose consecutive slices are the
    parameters' ``value``/``grad`` arrays, in list order.

    Parameters that already tile one buffer (an :class:`~repro.nn.MLP`'s)
    get views of it back, so every holder updates the same memory.
    Otherwise their current values and grads are copied into fresh buffers
    and each ``Parameter`` is rebound to views of them.
    """
    values = _tiled_range([p.value for p in params])
    grads = _tiled_range([p.grad for p in params])
    if values is not None and grads is not None:
        return values, grads
    n = sum(p.value.size for p in params)
    values, grads = np.empty(n), np.empty(n)
    off = 0
    for p in params:
        k = p.value.size
        values[off:off + k] = p.value.ravel()
        grads[off:off + k] = p.grad.ravel()
        p.value = values[off:off + k].reshape(p.value.shape)
        p.grad = grads[off:off + k].reshape(p.grad.shape)
        off += k
    return values, grads


class Module:
    """Base class: a differentiable map with (possibly zero) parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        """Propagate ``dL/d(output)`` to ``dL/d(input)``, accumulating
        parameter gradients along the way unless ``param_grads`` is false
        (back-propagating through a frozen network to its inputs)."""
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x W + b`` for batched row-vector inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        weight_init: str = "glorot_uniform",
        name: str = "linear",
        seed: int | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer sizes must be positive")
        # Initialization draws come from the caller's generator, or one
        # derived from ``seed`` — never from an unseeded stream, so
        # weights are reproducible in every construction path.
        rng = rng if rng is not None else np.random.default_rng(seed)
        init = get_initializer(weight_init)
        self.weight = Parameter(init(in_features, out_features, rng), f"{name}.W")
        self.bias = Parameter(np.zeros(out_features), f"{name}.b")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(grad_out)
        if param_grads:
            self.weight.grad += self._x.T @ grad_out
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        if negative_slope < 0:
            raise ValueError("negative_slope must be >= 0")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * np.where(self._mask, 1.0, self.negative_slope)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise evaluation.
        out = np.empty_like(np.asarray(x, dtype=float))
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._y = out
        return out

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._y * (1.0 - self._y)


class Identity(Module):
    """No-op activation (for linear output layers)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        return grad_out


ACTIVATIONS = {
    "tanh": Tanh,
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "identity": Identity,
}


def make_activation(name: str) -> Module:
    """Instantiate an activation by name."""
    try:
        return ACTIVATIONS[name]()
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; options: {sorted(ACTIVATIONS)}"
        ) from None
