"""Weight initialization schemes for :class:`repro.nn.MLP`."""

from __future__ import annotations

import numpy as np


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    Samples from ``U(-limit, limit)`` with ``limit = sqrt(6 / (fan_in +
    fan_out))``.  Appropriate for tanh networks such as PPO's policy and
    value networks.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_normal(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He normal initialization, for ReLU networks (the actors and critic)."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))
