"""Flatten optimizer/network state to named arrays (and back).

Checkpoints store everything as flat ``{name: array}`` maps (see
:mod:`repro.resilience.checkpoint`).  This module converts the stateful
pieces of the MA-Opt stack — MLP weights, Adam moments, the critic's
metric scaler, numpy ``Generator`` states — to and from that shape.
Restores are *exact*: resuming reproduces the very float sequence an
uninterrupted run would have produced.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "capture_actor",
    "capture_critic",
    "capture_mlp",
    "capture_optimizer",
    "restore_actor",
    "restore_critic",
    "restore_mlp",
    "restore_optimizer",
    "rng_state",
    "set_rng_state",
]


# -- numpy Generator state ----------------------------------------------------
def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """JSON-safe snapshot of a ``Generator``'s bit-generator state."""
    # dict() rather than the raw Mapping: detaches the snapshot from the
    # live generator and matches the declared (JSON-friendly) type.
    return dict(rng.bit_generator.state)


def set_rng_state(rng: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a snapshot taken by :func:`rng_state` (exact continuation)."""
    rng.bit_generator.state = state


# -- MLPs and their optimizers ------------------------------------------------
def capture_mlp(prefix: str, net) -> dict[str, np.ndarray]:
    return {f"{prefix}/w{j}": w for j, w in enumerate(net.get_weights())}


def restore_mlp(prefix: str, net, arrays: dict[str, np.ndarray]) -> None:
    net.set_weights(
        [arrays[f"{prefix}/w{j}"] for j in range(len(net.weights))])


def capture_optimizer(prefix: str, opt) -> dict[str, np.ndarray]:
    """Flatten ``opt.state_dict()`` (lists become ``key0, key1, ...``)."""
    out: dict[str, np.ndarray] = {}
    for key, value in opt.state_dict().items():
        if isinstance(value, list):
            for j, arr in enumerate(value):
                out[f"{prefix}/{key}{j}"] = arr
        else:
            out[f"{prefix}/{key}"] = np.asarray(value)
    return out


def restore_optimizer(prefix: str, opt,
                      arrays: dict[str, np.ndarray]) -> None:
    """Inverse of :func:`capture_optimizer` (shapes come from the live
    optimizer's own state dict, so no schema is stored)."""
    state: dict[str, Any] = {}
    for key, value in opt.state_dict().items():
        if isinstance(value, list):
            state[key] = [arrays[f"{prefix}/{key}{j}"]
                          for j in range(len(value))]
        else:
            state[key] = arrays[f"{prefix}/{key}"][()]
    opt.load_state_dict(state)


# -- actor / critic -----------------------------------------------------------
def capture_actor(prefix: str, actor) -> dict[str, np.ndarray]:
    out = capture_mlp(f"{prefix}/net", actor.net)
    out.update(capture_optimizer(f"{prefix}/opt", actor.opt))
    return out


def restore_actor(prefix: str, actor, arrays: dict[str, np.ndarray]) -> None:
    restore_mlp(f"{prefix}/net", actor.net, arrays)
    restore_optimizer(f"{prefix}/opt", actor.opt, arrays)


def _capture_single_critic(prefix: str, critic) -> dict[str, np.ndarray]:
    out = capture_mlp(f"{prefix}/net", critic.net)
    out.update(capture_optimizer(f"{prefix}/opt", critic.opt))
    return out


def _restore_single_critic(prefix: str, critic,
                           arrays: dict[str, np.ndarray]) -> None:
    restore_mlp(f"{prefix}/net", critic.net, arrays)
    restore_optimizer(f"{prefix}/opt", critic.opt, arrays)


def capture_critic(prefix: str, critic) -> dict[str, np.ndarray]:
    """Capture a ``Critic`` or ``CriticEnsemble`` (members + shared scaler)."""
    members = getattr(critic, "members", None)
    if members is None:
        out = _capture_single_critic(prefix, critic)
    else:
        out = {}
        for k, member in enumerate(members):
            out.update(_capture_single_critic(f"{prefix}/m{k}", member))
    out[f"{prefix}/scaler_mean"] = np.asarray(critic.scaler.mean)
    out[f"{prefix}/scaler_std"] = np.asarray(critic.scaler.std)
    return out


def restore_critic(prefix: str, critic,
                   arrays: dict[str, np.ndarray]) -> None:
    members = getattr(critic, "members", None)
    if members is None:
        _restore_single_critic(prefix, critic, arrays)
    else:
        for k, member in enumerate(members):
            _restore_single_critic(f"{prefix}/m{k}", member, arrays)
    critic.scaler.mean = np.array(arrays[f"{prefix}/scaler_mean"])
    critic.scaler.std = np.array(arrays[f"{prefix}/scaler_std"])
