"""Checkpoint layout of the actor and critic state.

Networks and Adam keep flat buffers, but checkpoints stay per-parameter:
``{prefix}/net/w0..w5`` for the weights and biases of the three affine
layers, ``{prefix}/opt/m0..m5`` / ``v0..v5`` for Adam's moments and
``{prefix}/opt/t`` for its step count.  Checkpoints written in that layout
must restore into the flat buffers and continue bit-exact.
"""

import numpy as np

from repro.core.networks import Actor, Critic, CriticEnsemble
from repro.resilience.state import (
    capture_actor,
    capture_critic,
    restore_actor,
    restore_critic,
)

D, N_METRICS, HIDDEN = 15, 4, 100


def layer_shapes(n_in, n_out):
    return [(n_in, HIDDEN), (HIDDEN,), (HIDDEN, HIDDEN), (HIDDEN,),
            (HIDDEN, n_out), (n_out,)]


def expected_layout(prefix, n_in, n_out):
    shapes = layer_shapes(n_in, n_out)
    layout = {f"{prefix}/opt/t": ()}
    for j, shape in enumerate(shapes):
        layout[f"{prefix}/net/w{j}"] = shape
        layout[f"{prefix}/opt/m{j}"] = shape
        layout[f"{prefix}/opt/v{j}"] = shape
    return layout


def layout(arrays):
    return {key: np.shape(value) for key, value in arrays.items()}


def train_actor_steps(actor, seed, steps):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        out = actor.net.forward(rng.uniform(size=(8, D)))
        actor.net.zero_grad()
        actor.net.backward(out - 0.5)
        actor.opt.step()


def test_actor_layout_is_per_parameter():
    actor = Actor(D, seed=0)
    train_actor_steps(actor, 0, 2)
    assert layout(capture_actor("actor0", actor)) == expected_layout(
        "actor0", D, D)


def test_critic_layout_is_per_parameter():
    scaler = {"critic/scaler_mean": (N_METRICS,),
              "critic/scaler_std": (N_METRICS,)}
    critic = Critic(D, N_METRICS, seed=0)
    assert layout(capture_critic("critic", critic)) == {
        **expected_layout("critic", 2 * D, N_METRICS), **scaler}
    ensemble = CriticEnsemble(D, N_METRICS, 2, seed=0)
    assert layout(capture_critic("critic", ensemble)) == {
        **expected_layout("critic/m0", 2 * D, N_METRICS),
        **expected_layout("critic/m1", 2 * D, N_METRICS), **scaler}


def test_per_parameter_checkpoint_restores_into_flat_buffers():
    """A dict built array by array, in the per-parameter layout, restores
    into a fresh actor that then continues exactly like the original."""
    actor = Actor(D, seed=0)
    train_actor_steps(actor, 1, 3)
    opt_state = actor.opt.state_dict()
    arrays = {"actor0/opt/t": np.asarray(opt_state["t"])}
    for j, w in enumerate(actor.net.weights):
        arrays[f"actor0/net/w{j}"] = np.array(w)
        arrays[f"actor0/opt/m{j}"] = np.array(opt_state["m"][j])
        arrays[f"actor0/opt/v{j}"] = np.array(opt_state["v"][j])

    resumed = Actor(D, seed=99)
    restore_actor("actor0", resumed, arrays)
    train_actor_steps(actor, 2, 4)
    train_actor_steps(resumed, 2, 4)
    for a, b in zip(actor.net.get_weights(), resumed.net.get_weights(),
                    strict=True):
        assert np.array_equal(a, b)
    for key in ("m", "v"):
        for a, b in zip(actor.opt.state_dict()[key],
                        resumed.opt.state_dict()[key], strict=True):
            assert np.array_equal(a, b)


def test_critic_roundtrip_continues_bit_exact():
    rng = np.random.default_rng(2)
    inputs = rng.uniform(size=(16, 2 * D))
    targets = rng.normal(size=(16, N_METRICS))
    critic = Critic(D, N_METRICS, seed=0)
    critic.fit_scaler(targets)
    for _ in range(3):
        critic.train_step(inputs, targets)
    resumed = Critic(D, N_METRICS, seed=7)
    restore_critic("critic", resumed, capture_critic("critic", critic))
    for _ in range(3):
        assert critic.train_step(inputs, targets) == resumed.train_step(
            inputs, targets)
    for a, b in zip(critic.net.get_weights(), resumed.net.get_weights(),
                    strict=True):
        assert np.array_equal(a, b)
