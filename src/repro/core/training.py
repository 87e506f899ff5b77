"""Critic and actor training loops (Eqs. 4-6).

Critic: plain MSE regression over pseudo-sample batches (Eq. 4).

Actor: minimize, over a batch of states x_k drawn from X^tot,

    L(theta_mu) = mean_k ( g[Q(x_k, mu(x_k))] + || lambda * viol_k ||_2 )

(Eq. 5), where viol_k penalizes actions that leave the elite-solution-set
bounding box (Eq. 6).  Gradients flow through the frozen critic into the
actor: the critic is back-propagated to its inputs only, so no critic
parameter gradient is computed.
"""

from __future__ import annotations

import numpy as np

from repro.core.fom import FigureOfMerit
from repro.core.networks import Actor, Critic
from repro.core.population import EliteSet, TotalDesignSet
from repro.core.pseudo import pseudo_sample_batch
from repro.obs import NULL_TELEMETRY, Telemetry


def train_critic(critic: Critic, total: TotalDesignSet, steps: int,
                 batch_size: int, rng: np.random.Generator,
                 telemetry: Telemetry | None = None) -> float:
    """Run ``steps`` critic updates on fresh pseudo-sample batches.

    The scaler is refit on X^tot and its metric matrix z-scored once; each
    batch then indexes the scaled rows (the transform is elementwise, so
    this equals scaling every batch).  Returns the mean loss over the last
    10 steps (for diagnostics).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    obs = telemetry or NULL_TELEMETRY
    with obs.span("critic-train", steps=steps, n_total=len(total)):
        metrics = total.metrics
        critic.fit_scaler(metrics)
        scaled = critic.scaler.transform(metrics)
        losses = []
        for _ in range(steps):
            inputs, targets = pseudo_sample_batch(total, batch_size, rng,
                                                  targets=scaled)
            losses.append(critic.train_step_scaled(inputs, targets))
    return float(np.mean(losses[-10:]))


def boundary_violation(x: np.ndarray, actions: np.ndarray,
                       lb: np.ndarray, ub: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 6: per-dimension violation of the elite bounding box.

    Returns ``(viol, dviol_da)`` where ``viol = max(0, lb - (x+a)) +
    max(0, (x+a) - ub)`` and ``dviol_da`` is its derivative w.r.t. the
    action (-1 below the box, +1 above, 0 inside).
    """
    nxt = x + actions
    below = lb - nxt
    above = nxt - ub
    viol = np.maximum(0.0, below) + np.maximum(0.0, above)
    dviol = np.where(below > 0.0, -1.0, 0.0) + np.where(above > 0.0, 1.0, 0.0)
    return viol, dviol


def train_actor(actor: Actor, critic: Critic, fom: FigureOfMerit,
                total: TotalDesignSet, elite: EliteSet, steps: int,
                batch_size: int, lambda_viol: float,
                rng: np.random.Generator,
                telemetry: Telemetry | None = None,
                actor_index: int | None = None) -> float:
    """Run ``steps`` actor updates (Eq. 5); returns the final loss value.

    The critic stays frozen: each step back-propagates through it to its
    inputs only (``input_grad``), leaving its weights and gradient buffer
    untouched.

    Batch states are drawn from X^tot plus the elite solution set tiled to
    at least X^tot's size, so about half come from each: the paper uses
    the elite set to "limit the search space of an actor network", and the
    X^tot half keeps the policy trained on the wider landscape.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    obs = telemetry or NULL_TELEMETRY
    with obs.span("actor-train", steps=steps, actor=actor_index):
        lb, ub = elite.bounds()
        elite_designs = elite.designs()
        reps = int(np.ceil(len(total) / max(len(elite_designs), 1)))
        designs = np.concatenate(
            [total.designs, np.tile(elite_designs, (reps, 1))])
        n = len(designs)
        loss_val = 0.0
        for _ in range(steps):
            idx = rng.integers(0, n, size=min(batch_size, n))
            x = designs[idx]
            nb = x.shape[0]
            # Forward: actor -> action -> critic -> raw metrics -> FoM.
            actions_raw = actor.net.forward(x)       # tanh output in [-1,1]
            actions = actions_raw * actor.action_scale
            critic_in = np.concatenate([x, actions], axis=1)
            q_scaled = critic.net.forward(critic_in)
            metrics = critic.scaler.inverse(q_scaled)
            g = fom(metrics)
            viol, dviol = boundary_violation(x, actions, lb, ub)
            lam_viol = lambda_viol * viol
            norms = np.sqrt((lam_viol**2).sum(axis=1))
            loss_val = float(np.mean(g) + np.mean(norms))
            # Backward: dL/d(metrics) -> dL/d(q_scaled) -> critic input grad.
            dmetrics = fom.gradient(metrics) / nb
            dq = dmetrics * critic.scaler.jacobian_from_raw(metrics)
            din = critic.net.input_grad(dq)
            dactions = din[:, actor.d:]
            # Violation-norm: d||w|| / da_j = w_j * lambda * dviol_j / ||w||.
            safe = np.where(norms > 1e-12, norms, 1.0)[:, None]
            dnorm = np.where(norms[:, None] > 1e-12,
                             lam_viol * lambda_viol * dviol / safe, 0.0) / nb
            dactions = dactions + dnorm
            actor.net.zero_grad()
            actor.net.backward(dactions * actor.action_scale)
            actor.opt.step()
    return loss_val


def propose_design(actor: Actor, critic: Critic, fom: FigureOfMerit,
                   elite: EliteSet,
                   exclude: list[np.ndarray] | None = None,
                   min_dist: float = 0.05,
                   telemetry: Telemetry | None = None) -> np.ndarray:
    """Alg. 1 lines 8-9: pick the elite state whose actor-proposed successor
    the critic predicts to be best, and return that successor (clipped to
    the unit cube) for simulation.

    ``exclude`` holds proposals already claimed by other actors in the same
    round; candidates within ``min_dist`` (Euclidean, normalized space) of
    any of them are skipped so parallel actors spend the round's simulations
    on *diverse* designs (the point of having multiple actors).  If every
    candidate is too close, the predicted-best one is returned anyway.
    """
    states = elite.designs()
    if len(states) == 0:
        raise ValueError("empty elite set")
    obs = telemetry or NULL_TELEMETRY
    with obs.span("propose", n_states=len(states)):
        actions = actor.act(states)
        g = fom(critic.predict(states, actions))
        order = np.argsort(g)
        successors = np.clip(states + actions, 0.0, 1.0)
        if exclude:
            taken = np.array(exclude)
            for k in order:
                cand = successors[k]
                if np.min(np.linalg.norm(taken - cand, axis=1)) >= min_dist:
                    return cand
        return successors[int(order[0])]
