"""AutoCkt-style true-RL baseline: PPO with multi-discrete sizing actions.

The paper's introduction argues that genuine RL sizing agents (AutoCkt
[13], GCN-RL [14], ...) "require thousands of SPICE simulations"; MA-Opt's
whole premise is beating them at a 200-simulation budget.  This module
makes that comparison runnable: a from-scratch PPO agent in the AutoCkt
mold —

* **episodes**: start from a random design, take ``horizon`` steps;
* **observation**: the normalized design concatenated with squashed
  per-constraint violations;
* **action**: per-parameter {down, hold, up} moves of ``step_frac`` of the
  range (multi-discrete categorical policy);
* **reward**: −FoM per step, plus a terminal bonus when all specs are met
  (episode ends early on success);
* **update**: clipped-surrogate PPO with a value baseline and entropy
  bonus, gradients derived analytically through the categorical softmax.

Every environment step costs one simulation, so at MA-Opt's budget the
agent gets only a handful of episodes — reproducing exactly the
sample-inefficiency the paper criticizes (see the RL-budget bench).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineOptimizer
from repro.core.problem import SizingTask
from repro.nn import MLP, Adam

N_CHOICES = 3  # down / hold / up


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class PPOSizer(BaselineOptimizer):
    """PPO sizing agent (see module docstring)."""

    method_name = "PPO"

    def __init__(self, task: SizingTask, seed: int | None = None,
                 horizon: int = 15, step_frac: float = 0.05,
                 hidden: tuple[int, ...] = (64, 64),
                 lr: float = 3e-4, clip: float = 0.2, gamma: float = 0.95,
                 entropy_coef: float = 0.01, epochs: int = 6,
                 success_bonus: float = 10.0, **obs_kwargs) -> None:
        super().__init__(task, seed, **obs_kwargs)
        if horizon < 1 or not 0 < step_frac < 1 or not 0 < clip < 1:
            raise ValueError("bad PPO hyper-parameters")
        self.horizon = horizon
        self.step_frac = step_frac
        self.clip = clip
        self.gamma = gamma
        self.entropy_coef = entropy_coef
        self.epochs = epochs
        self.success_bonus = success_bonus
        d, m1 = task.d, task.m + 1
        obs_dim = d + m1
        self.policy = MLP([obs_dim, *hidden, d * N_CHOICES],
                          activation="tanh", seed=seed)
        self.value = MLP([obs_dim, *hidden, 1], activation="tanh",
                         seed=None if seed is None else seed + 1)
        self.policy_opt = Adam(self.policy, lr=lr)
        self.value_opt = Adam(self.value, lr=lr)
        # episode state
        self._x: np.ndarray | None = None
        self._obs: np.ndarray | None = None
        self._t = 0
        self._traj: list[dict] = []
        self._pending: dict | None = None

    # -- observation/action plumbing ----------------------------------------
    def _observe_metrics(self, metrics: np.ndarray) -> np.ndarray:
        viol = self.fom.violations(metrics[None, :])[0]
        return np.tanh(np.concatenate([[metrics[0]], viol]))

    def _reset_episode(self) -> None:
        self._x = self.rng.uniform(0.0, 1.0, size=self.task.d)
        # cheap proxy obs for the fresh state: zeros until first sim lands
        self._obs = np.concatenate([self._x, np.zeros(self.task.m + 1)])
        self._t = 0

    def _policy_logits(self, obs: np.ndarray) -> np.ndarray:
        out = self.policy.forward(obs[None, :])[0]
        return out.reshape(self.task.d, N_CHOICES)

    def _sample_action(self, obs: np.ndarray) -> tuple[np.ndarray, float]:
        logits = self._policy_logits(obs)
        probs = _softmax(logits)
        choices = np.array([
            self.rng.choice(N_CHOICES, p=probs[i])
            for i in range(self.task.d)
        ])
        logp = float(np.sum(np.log(
            probs[np.arange(self.task.d), choices] + 1e-12)))
        return choices, logp

    # -- BaselineOptimizer interface ------------------------------------------
    def _propose(self) -> np.ndarray:
        if self._x is None or self._t >= self.horizon:
            if self._traj:
                self._update()
            self._reset_episode()
        choices, logp = self._sample_action(self._obs)
        delta = (choices.astype(float) - 1.0) * self.step_frac
        nxt = np.clip(self._x + delta, 0.0, 1.0)
        self._pending = {"obs": self._obs.copy(), "choices": choices,
                         "logp": logp}
        return nxt

    def _observe(self, x: np.ndarray, fom_value: float,
                 metrics: np.ndarray) -> None:
        assert self._pending is not None
        feasible = self.task.is_feasible(metrics)
        reward = -fom_value + (self.success_bonus if feasible else 0.0)
        self._pending["reward"] = reward
        self._traj.append(self._pending)
        self._pending = None
        self._x = x.copy()
        self._obs = np.concatenate([self._x,
                                    self._observe_metrics(metrics)])
        self._t += 1
        if feasible:
            self._t = self.horizon  # early termination on success

    # -- PPO update -----------------------------------------------------------
    def _update(self) -> None:
        traj = self._traj
        self._traj = []
        obs = np.array([step["obs"] for step in traj])
        choices = np.array([step["choices"] for step in traj])
        logp_old = np.array([step["logp"] for step in traj])
        rewards = np.array([step["reward"] for step in traj])
        # discounted returns within the (single) episode chunk
        returns = np.empty_like(rewards)
        acc = 0.0
        for i in range(len(rewards) - 1, -1, -1):
            acc = rewards[i] + self.gamma * acc
            returns[i] = acc
        values = self.value.forward(obs)[:, 0]
        adv = returns - values
        if adv.std() > 1e-8:
            adv = (adv - adv.mean()) / adv.std()
        n, d = obs.shape[0], self.task.d
        rows = np.arange(d)
        for _ in range(self.epochs):
            logits = self.policy.forward(obs).reshape(n, d, N_CHOICES)
            probs = _softmax(logits)
            chosen = probs[np.arange(n)[:, None], rows[None, :], choices]
            logp = np.log(chosen + 1e-12).sum(axis=1)
            ratio = np.exp(np.clip(logp - logp_old, -20.0, 20.0))
            unclipped = ratio * adv
            clipped = np.clip(ratio, 1 - self.clip, 1 + self.clip) * adv
            use_unclipped = unclipped <= clipped
            active = np.where(use_unclipped, ratio, 0.0) * adv
            # d(-surrogate)/dlogits = -active * (onehot - probs) (+ entropy)
            onehot = np.zeros_like(probs)
            onehot[np.arange(n)[:, None], rows[None, :], choices] = 1.0
            grad = -(active[:, None, None] * (onehot - probs)) / n
            # entropy bonus: d(-H)/dlogits = probs * (log probs + H_row)
            logp_full = np.log(probs + 1e-12)
            ent_row = -(probs * logp_full).sum(axis=-1, keepdims=True)
            grad += self.entropy_coef * probs * (logp_full + ent_row) / n
            self.policy.zero_grad()
            self.policy.backward(grad.reshape(n, d * N_CHOICES))
            self.policy_opt.step()
        # value regression
        for _ in range(self.epochs):
            pred = self.value.forward(obs)[:, 0]
            diff = pred - returns
            self.value.zero_grad()
            self.value.backward((2.0 * diff / n)[:, None])
            self.value_opt.step()

    # -- checkpoint state ----------------------------------------------------
    # Bit-exact resume needs the networks, their Adam moments and the
    # episode in flight (checkpoints fall between rounds, so no action is
    # pending).  An empty ``ppo/x`` stands for "no episode started".
    def _state_arrays(self) -> dict[str, np.ndarray]:
        from repro.resilience.state import capture_mlp, capture_optimizer

        d, obs_dim = self.task.d, self.task.d + self.task.m + 1
        traj = self._traj
        return {
            **super()._state_arrays(),
            **capture_mlp("ppo/policy", self.policy),
            **capture_optimizer("ppo/policy_opt", self.policy_opt),
            **capture_mlp("ppo/value", self.value),
            **capture_optimizer("ppo/value_opt", self.value_opt),
            "ppo/x": np.empty(0) if self._x is None else self._x,
            "ppo/obs": np.empty(0) if self._obs is None else self._obs,
            "ppo/t": np.array(self._t),
            "ppo/traj_obs": np.array([s["obs"] for s in traj]).reshape(
                -1, obs_dim),
            "ppo/traj_choices": np.array(
                [s["choices"] for s in traj], dtype=int).reshape(-1, d),
            "ppo/traj_logp": np.array([s["logp"] for s in traj]),
            "ppo/traj_reward": np.array([s["reward"] for s in traj]),
        }

    def _load_state(self, header: dict, arrays: dict[str, np.ndarray]
                    ) -> None:
        from repro.resilience.state import restore_mlp, restore_optimizer

        super()._load_state(header, arrays)
        restore_mlp("ppo/policy", self.policy, arrays)
        restore_optimizer("ppo/policy_opt", self.policy_opt, arrays)
        restore_mlp("ppo/value", self.value, arrays)
        restore_optimizer("ppo/value_opt", self.value_opt, arrays)
        x, obs = arrays["ppo/x"], arrays["ppo/obs"]
        self._x = np.array(x) if x.size else None
        self._obs = np.array(obs) if obs.size else None
        self._t = int(arrays["ppo/t"])
        self._traj = [
            {"obs": np.array(o), "choices": np.array(c), "logp": float(lp),
             "reward": float(r)}
            for o, c, lp, r in zip(
                arrays["ppo/traj_obs"], arrays["ppo/traj_choices"],
                arrays["ppo/traj_logp"], arrays["ppo/traj_reward"])]
