"""Actor and critic networks (Section II-B of the paper).

Both are 2-hidden-layer, 100-unit MLPs by default (the paper's setting).

* The **critic** is a regression model of the SPICE simulator: input
  ``(x, dx)`` in the doubled design space, output the m+1 metrics of
  ``x + dx``.  Metrics are z-scored internally (the scaler is refreshed
  from X^tot each round) so widely different metric units train stably;
  predictions are returned in raw units.
* Each **actor** maps a design x to an action dx = mu(x | theta) in
  ``[-1, 1]^d`` (tanh output), interpreted in the normalized design cube.
"""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Adam


class MetricScaler:
    """Z-score scaler over metric vectors, with optional per-column log10.

    Columns flagged in ``log_mask`` are regressed as ``log10(max(x, floor))``
    — the right representation for positive metrics spanning decades
    (frequencies, settling times, noise densities).  ``inverse`` maps network
    outputs back to raw units, and :meth:`jacobian_from_raw` supplies the
    chain-rule factor actor training needs.
    """

    def __init__(self, n_metrics: int,
                 log_mask: np.ndarray | None = None,
                 log_floors: np.ndarray | None = None) -> None:
        self.mean = np.zeros(n_metrics)
        self.std = np.ones(n_metrics)
        self.log_mask = (np.zeros(n_metrics, dtype=bool) if log_mask is None
                         else np.asarray(log_mask, dtype=bool))
        self.log_floors = (np.full(n_metrics, 1e-15) if log_floors is None
                           else np.asarray(log_floors, dtype=float))
        if self.log_mask.shape != (n_metrics,):
            raise ValueError("log_mask length mismatch")

    def _pre(self, metrics: np.ndarray) -> np.ndarray:
        out = np.array(metrics, dtype=float, copy=True)
        if self.log_mask.any():
            cols = self.log_mask
            out[..., cols] = np.log10(
                np.maximum(out[..., cols], self.log_floors[cols]))
        return out

    def _post(self, pre: np.ndarray) -> np.ndarray:
        out = np.array(pre, dtype=float, copy=True)
        if self.log_mask.any():
            cols = self.log_mask
            out[..., cols] = 10.0 ** np.clip(out[..., cols], -300, 300)
        return out

    def fit(self, metrics: np.ndarray) -> None:
        pre = self._pre(np.atleast_2d(metrics))
        self.mean = pre.mean(axis=0)
        std = pre.std(axis=0)
        self.std = np.where(std < 1e-12, 1.0, std)

    def transform(self, metrics: np.ndarray) -> np.ndarray:
        return (self._pre(metrics) - self.mean) / self.std

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return self._post(scaled * self.std + self.mean)

    def jacobian_from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Elementwise ``d raw / d scaled`` evaluated at raw predictions."""
        jac = np.broadcast_to(self.std, np.shape(raw)).copy()
        if self.log_mask.any():
            cols = self.log_mask
            jac[..., cols] *= np.abs(raw[..., cols]) * np.log(10.0)
        return jac


class Critic:
    """Q(x, dx | theta^Q): simulator surrogate over pseudo-samples."""

    def __init__(self, d: int, n_metrics: int,
                 hidden: tuple[int, ...] = (100, 100),
                 lr: float = 1e-3, seed: int | None = None,
                 log_mask: np.ndarray | None = None,
                 log_floors: np.ndarray | None = None) -> None:
        self.d = d
        self.n_metrics = n_metrics
        self.net = MLP([2 * d, *hidden, n_metrics], activation="relu", seed=seed)
        self.opt = Adam(self.net, lr=lr)
        self.scaler = MetricScaler(n_metrics, log_mask=log_mask,
                                   log_floors=log_floors)

    def fit_scaler(self, metrics: np.ndarray) -> None:
        """Refresh the metric z-scaler from the current total design set."""
        self.scaler.fit(metrics)

    def predict(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """Predicted raw metric vectors for designs ``x`` with actions ``dx``."""
        x = np.atleast_2d(x)
        dx = np.atleast_2d(dx)
        if x.shape != dx.shape or x.shape[1] != self.d:
            raise ValueError("x and dx must both have shape (n, d)")
        scaled = self.net.forward(np.concatenate([x, dx], axis=1))
        return self.scaler.inverse(scaled)

    def train_step(self, inputs: np.ndarray, raw_targets: np.ndarray) -> float:
        """One MSE step on (pseudo-sample) pairs; returns the loss (Eq. 4)."""
        return self.train_step_scaled(
            inputs, self.scaler.transform(np.atleast_2d(raw_targets)))

    def train_step_scaled(self, inputs: np.ndarray,
                          targets: np.ndarray) -> float:
        """:meth:`train_step` on targets already z-scored by the scaler."""
        pred = self.net.forward(np.atleast_2d(inputs))
        diff = pred - targets
        loss = float(np.mean(diff**2))
        grad = (2.0 / diff.size) * diff
        self.net.zero_grad()
        self.net.backward(grad)
        self.opt.step()
        return loss


class CriticEnsemble:
    """An ensemble of critics with the single-critic interface.

    The paper notes that multiple critics "do improve optimization but
    consume more memory"; this class makes that trade-off testable (see the
    multi-critic ablation bench).  Predictions are member means; members
    share each training batch but are decorrelated by their independent
    initializations; gradients w.r.t. inputs are the mean of member
    gradients, so actor training works unchanged.
    """

    def __init__(self, d: int, n_metrics: int, n_members: int,
                 hidden: tuple[int, ...] = (100, 100),
                 lr: float = 1e-3, seed: int | None = None,
                 log_mask: np.ndarray | None = None,
                 log_floors: np.ndarray | None = None) -> None:
        if n_members < 1:
            raise ValueError("ensemble needs at least one member")
        seeds = np.random.SeedSequence(seed).spawn(n_members)
        self.members = [
            Critic(d, n_metrics, hidden=hidden, lr=lr,
                   seed=int(s.generate_state(1)[0]),
                   log_mask=log_mask, log_floors=log_floors)
            for s in seeds
        ]
        self.d = d
        self.n_metrics = n_metrics
        # Shared scaler: members reference the same object.
        self.scaler = self.members[0].scaler
        for m in self.members[1:]:
            m.scaler = self.scaler
        # `net`-protocol facade used by actor training.
        self.net = self

    # -- Critic interface -----------------------------------------------------
    def fit_scaler(self, metrics: np.ndarray) -> None:
        self.scaler.fit(metrics)

    def predict(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        preds = [m.predict(x, dx) for m in self.members]
        return np.mean(preds, axis=0)

    def train_step(self, inputs: np.ndarray, raw_targets: np.ndarray) -> float:
        return self.train_step_scaled(
            inputs, self.scaler.transform(np.atleast_2d(raw_targets)))

    def train_step_scaled(self, inputs: np.ndarray,
                          targets: np.ndarray) -> float:
        losses = [m.train_step_scaled(inputs, targets) for m in self.members]
        return float(np.mean(losses))

    # -- `net` facade (forward/input_grad) -------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.mean([m.net.forward(x) for m in self.members], axis=0)

    def input_grad(self, grad_out: np.ndarray) -> np.ndarray:
        share = grad_out / len(self.members)
        grads = [m.net.input_grad(share) for m in self.members]
        return np.sum(grads, axis=0)

    def parameter_count(self) -> int:
        return sum(m.net.values.size for m in self.members)


class Actor:
    """mu(x | theta^mu_i): proposes the change dx that improves design x."""

    def __init__(self, d: int, hidden: tuple[int, ...] = (100, 100),
                 lr: float = 1e-3, action_scale: float = 1.0,
                 seed: int | None = None) -> None:
        if action_scale <= 0:
            raise ValueError("action_scale must be positive")
        self.d = d
        self.action_scale = action_scale
        self.net = MLP([d, *hidden, d], activation="relu",
                       output_activation="tanh", seed=seed)
        self.opt = Adam(self.net, lr=lr)

    def act(self, x: np.ndarray) -> np.ndarray:
        """Actions for a batch (or single) of normalized designs."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        out = self.net.forward(np.atleast_2d(x)) * self.action_scale
        return out[0] if single else out
