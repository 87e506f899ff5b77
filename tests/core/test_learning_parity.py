"""Bit-exact parity of the MA-Opt learning path against a frozen reference.

The reference below is the per-array learning step the flat-buffer
implementation replaced: every layer owns its weight and gradient arrays,
Adam loops over a list of moment arrays, the critic rescales each batch's
raw targets, and actor training back-propagates through the critic with
parameter-gradient accumulation on (then zeroes it).  It is kept
deliberately independent of :mod:`repro.nn`; only code this change did not
touch (the metric scaler, the FoM, the Eq. 6 violation) is shared.

On TIA-sized networks (d = 15, 4 metrics) trained on a seeded synthetic
X^tot, the live path must reproduce every weight, Adam moment, step count
and returned loss exactly.
"""

import numpy as np
import pytest

from repro.circuits import ThreeStageTIA
from repro.core.fom import FigureOfMerit
from repro.core.networks import Actor, Critic, CriticEnsemble, MetricScaler
from repro.core.population import EliteSet, TotalDesignSet
from repro.core.training import boundary_violation, train_actor, train_critic

D, N_METRICS, N_TOTAL, N_ELITE = 15, 4, 60, 24
CRITIC_STEPS, ACTOR_STEPS, BATCH, N_ACTORS = 200, 25, 32, 3
ACTION_SCALE, LAMBDA_VIOL = 0.25, 10.0


# -- frozen reference ---------------------------------------------------------
class RefMLP:
    """ReLU MLP with one value and one grad array per weight and bias."""

    def __init__(self, weights, output_tanh):
        self.values = [np.array(w, dtype=float) for w in weights]
        self.grads = [np.zeros_like(w) for w in self.values]
        self.output_tanh = output_tanh

    def forward(self, x):
        out = np.atleast_2d(np.asarray(x, dtype=float))
        n = len(self.values) // 2
        self._xs, self._masks = [], []
        for k in range(n):
            xk = np.atleast_2d(np.asarray(out, dtype=float))
            self._xs.append(xk)
            out = xk @ self.values[2 * k] + self.values[2 * k + 1]
            if k < n - 1:
                mask = out > 0.0
                self._masks.append(mask)
                out = np.where(mask, out, 0.0)
            elif self.output_tanh:
                out = np.tanh(out)
                self._y = out
        return out

    def backward(self, grad_out):
        grad = np.atleast_2d(grad_out)
        n = len(self.values) // 2
        if self.output_tanh:
            grad = grad * (1.0 - self._y**2)
        for k in reversed(range(n)):
            if k < n - 1:
                grad = grad * self._masks[k]
            grad = np.atleast_2d(grad)
            self.grads[2 * k] += self._xs[k].T @ grad
            self.grads[2 * k + 1] += grad.sum(axis=0)
            grad = grad @ self.values[2 * k].T
        return grad

    def zero_grad(self):
        for g in self.grads:
            g[...] = 0.0


class RefAdam:
    """Adam looping over per-array moments."""

    def __init__(self, net, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.net, self.lr, self.betas, self.eps = net, lr, betas, eps
        self.m = [np.zeros_like(v) for v in net.values]
        self.v = [np.zeros_like(v) for v in net.values]
        self.t = 0

    def step(self):
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for value, grad, m, v in zip(self.net.values, self.net.grads,
                                     self.m, self.v):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad**2
            value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class RefCritic:
    def __init__(self, critic, scaler):
        self.net = RefMLP(critic.net.get_weights(), output_tanh=False)
        self.opt = RefAdam(self.net)
        self.scaler = scaler

    def train_step(self, inputs, raw_targets):
        targets = self.scaler.transform(np.atleast_2d(raw_targets))
        pred = self.net.forward(np.atleast_2d(inputs))
        diff = pred - targets
        loss = float(np.mean(diff**2))
        grad = (2.0 / diff.size) * diff
        self.net.zero_grad()
        self.net.backward(grad)
        self.opt.step()
        return loss


class RefEnsemble:
    """Members share the scaler; the ensemble is its own ``net`` facade."""

    def __init__(self, ensemble, scaler):
        self.members = [RefCritic(m, scaler) for m in ensemble.members]
        self.scaler = scaler
        self.net = self

    def train_step(self, inputs, raw_targets):
        return float(np.mean([m.train_step(inputs, raw_targets)
                              for m in self.members]))

    def forward(self, x):
        return np.mean([m.net.forward(x) for m in self.members], axis=0)

    def backward(self, grad_out):
        share = grad_out / len(self.members)
        return np.sum([m.net.backward(share) for m in self.members], axis=0)

    def zero_grad(self):
        for m in self.members:
            m.net.zero_grad()


def ref_train_critic(critic, X, F, steps, rng):
    critic.scaler.fit(F)
    losses = []
    n = len(X)
    for _ in range(steps):
        i_idx = rng.integers(0, n, size=BATCH)
        j_idx = rng.integers(0, n, size=BATCH)
        n_identity = int(round(0.1 * BATCH))
        j_idx[:n_identity] = i_idx[:n_identity]
        xi = X[i_idx]
        inputs = np.concatenate([xi, X[j_idx] - xi], axis=1)
        losses.append(critic.train_step(inputs, F[j_idx]))
    return float(np.mean(losses[-10:]))


def ref_train_actor(net, opt, critic, fom, X, elite_x, rng, train_on):
    lb, ub = elite_x.min(axis=0), elite_x.max(axis=0)
    if train_on == "elite":
        designs = elite_x
    else:
        reps = int(np.ceil(len(X) / max(len(elite_x), 1)))
        designs = np.concatenate([X, np.tile(elite_x, (reps, 1))])
    n = len(designs)
    loss_val = 0.0
    for _ in range(ACTOR_STEPS):
        idx = rng.integers(0, n, size=min(BATCH, n))
        x = designs[idx]
        nb = x.shape[0]
        actions = net.forward(x) * ACTION_SCALE
        q_scaled = critic.net.forward(np.concatenate([x, actions], axis=1))
        metrics = critic.scaler.inverse(q_scaled)
        g = fom(metrics)
        viol, dviol = boundary_violation(x, actions, lb, ub)
        lam_viol = LAMBDA_VIOL * viol
        norms = np.sqrt((lam_viol**2).sum(axis=1))
        loss_val = float(np.mean(g) + np.mean(norms))
        dmetrics = fom.gradient(metrics) / nb
        dq = dmetrics * critic.scaler.jacobian_from_raw(metrics)
        critic.net.zero_grad()
        din = critic.net.backward(dq)
        dactions = din[:, D:]
        safe = np.where(norms > 1e-12, norms, 1.0)[:, None]
        dnorm = np.where(norms[:, None] > 1e-12,
                         lam_viol * LAMBDA_VIOL * dviol / safe, 0.0) / nb
        dactions = dactions + dnorm
        net.zero_grad()
        net.backward(dactions * ACTION_SCALE)
        opt.step()
        critic.net.zero_grad()
    return loss_val


# -- fixtures and comparison helpers ------------------------------------------
@pytest.fixture(scope="module")
def tia():
    return ThreeStageTIA(fidelity="fast")


@pytest.fixture(scope="module")
def xtot(tia):
    """Seeded synthetic X^tot with TIA-like metric magnitudes."""
    rng = np.random.default_rng(2023)
    X = rng.uniform(0.0, 1.0, size=(N_TOTAL, D))
    F = np.column_stack([
        10.0 ** rng.uniform(-4.0, -2.0, N_TOTAL),    # power (W)
        rng.uniform(60.0, 100.0, N_TOTAL),           # dc_gain (dB)
        10.0 ** rng.uniform(8.0, 10.0, N_TOTAL),     # ugf (Hz)
        10.0 ** rng.uniform(-12.0, -10.0, N_TOTAL),  # in_noise
    ])
    return X, F


def assert_net_equal(net, ref_net):
    for live, ref in zip(net.get_weights(), ref_net.values, strict=True):
        assert np.array_equal(live, ref)


def assert_adam_equal(opt, ref_opt):
    state = opt.state_dict()
    assert state["t"] == ref_opt.t
    for key, ref in (("m", ref_opt.m), ("v", ref_opt.v)):
        for live, r in zip(state[key], ref, strict=True):
            assert np.array_equal(live, r)


def members(critic):
    return getattr(critic, "members", [critic])


def critic_grads(critic):
    return [m.net.grads.copy() for m in members(critic)]


@pytest.mark.parametrize("n_members", [1, 2], ids=["critic", "ensemble"])
# train_actor draws batch states only the "mixed" way; the reference keeps
# its frozen signature.
@pytest.mark.parametrize("train_on", ["mixed"])
def test_learning_path_matches_reference(tia, xtot, train_on, n_members):
    X, F = xtot
    fom = FigureOfMerit(tia)
    total = TotalDesignSet(D, N_METRICS)
    for x, f, g in zip(X, F, fom(F)):
        total.add(x, f, float(g))
    elite = EliteSet(total, n_es=N_ELITE)
    elite_x = X[np.argsort(fom(F), kind="stable")[:N_ELITE]]
    kw = dict(log_mask=tia.metric_log_mask, log_floors=tia.metric_log_floors)
    if n_members == 1:
        critic = Critic(D, N_METRICS, seed=11, **kw)
        ref_critic = RefCritic(critic, MetricScaler(N_METRICS, **kw))
    else:
        critic = CriticEnsemble(D, N_METRICS, n_members, seed=11, **kw)
        ref_critic = RefEnsemble(critic, MetricScaler(N_METRICS, **kw))
    actors = [Actor(D, action_scale=ACTION_SCALE, seed=20 + k)
              for k in range(N_ACTORS)]
    ref_actors = [RefMLP(a.net.get_weights(), output_tanh=True)
                  for a in actors]
    ref_opts = [RefAdam(net) for net in ref_actors]
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)

    loss = train_critic(critic, total, CRITIC_STEPS, BATCH, rng)
    ref_loss = ref_train_critic(ref_critic, X, F, CRITIC_STEPS, ref_rng)
    assert loss == ref_loss
    for live, ref in zip(members(critic), members(ref_critic), strict=True):
        assert_net_equal(live.net, ref.net)
        assert_adam_equal(live.opt, ref.opt)

    grads = critic_grads(critic)
    for actor, ref_net, ref_opt in zip(actors, ref_actors, ref_opts):
        loss = train_actor(actor, critic, fom, total, elite, ACTOR_STEPS,
                           BATCH, LAMBDA_VIOL, rng)
        ref_loss = ref_train_actor(ref_net, ref_opt, ref_critic, fom, X,
                                   elite_x, ref_rng, train_on)
        assert loss == ref_loss
        assert_net_equal(actor.net, ref_net)
        assert_adam_equal(actor.opt, ref_opt)
    # The critic stayed frozen through actor training, and back-propagating
    # to its inputs accumulated no parameter gradient.
    for live, ref in zip(members(critic), members(ref_critic), strict=True):
        assert_net_equal(live.net, ref.net)
    for before, after in zip(grads, critic_grads(critic), strict=True):
        assert np.array_equal(before, after)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
