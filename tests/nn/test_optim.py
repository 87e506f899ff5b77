"""Unit tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn import MLP, Adam


def quad_grad(net: MLP) -> None:
    """Gradient of 0.5 * ||values - 3||^2."""
    net.grads[...] = net.values - 3.0


class TestAdam:
    def test_converges_on_quadratic(self):
        net = MLP([1, 2], seed=0)
        net.values[...] = 10.0
        opt = Adam(net, lr=0.2)
        for _ in range(300):
            quad_grad(net)
            opt.step()
        np.testing.assert_allclose(net.values, 3.0, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        """With bias correction, the first Adam step is ~lr regardless of
        gradient scale."""
        net = MLP([1, 1], seed=0)
        net.values[...] = 0.0
        opt = Adam(net, lr=0.5)
        net.grads[...] = 1000.0
        opt.step()
        np.testing.assert_allclose(net.values, -0.5, rtol=1e-6)

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            Adam(MLP([1, 1], seed=0), betas=(1.0, 0.999))

    def test_invalid_eps_raises(self):
        with pytest.raises(ValueError):
            Adam(MLP([1, 1], seed=0), eps=0.0)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            Adam(MLP([1, 1], seed=0), lr=0.0)


class TestStateDict:
    @pytest.mark.parametrize("cls,kwargs", [
        (Adam, {"lr": 0.1, "betas": (0.8, 0.99)}),
        (Adam, {"lr": 0.01}),
    ])
    def test_resume_is_bit_exact(self, cls, kwargs):
        rng = np.random.default_rng(0)

        def fresh():
            net = MLP([3, 2], seed=0)
            return net, cls(net, **kwargs)

        def step(net, opt, g):
            net.grads[...] = g
            opt.step()

        grads = [rng.normal(size=8) for _ in range(6)]
        net_a, opt_a = fresh()
        for g in grads:
            step(net_a, opt_a, g)

        net_b, opt_b = fresh()
        for g in grads[:3]:
            step(net_b, opt_b, g)
        state = opt_b.state_dict()
        assert [m.shape for m in state["m"]] == [(3, 2), (2,)]
        net_c, opt_c = fresh()
        net_c.set_weights(net_b.get_weights())
        opt_c.load_state_dict(state)
        for g in grads[3:]:
            step(net_c, opt_c, g)
        np.testing.assert_array_equal(net_a.values, net_c.values)

    def test_state_dict_is_a_copy(self):
        opt = Adam(MLP([3, 1], seed=0), lr=0.01)
        state = opt.state_dict()
        state["m"][0][:] = 99.0
        assert np.all(opt._m == 0.0)

    def test_length_mismatch_rejected(self):
        opt = Adam(MLP([3, 1], seed=0), lr=0.1)
        with pytest.raises(ValueError):
            opt.load_state_dict({"t": 0, "m": [], "v": []})
