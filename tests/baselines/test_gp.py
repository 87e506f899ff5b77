"""Unit tests for the from-scratch Gaussian process."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

import repro.baselines.gp as gp_module
from repro.baselines.gp import GaussianProcess

LOG_LS_LO, LOG_LS_HI = np.log(0.01), np.log(10.0)
LOG_SF2_LO, LOG_SF2_HI = np.log(1e-3), np.log(1e3)
LOG_SN2_LO = np.log(1e-8)


def frozen_k(xa, xb, log_ls, log_sf2):
    """The broadcast ARD-RBF kernel (an ``(n, m, d)`` difference tensor)."""
    ls = np.exp(log_ls)
    diff = xa[:, None, :] / ls - xb[None, :, :] / ls
    return np.exp(log_sf2) * np.exp(-0.5 * np.sum(diff**2, axis=-1))


def frozen_nll(theta, x, y):
    """Negative log marginal likelihood without a gradient."""
    d = x.shape[1]
    k = frozen_k(x, x, theta[:d], theta[d])
    k[np.diag_indices_from(k)] += np.exp(theta[d + 1]) + 1e-10
    try:
        chol = cho_factor(k, lower=True)
    except np.linalg.LinAlgError:
        return 1e10
    alpha = cho_solve(chol, y)
    logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
    return float(0.5 * y @ alpha + 0.5 * logdet
                 + 0.5 * len(y) * np.log(2 * np.pi))


def hp_bounds(d):
    return ([(LOG_LS_LO, LOG_LS_HI)] * d
            + [(LOG_SF2_LO, LOG_SF2_HI), (LOG_SN2_LO, np.log(1.0))])


def theta_of(gp):
    return np.concatenate([gp.log_ls, [gp.log_sf2, gp.log_sn2]])


def standardized_problem(rng, n, d):
    x = rng.uniform(size=(n, d))
    y = np.sin(4 * x).sum(axis=1) + np.sum(x**2, axis=1)
    return x, (y - y.mean()) / y.std()


class TestFitPredict:
    def test_interpolates_training_points(self, rng):
        x = rng.uniform(size=(20, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(2).fit(x, y, optimize=True)
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        x = rng.uniform(0.4, 0.6, size=(15, 1))
        y = x[:, 0]
        gp = GaussianProcess(1).fit(x, y, optimize=False)
        _, std_near = gp.predict(np.array([[0.5]]))
        _, std_far = gp.predict(np.array([[0.0]]))
        assert std_far[0] > 2 * std_near[0]

    def test_smooth_function_good_generalization(self, rng):
        x = rng.uniform(size=(60, 2))
        y = np.sum(x**2, axis=1)
        gp = GaussianProcess(2).fit(x, y, optimize=True)
        x_test = rng.uniform(0.1, 0.9, size=(20, 2))
        mean, _ = gp.predict(x_test)
        np.testing.assert_allclose(mean, np.sum(x_test**2, axis=1), atol=0.1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess(2).predict(np.zeros((1, 2)))

    def test_shape_validation(self, rng):
        gp = GaussianProcess(3)
        with pytest.raises(ValueError):
            gp.fit(rng.uniform(size=(5, 2)), rng.uniform(size=5))
        with pytest.raises(ValueError):
            gp.fit(rng.uniform(size=(5, 3)), rng.uniform(size=4))

    def test_bad_dim_raises(self):
        with pytest.raises(ValueError):
            GaussianProcess(0)

    def test_hyperparameter_optimization_improves_nll(self, rng):
        x = rng.uniform(size=(40, 1))
        y = np.sin(10 * x[:, 0])
        gp_plain = GaussianProcess(1, lengthscale=5.0).fit(x, y, optimize=False)
        gp_opt = GaussianProcess(1, lengthscale=5.0).fit(x, y, optimize=True)
        # optimized lengthscale should shrink to capture the oscillation
        assert np.exp(gp_opt.log_ls[0]) < np.exp(gp_plain.log_ls[0])

    def test_constant_targets_handled(self):
        x = np.linspace(0, 1, 10)[:, None]
        y = np.full(10, 3.0)
        gp = GaussianProcess(1).fit(x, y, optimize=False)
        mean, _ = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(3.0, abs=1e-6)


class TestMarginalLikelihood:
    @pytest.mark.parametrize("d", [1, 3, 15])
    @pytest.mark.parametrize("where", ["interior", "lower-ls", "upper-ls"])
    def test_gradient_matches_central_differences(self, d, where):
        rng = np.random.default_rng(d)
        x, y = standardized_problem(rng, 30, d)
        log_ls = rng.uniform(np.log(0.2), np.log(2.0), d)
        if where == "interior":
            theta = np.concatenate([log_ls, [0.3, np.log(1e-3)]])
        elif where == "lower-ls":
            log_ls[0] = LOG_LS_LO
            theta = np.concatenate([log_ls, [LOG_SF2_HI, LOG_SN2_LO]])
        else:
            log_ls[0] = LOG_LS_HI
            theta = np.concatenate([log_ls, [LOG_SF2_LO, LOG_SN2_LO]])
        gp = GaussianProcess(d)
        nll, grad = gp._nll_and_grad(theta, x, y)
        assert nll == pytest.approx(frozen_nll(theta, x, y), rel=1e-12)
        h = 1e-5
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            step = np.zeros_like(theta)
            step[i] = h
            numeric[i] = (gp._nll_and_grad(theta + step, x, y)[0]
                          - gp._nll_and_grad(theta - step, x, y)[0]) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-5,
                                   atol=1e-7 * np.abs(numeric).max())

    def test_cholesky_failure_sentinel(self):
        # Identical points with the noise lost below the signal's rounding:
        # K is exactly rank one, so the factorization fails.
        x = np.full((3, 2), 0.5)
        y = np.array([-1.0, 0.0, 1.0])
        theta = np.array([0.0, 0.0, 20.0, -60.0])
        nll, grad = GaussianProcess(2)._nll_and_grad(theta, x, y)
        assert nll == 1e10
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_fit_survives_failed_factorizations(self, rng, monkeypatch):
        real = gp_module.cho_factor
        calls = 0

        def failing(k, **kwargs):
            nonlocal calls
            calls += 1
            if calls in (2, 3):
                raise np.linalg.LinAlgError("not positive definite")
            return real(k, **kwargs)

        monkeypatch.setattr(gp_module, "cho_factor", failing)
        x, y = standardized_problem(rng, 30, 3)
        gp = GaussianProcess(3).fit(x, y, optimize=True)
        assert calls > 3
        assert np.all(np.isfinite(theta_of(gp)))
        mean, std = gp.predict(x)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_no_worse_than_finite_difference_fit(self, seed):
        # d = 3: both searches converge inside maxiter, so the comparison
        # is between optima, not between where two truncated runs stopped.
        rng = np.random.default_rng(seed)
        x, y = standardized_problem(rng, 40, 3)
        gp = GaussianProcess(3)
        frozen = minimize(frozen_nll, theta_of(gp), args=(x, y),
                          method="L-BFGS-B", bounds=hp_bounds(3),
                          options={"maxiter": 40})
        gp.fit(x, y, optimize=True)
        fitted = frozen_nll(theta_of(gp), x, y)
        assert fitted <= frozen.fun + 1e-6 * abs(frozen.fun)

    def test_fit_evaluates_objective_once_per_point(self, rng, monkeypatch):
        # With an analytic gradient L-BFGS-B evaluates the objective about
        # once per iteration (plus line-search retries); forward
        # differences would cost d + 2 = 17 evaluations per gradient.
        real = gp_module.minimize
        calls = 0
        nits = []

        def spy(fun, x0, *args, **kwargs):
            def counted(*a):
                nonlocal calls
                calls += 1
                return fun(*a)
            res = real(counted, x0, *args, **kwargs)
            nits.append(res.nit)
            return res

        monkeypatch.setattr(gp_module, "minimize", spy)
        x, y = standardized_problem(rng, 60, 15)
        GaussianProcess(15).fit(x, y, optimize=True)
        assert len(nits) == 1
        assert calls <= 3 * (nits[0] + 1), (calls, nits[0])


class TestKernelAndVariance:
    @pytest.mark.parametrize("n, m", [(1500, 60), (60, 60)])
    def test_kernel_matches_broadcast_formula(self, rng, n, m):
        xa = rng.uniform(size=(n, 15))
        xb = xa if n == m else rng.uniform(size=(m, 15))
        log_ls = rng.uniform(np.log(0.1), np.log(3.0), 15)
        new = GaussianProcess(15)._k(xa, xb, log_ls, 0.2)
        old = frozen_k(xa, xb, log_ls, 0.2)
        assert new.shape == (n, m)
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))

    def test_variance_matches_two_solve_form(self, rng):
        x, y = standardized_problem(rng, 60, 15)
        gp = GaussianProcess(15).fit(x, y, optimize=True)
        x_new = rng.uniform(size=(1500, 15))
        _, std = gp.predict(x_new)
        ks = gp._k(x_new, x, gp.log_ls, gp.log_sf2)
        v = cho_solve(gp._chol, ks.T)
        var = np.maximum(np.exp(gp.log_sf2) - np.sum(ks * v.T, axis=1), 1e-12)
        np.testing.assert_allclose((std / gp._y_std) ** 2, var, rtol=0,
                                   atol=1e-12)
