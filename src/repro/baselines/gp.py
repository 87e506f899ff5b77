"""Gaussian-process regression with an ARD squared-exponential kernel.

Implemented from scratch (Cholesky factorization, analytic marginal
likelihood and its exact gradient) so the repo carries no dependency beyond
numpy/scipy.  The O(N^3) refit cost per BO iteration is the computational
signature the paper holds against BO.  Each evaluation of the
hyper-parameter objective costs one Cholesky factor plus one inverse from
it, and returns the gradient with the value (Rasmussen & Williams,
*Gaussian Processes for Machine Learning*, 2006, Eq. 5.9), so L-BFGS-B
pays no d+2 multiplier for finite differences.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

#: Objective value returned where the kernel matrix is not positive definite.
_NLL_FAIL = 1e10
#: Diagonal jitter added to the noise variance.
_JITTER = 1e-10


def _scaled_columns(x: np.ndarray, log_ls: np.ndarray) -> np.ndarray:
    """``x / lengthscale`` transposed to contiguous ``(d, n)`` rows."""
    return np.ascontiguousarray((x / np.exp(log_ls)).T)


def _sq_dist(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Squared distances between the points of two ``(d, n)``/``(d, m)``
    column sets, accumulated one dimension at a time into one ``(n, m)``
    buffer, so no ``(n, m, d)`` difference tensor is ever built."""
    sq = np.zeros((ca.shape[1], cb.shape[1]))
    diff = np.empty_like(sq)
    for a, b in zip(ca, cb):
        np.subtract.outer(a, b, out=diff)
        sq += np.square(diff, out=diff)
    return sq


class GaussianProcess:
    """GP regressor ``y ~ GP(0, k)`` with ARD-RBF kernel plus noise.

    Hyper-parameters (signal variance, per-dimension lengthscales, noise
    variance) are optimized by L-BFGS-B on the log marginal likelihood and
    its analytic gradient when :meth:`fit` is called with ``optimize=True``.
    """

    def __init__(self, d: int, lengthscale: float = 0.3,
                 signal_var: float = 1.0, noise_var: float = 1e-4) -> None:
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        self.log_ls = np.full(d, np.log(lengthscale))
        self.log_sf2 = np.log(signal_var)
        self.log_sn2 = np.log(noise_var)
        self._x: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._chol = None

    # -- kernel ----------------------------------------------------------------
    def _k(self, xa: np.ndarray, xb: np.ndarray,
           log_ls: np.ndarray, log_sf2: float) -> np.ndarray:
        k = _sq_dist(_scaled_columns(xa, log_ls), _scaled_columns(xb, log_ls))
        k *= -0.5
        np.exp(k, out=k)
        k *= np.exp(log_sf2)
        return k

    def _nll_and_grad(self, theta: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient in ``theta``.

        With K = K_f + (sn2 + jitter) I, alpha = K^-1 y and
        W = K^-1 - alpha alpha^T, each component is 0.5 * sum(W * dK):
        dK/dlog ls_k = K_f * D_k with D_k the squared scaled distances in
        dimension k, dK/dlog sf2 = K_f and dK/dlog sn2 = sn2 I.
        """
        d = self.d
        log_ls, log_sf2, log_sn2 = theta[:d], theta[d], theta[d + 1]
        kf = self._k(x, x, log_ls, log_sf2)
        k = kf.copy()
        sn2 = np.exp(log_sn2)
        k[np.diag_indices_from(k)] += sn2 + _JITTER
        try:
            chol = cho_factor(k, lower=True)
        except np.linalg.LinAlgError:
            return _NLL_FAIL, np.zeros_like(theta)
        alpha = cho_solve(chol, y)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
        nll = float(0.5 * y @ alpha + 0.5 * logdet
                    + 0.5 * len(y) * np.log(2 * np.pi))
        w = cho_solve(chol, np.eye(len(y)))
        w -= np.outer(alpha, alpha)
        wk = w * kf
        cols = _scaled_columns(x, log_ls)
        grad = np.empty(d + 2)
        for i in range(d):
            grad[i] = 0.5 * np.vdot(wk, _sq_dist(cols[i:i + 1],
                                                 cols[i:i + 1]))
        grad[d] = 0.5 * wk.sum()
        grad[d + 1] = 0.5 * sn2 * np.trace(w)
        return nll, grad

    # -- fitting ---------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray, optimize: bool = True,
            maxiter: int = 40) -> "GaussianProcess":
        """Fit to data; ``y`` is standardized internally."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.size:
            raise ValueError("x and y lengths differ")
        if x.shape[1] != self.d:
            raise ValueError(f"expected {self.d} input dims, got {x.shape[1]}")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_std
        if optimize and len(ys) >= 4:
            theta0 = np.concatenate([self.log_ls, [self.log_sf2, self.log_sn2]])
            bounds = ([(np.log(0.01), np.log(10.0))] * self.d
                      + [(np.log(1e-3), np.log(1e3)),
                         (np.log(1e-8), np.log(1.0))])
            res = minimize(self._nll_and_grad, theta0, args=(x, ys),
                           jac=True, method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": maxiter})
            if np.isfinite(res.fun):
                self.log_ls = res.x[: self.d]
                self.log_sf2 = float(res.x[self.d])
                self.log_sn2 = float(res.x[self.d + 1])
        k = self._k(x, x, self.log_ls, self.log_sf2)
        k[np.diag_indices_from(k)] += np.exp(self.log_sn2) + _JITTER
        self._chol = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._chol, ys)
        self._x = x
        return self

    # -- prediction --------------------------------------------------------------
    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new`` (de-standardized).

        The variance is ``sf2 - ||v||^2`` with ``v = L^-1 k*``: one
        triangular solve on the stored factor ``L``.
        """
        if self._x is None:
            raise RuntimeError("fit the GP first")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        ks = self._k(x_new, self._x, self.log_ls, self.log_sf2)
        mean_s = ks @ self._alpha
        v = solve_triangular(self._chol[0], ks.T, lower=True)
        var_s = np.exp(self.log_sf2) - np.einsum("ij,ij->j", v, v)
        var_s = np.maximum(var_s, 1e-12)
        mean = mean_s * self._y_std + self._y_mean
        std = np.sqrt(var_s) * self._y_std
        return mean, std
