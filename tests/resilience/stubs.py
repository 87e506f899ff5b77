"""Deterministic failing tasks for the failure-rule tests.

Each stub fails in a fixed region of the design space, so a test knows the
failing set of any design stream up front.
"""

import numpy as np

from repro.core.synthetic import ConstrainedSphere
from repro.spice.exceptions import ConvergenceError


class DivergingSphere(ConstrainedSphere):
    """Raises :class:`ConvergenceError` where ``u[0] > 0.5``."""

    def evaluate(self, u):
        if u[0] > 0.5:
            raise ConvergenceError("newton diverged")
        return super().evaluate(u)


class NaNSphere(DivergingSphere):
    """Also returns all-NaN metrics where ``u[0] <= 0.5`` and ``u[1] > 0.7``."""

    def evaluate(self, u):
        metrics = super().evaluate(u)
        if u[1] > 0.7:
            return np.full_like(metrics, np.nan)
        return metrics


def failure_reason(u):
    """The quarantine reason :class:`NaNSphere` earns at ``u`` (None: ok)."""
    if u[0] > 0.5:
        return "exception"
    if u[1] > 0.7:
        return "nonfinite"
    return None
