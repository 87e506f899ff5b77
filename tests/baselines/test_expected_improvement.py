"""BO's expected improvement matches the ``scipy.stats.norm`` formula bitwise.

``repro.baselines.bayesopt`` evaluates the normal cdf/pdf without importing
``scipy.stats``; this module is the only place that imports it, as the
reference.
"""

import numpy as np
from scipy.stats import norm

from repro.baselines.bayesopt import expected_improvement


def _reference(mean, std, y_best, xi):
    imp = y_best - mean - xi
    z = imp / std
    return imp * norm.cdf(z) + std * norm.pdf(z)


def _assert_bitwise(mean, std, y_best, xi):
    with np.errstate(all="ignore"):
        got = expected_improvement(mean, std, y_best, xi)
        want = _reference(mean, std, y_best, xi)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    # array_equal treats 0.0 == -0.0; the sign bits must agree as well.
    assert np.array_equal(np.signbit(got), np.signbit(want))
    return got


def test_bitwise_over_z_in_plus_minus_60():
    rng = np.random.default_rng(7)
    z = np.linspace(-60.0, 60.0, 400_001)
    std = rng.uniform(1e-4, 10.0, size=z.size)
    y_best, xi = 1.5, 0.01
    mean = y_best - xi - z * std
    _assert_bitwise(mean, std, y_best, xi)


def test_bitwise_at_zero_signed_zero_infinities_and_nan():
    # y_best = -0.0 and xi = 0.0 make imp = -0.0 where mean = 0.0.
    y_best, xi = -0.0, 0.0
    cases = {               # (mean, std) -> the z they produce
        "+0.0": (-0.0, 1.0),
        "-0.0": (0.0, 1.0),
        "+inf": (-1.0, 0.0),
        "-inf": (1.0, 0.0),
        "nan (0/0)": (0.0, 0.0),
        "nan (mean)": (np.nan, 1.0),
        "nan (std)": (-1.0, np.nan),
    }
    mean = np.array([m for m, _ in cases.values()])
    std = np.array([s for _, s in cases.values()])
    with np.errstate(all="ignore"):
        z = (y_best - mean - xi) / std
    assert not np.signbit(z[0]) and np.signbit(z[1])
    assert z[2] == np.inf and z[3] == -np.inf and np.isnan(z[4:]).all()
    ei = _assert_bitwise(mean, std, y_best, xi)
    assert ei[0] == ei[1] == 1.0 / np.sqrt(2 * np.pi)
