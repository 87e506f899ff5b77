"""Pseudo-sample generation — Eq. 3 of the paper.

From any two simulated designs x_i, x_j the pair

    x_ij^ps = (x_i, x_j - x_i),    f^ps(x_ij^ps) = f(x_j)

is a valid training sample for the critic: "starting at x_i and applying
action x_j - x_i lands on metrics f(x_j)".  N simulated designs therefore
yield N^2 critic training samples for free — the population-based trick
MA-Opt inherits from DNN-Opt.
"""

from __future__ import annotations

import numpy as np

from repro.core.population import TotalDesignSet


def pseudo_sample_batch(
    total: TotalDesignSet,
    batch_size: int,
    rng: np.random.Generator,
    include_identity_fraction: float = 0.1,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random batch of pseudo-samples from X^tot.

    Returns ``(inputs, targets)`` where inputs has shape
    ``(batch_size, 2d)`` — each row is ``concat(x_i, x_j - x_i)`` — and
    targets has shape ``(batch_size, m+1)`` holding ``f(x_j)``.

    ``include_identity_fraction`` forces that share of pairs to use i == j
    (zero action), anchoring the critic at "no change keeps the metrics".

    ``targets`` replaces ``total.metrics`` as the per-design target rows,
    e.g. the metric matrix already z-scored once for a whole critic fit.
    """
    n = len(total)
    if n < 1:
        raise ValueError("cannot draw pseudo-samples from an empty set")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= include_identity_fraction <= 1.0:
        raise ValueError("include_identity_fraction must be in [0, 1]")
    designs = total.designs
    if targets is None:
        targets = total.metrics
    i_idx = rng.integers(0, n, size=batch_size)
    j_idx = rng.integers(0, n, size=batch_size)
    n_identity = int(round(include_identity_fraction * batch_size))
    if n_identity:
        j_idx[:n_identity] = i_idx[:n_identity]
    xi = designs[i_idx]
    xj = designs[j_idx]
    inputs = np.concatenate([xi, xj - xi], axis=1)
    return inputs, targets[j_idx]


def _sample_pairs_without_replacement(n: int, k: int,
                                      rng: np.random.Generator
                                      ) -> tuple[np.ndarray, np.ndarray]:
    """``k`` distinct (i, j) pairs from the n*n grid, never materializing it.

    Pairs are drawn as flat codes ``i * n + j``.  When ``k`` is a large
    fraction of n^2, a permutation of the codes is cheapest; otherwise
    rejection sampling (draw extra, unique, subsample) converges in one or
    two rounds because the hit rate is high.
    """
    n_sq = n * n
    if 2 * k >= n_sq:
        codes = rng.permutation(n_sq)[:k]
    else:
        codes = np.unique(rng.integers(0, n_sq, size=2 * k))
        while codes.size < k:
            more = rng.integers(0, n_sq, size=2 * (k - codes.size) + 8)
            codes = np.unique(np.concatenate([codes, more]))
        codes = rng.permutation(codes)[:k]
    return codes // n, codes % n


def all_pseudo_samples(total: TotalDesignSet,
                       max_pairs: int | None = None,
                       rng: np.random.Generator | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the full N^2 pseudo-sample set (or a random subset).

    With ``max_pairs`` below N^2, a uniform subset of distinct pairs is
    drawn directly — the N^2 index grid is never built — and ``rng`` must
    be given explicitly (subsampling is a stochastic operation; an ambient
    generator would silently break reproducibility).

    Useful for offline critic fitting and for tests; training normally uses
    :func:`pseudo_sample_batch` instead.
    """
    n = len(total)
    if n < 1:
        raise ValueError("cannot build pseudo-samples from an empty set")
    designs = total.designs
    metrics = total.metrics
    if max_pairs is not None and max_pairs < n * n:
        if rng is None:
            raise ValueError("max_pairs subsampling needs an explicit rng "
                             "(pass a numpy Generator)")
        if max_pairs < 1:
            raise ValueError("max_pairs must be >= 1")
        ii, jj = _sample_pairs_without_replacement(n, max_pairs, rng)
    else:
        ii = np.repeat(np.arange(n), n)
        jj = np.tile(np.arange(n), n)
    xi = designs[ii]
    xj = designs[jj]
    return np.concatenate([xi, xj - xi], axis=1), metrics[jj]
