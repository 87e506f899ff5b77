"""Design populations: the total design set X^tot and elite solution sets.

The paper's Fig. 2 contrasts two organizations for multi-actor training:

* **individual** elite sets — each actor ranks only the designs *it* (plus
  the shared initial set) has simulated, so each set can gain at most one
  member per round;
* **shared** elite set — all actors rank the union of everything simulated,
  so the set refreshes up to ``N_act`` times per round.

:class:`EliteSet` implements both via the ``member_filter`` mechanism: a
shared set sees every record, an individual set only records tagged with
its owner (or the initial set's tag ``None``).
"""

from __future__ import annotations

import numpy as np


class TotalDesignSet:
    """X^tot: every simulated design with its metrics, FoM and provenance.

    Designs, metrics and FoMs are stored in contiguous arrays that grow by
    doubling, so the ``designs``/``metrics``/``foms`` copies handed out on
    every training batch are single slice copies.
    """

    def __init__(self, d: int, n_metrics: int) -> None:
        if d < 1 or n_metrics < 1:
            raise ValueError("need d >= 1 and n_metrics >= 1")
        self.d = d
        self.n_metrics = n_metrics
        self._n = 0
        self._x = np.empty((0, d))
        self._f = np.empty((0, n_metrics))
        self._fom = np.empty(0)
        self._owner: list[int | None] = []

    def __len__(self) -> int:
        return self._n

    def add(self, x: np.ndarray, metrics: np.ndarray, fom: float,
            owner: int | None = None) -> int:
        """Append one simulated design; returns its index."""
        x = np.asarray(x, dtype=float).ravel()
        metrics = np.asarray(metrics, dtype=float).ravel()
        if x.shape != (self.d,):
            raise ValueError(f"design has shape {x.shape}, expected ({self.d},)")
        if metrics.shape != (self.n_metrics,):
            raise ValueError(
                f"metrics have shape {metrics.shape}, expected ({self.n_metrics},)"
            )
        i = self._n
        if i == len(self._fom):
            cap = max(16, 2 * i)
            self._x = _grown(self._x, i, cap)
            self._f = _grown(self._f, i, cap)
            self._fom = _grown(self._fom, i, cap)
        self._x[i] = x
        self._f[i] = metrics
        self._fom[i] = float(fom)
        self._owner.append(owner)
        self._n = i + 1
        return i

    @property
    def designs(self) -> np.ndarray:
        """All designs, shape (N, d) (a copy)."""
        return self._x[:self._n].copy()

    @property
    def metrics(self) -> np.ndarray:
        """All metric vectors, shape (N, m+1) (a copy)."""
        return self._f[:self._n].copy()

    @property
    def foms(self) -> np.ndarray:
        return self._fom[:self._n].copy()

    @property
    def owners(self) -> list[int | None]:
        return list(self._owner)

    def best_index(self) -> int:
        if not self._n:
            raise ValueError("empty design set")
        return int(np.argmin(self._fom[:self._n]))

    def best(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(design, metrics, fom) of the incumbent FoM-best design."""
        i = self.best_index()
        return self._x[i].copy(), self._f[i].copy(), float(self._fom[i])

    def metric_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-metric mean and std over X^tot (std floored for stability)."""
        f = self.metrics
        if len(f) == 0:
            raise ValueError("empty design set")
        mean = f.mean(axis=0)
        std = f.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return mean, std


class EliteSet:
    """X^ES / X^SES: the N_es FoM-best designs visible to one actor.

    ``owner=None`` builds a *shared* elite set (sees every record);
    ``owner=i`` builds actor ``i``'s *individual* set, which ranks only the
    initial samples (owner tag ``None``) plus designs actor ``i`` simulated.
    """

    def __init__(self, total: TotalDesignSet, n_es: int,
                 owner: int | None = None) -> None:
        if n_es < 1:
            raise ValueError("elite set size must be >= 1")
        self.total = total
        self.n_es = n_es
        self.owner = owner

    def _visible_indices(self) -> np.ndarray:
        owners = self.total.owners
        if self.owner is None:
            return np.arange(len(owners))
        return np.array(
            [i for i, o in enumerate(owners) if o is None or o == self.owner],
            dtype=int,
        )

    def indices(self) -> np.ndarray:
        """Indices into the total set of the current elite members."""
        vis = self._visible_indices()
        if vis.size == 0:
            return vis
        foms = self.total.foms[vis]
        order = np.argsort(foms, kind="stable")
        return vis[order[: self.n_es]]

    def designs(self) -> np.ndarray:
        """Elite designs, shape (n_elite, d)."""
        idx = self.indices()
        if idx.size == 0:
            return np.empty((0, self.total.d))
        return self.total.designs[idx]

    def best(self) -> tuple[np.ndarray, float]:
        """(design, fom) of the elite-set best."""
        idx = self.indices()
        if idx.size == 0:
            raise ValueError("empty elite set")
        best = idx[0]
        return self.total.designs[best], float(self.total.foms[best])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension (lb_rest, ub_rest) over the elite designs (Eq. 6)."""
        x = self.designs()
        if len(x) == 0:
            raise ValueError("empty elite set")
        return x.min(axis=0), x.max(axis=0)


def _grown(buf: np.ndarray, n: int, cap: int) -> np.ndarray:
    """``buf``'s first ``n`` rows in a fresh buffer of ``cap`` rows."""
    out = np.empty((cap, *buf.shape[1:]))
    out[:n] = buf[:n]
    return out
