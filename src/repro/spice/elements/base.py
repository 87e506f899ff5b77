"""Element base class and the noise-source record."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class NoiseSource:
    """A current-noise injection between two (bound) node indices.

    ``psd(f)`` returns the one-sided current PSD in A^2/Hz; ``f`` is an
    array of frequencies and the result broadcasts against it.  The label keeps
    per-device noise breakdowns readable in analysis results.
    """

    node_a: int
    node_b: int
    psd: Callable[[np.ndarray], np.ndarray | float]
    label: str


class Element:
    """Base circuit element.

    Life cycle: the element is created with *node names*; the circuit binds
    it (:meth:`bind`) to integer node indices and a branch-current offset
    before any analysis runs.  Elements carry values only: analyses read
    them through :class:`repro.spice.compiled.CompiledCircuit`, which
    holds every stamp and the transient state.
    """

    n_branches = 0
    is_nonlinear = False

    def __init__(self, name: str, nodes: tuple[str, ...]) -> None:
        self.name = name
        self.node_names = tuple(str(n) for n in nodes)
        self.nodes: tuple[int, ...] = ()
        self.branch_start = -1

    def bind(self, node_indices: tuple[int, ...], branch_start: int) -> None:
        """Attach resolved node indices / branch offset (called by Circuit)."""
        self.nodes = tuple(node_indices)
        self.branch_start = branch_start

    # -- reporting ----------------------------------------------------------
    def op_info(self, x: np.ndarray) -> dict[str, float]:
        """Operating-point details (currents, conductances) for reports."""
        return {}

    def noise_sources(self, x_op: np.ndarray) -> list[NoiseSource]:
        """Noise injections evaluated at the operating point."""
        return []

    # -- helpers ------------------------------------------------------------
    def _v(self, x: np.ndarray, terminal: int) -> float:
        """Voltage of the element's ``terminal``-th node under solution x."""
        idx = self.nodes[terminal]
        return 0.0 if idx < 0 else float(x[idx])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r}, nodes={self.node_names})"

