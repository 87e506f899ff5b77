"""Modified Nodal Analysis conventions, the assembled system and its context.

Conventions
-----------
* Node index ``-1`` is ground; unknowns are the non-ground node voltages
  followed by the branch currents of voltage-defined elements.
* KCL rows express "sum of currents leaving the node through elements" on
  the left-hand side; independent current injections go to the RHS vector.
* A voltage source's branch current is defined flowing from its positive
  node through the source to its negative node.

Assembly itself lives in :mod:`repro.spice.compiled`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MNASystem:
    """An assembled MNA system ``A x = z`` (dense, real or complex)."""

    A: np.ndarray
    z: np.ndarray


@dataclass
class StampContext:
    """Per-analysis information an assembly depends on.

    Attributes
    ----------
    analysis: ``"dc"`` or ``"tran"`` (AC has its own small-signal path).
    time: simulation time; ``None`` for DC.
    dt: current timestep (transient only).
    source_scale: homotopy scale in [0, 1] applied to independent sources.
    gmin: conductance added from every node to ground by the solver.
    integ: ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    """

    analysis: str = "dc"
    time: float | None = None
    dt: float | None = None
    source_scale: float = 1.0
    gmin: float = 1e-12
    integ: str = "trap"
