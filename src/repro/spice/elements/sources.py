"""Independent voltage and current sources with DC/AC/transient behaviour."""

from __future__ import annotations

import numpy as np

from repro.spice.elements.base import Element
from repro.spice.waveforms import Waveform, as_waveform


class VoltageSource(Element):
    """Independent voltage source (branch element).

    Positive branch current flows from the ``+`` node through the source to
    the ``-`` node, so a supply sourcing current into the circuit reports a
    *negative* branch current (SPICE convention).

    ``value`` may be a number (DC) or a :class:`~repro.spice.waveforms.Waveform`;
    ``ac`` is the small-signal magnitude used by AC/noise analyses.
    """

    n_branches = 1

    def __init__(self, name: str, pos: str, neg: str,
                 value: float | Waveform = 0.0, ac: float = 0.0) -> None:
        super().__init__(name, (pos, neg))
        self.waveform = as_waveform(value)
        self.ac = float(ac)

    def branch_current(self, x: np.ndarray) -> float:
        """Branch current from the solution vector."""
        return float(np.real(x[self.branch_start]))

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        i = self.branch_current(x)
        v = self._v(x, 0) - self._v(x, 1)
        return {"v": v, "i": i, "p": v * i}


class CurrentSource(Element):
    """Independent current source: positive current flows from the ``+``
    node through the source into the ``-`` node."""

    def __init__(self, name: str, pos: str, neg: str,
                 value: float | Waveform = 0.0, ac: float = 0.0) -> None:
        super().__init__(name, (pos, neg))
        self.waveform = as_waveform(value)
        self.ac = float(ac)

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        v = self._v(x, 0) - self._v(x, 1)
        i = self.waveform.dc_value()
        return {"v": v, "i": i, "p": v * i}
