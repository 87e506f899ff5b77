"""Passive elements: resistor, capacitor, inductor.

Branch convention: ``self.branch_start`` (set by ``Circuit.bind``) is the
*absolute* row/column index of the element's first branch current in the MNA
system and in solution vectors.  An optional ``ic`` is the transient initial
condition (capacitor voltage / inductor current) used instead of the
starting solution's value.
"""

from __future__ import annotations

import numpy as np

from repro.spice.elements.base import Element, NoiseSource
from repro.spice.models import BOLTZMANN, ROOM_TEMP


class Resistor(Element):
    """Linear resistor with thermal noise ``4kT/R``."""

    def __init__(self, name: str, a: str, b: str, resistance: float,
                 temp: float = ROOM_TEMP) -> None:
        super().__init__(name, (a, b))
        if resistance <= 0:
            raise ValueError(f"resistor {name}: resistance must be positive")
        self.resistance = float(resistance)
        self.temp = temp

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        v = self._v(x, 0) - self._v(x, 1)
        return {"v": v, "i": v * self.conductance, "p": v * v * self.conductance}

    def noise_sources(self, x_op: np.ndarray) -> list[NoiseSource]:
        del x_op
        psd = 4.0 * BOLTZMANN * self.temp * self.conductance
        return [
            NoiseSource(self.nodes[0], self.nodes[1], lambda f, _p=psd: _p,
                        label=f"{self.name}:thermal")
        ]


class Capacitor(Element):
    """Linear capacitor: open in DC, companion model in transient."""

    def __init__(self, name: str, a: str, b: str, capacitance: float,
                 ic: float | None = None) -> None:
        super().__init__(name, (a, b))
        if capacitance <= 0:
            raise ValueError(f"capacitor {name}: capacitance must be positive")
        self.capacitance = float(capacitance)
        self.ic = ic

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        return {"v": self._v(x, 0) - self._v(x, 1)}


class Inductor(Element):
    """Linear inductor: a branch element, ideal short in DC."""

    n_branches = 1

    def __init__(self, name: str, a: str, b: str, inductance: float,
                 ic: float | None = None) -> None:
        super().__init__(name, (a, b))
        if inductance <= 0:
            raise ValueError(f"inductor {name}: inductance must be positive")
        self.inductance = float(inductance)
        self.ic = ic

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        return {"i": float(x[self.branch_start])}
