"""Junction diode element."""

from __future__ import annotations

import numpy as np

from repro.spice.elements.base import Element
from repro.spice.models import DEFAULT_DIODE, DiodeModel


class Diode(Element):
    """Exponential diode from anode to cathode, with junction capacitance
    ``cj0 * area`` when the model sets ``cj0``."""

    is_nonlinear = True

    def __init__(self, name: str, anode: str, cathode: str,
                 model: DiodeModel = DEFAULT_DIODE, area: float = 1.0) -> None:
        super().__init__(name, (anode, cathode))
        if area <= 0:
            raise ValueError(f"diode {name}: area must be positive")
        self.model = model
        self.area = float(area)

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        v = self._v(x, 0) - self._v(x, 1)
        i, g = self.model.evaluate(v)
        return {"v": v, "i": i * self.area, "g": g * self.area}
