"""MOSFET element wrapping :class:`repro.spice.models.MosfetModel`.

Terminals are ordered ``(d, g, s, b)``.  The ``m`` multiplier models ``m``
identical devices in parallel (currents and capacitances scale by ``m``),
matching the N1..N3 multiplier design parameters in the paper's circuits.
"""

from __future__ import annotations

import numpy as np

from repro.spice.elements.base import Element, NoiseSource
from repro.spice.models import MosfetModel

# Terminal indices within self.nodes.
_D, _G, _S, _B = 0, 1, 2, 3


class Mosfet(Element):
    """Four-terminal MOSFET with EKV DC model and fixed Meyer capacitances."""

    is_nonlinear = True

    def __init__(self, name: str, d: str, g: str, s: str, b: str,
                 model: MosfetModel, w: float, l: float, m: int = 1) -> None:
        super().__init__(name, (d, g, s, b))
        if w <= 0 or l <= 0:
            raise ValueError(f"mosfet {name}: W and L must be positive")
        if m < 1:
            raise ValueError(f"mosfet {name}: multiplier must be >= 1")
        self.model = model
        self.w = float(w)
        self.l = float(l)
        self.m = int(m)

    def capacitances(self) -> dict[str, float]:
        """Meyer capacitances ``cgs/cgd/cdb/csb`` of the ``m`` devices [F],
        derived from the current model, W, L and m."""
        caps = self.model.capacitances(self.w, self.l)
        return {key: value * self.m for key, value in caps.items()}

    def _eval(self, x: np.ndarray) -> dict[str, float]:
        info = self.model.evaluate(
            vg=self._v(x, _G), vd=self._v(x, _D),
            vs=self._v(x, _S), vb=self._v(x, _B),
            w=self.w, l=self.l,
        )
        for key in ("id", "gm", "gds", "gms", "gmb"):
            info[key] *= self.m
        return info

    # -- reporting --------------------------------------------------------------
    def op_info(self, x: np.ndarray) -> dict[str, float]:
        info = self._eval(x)
        info["vgs"] = self._v(x, _G) - self._v(x, _S)
        info["vds"] = self._v(x, _D) - self._v(x, _S)
        info["vov"] = self.model.polarity * info["vgs"] - self.model.vto
        return info

    def noise_sources(self, x_op: np.ndarray) -> list[NoiseSource]:
        info = self._eval(x_op)
        gm = abs(info["gm"])
        drain_current = info["id"]
        d, s = self.nodes[_D], self.nodes[_S]
        model, w, l, m = self.model, self.w, self.l, self.m

        def thermal(f: np.ndarray, _gm=gm) -> float:
            del f
            return model.thermal_noise_psd(_gm)

        def flicker(f: np.ndarray, _i=abs(drain_current)) -> np.ndarray | float:
            # m devices in parallel: PSD of the sum is m * per-device PSD,
            # and per-device current is i/m.
            if _i <= 0:
                return 0.0
            per_device = model.flicker_noise_psd(_i / m, w, l, f)
            return per_device * m

        return [
            NoiseSource(d, s, thermal, label=f"{self.name}:thermal"),
            NoiseSource(d, s, flicker, label=f"{self.name}:flicker"),
        ]
