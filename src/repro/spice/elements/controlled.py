"""Linear controlled sources: VCVS (E) and VCCS (G)."""

from __future__ import annotations

import numpy as np

from repro.spice.elements.base import Element


class VCCS(Element):
    """Voltage-controlled current source.

    Current ``gm * (v(cp) - v(cn))`` flows from ``pos`` through the source
    into ``neg``.
    """

    def __init__(self, name: str, pos: str, neg: str, cpos: str, cneg: str,
                 gm: float) -> None:
        super().__init__(name, (pos, neg, cpos, cneg))
        self.gm = float(gm)


class VCVS(Element):
    """Voltage-controlled voltage source: ``v(pos) - v(neg) = mu * v(ctrl)``."""

    n_branches = 1

    def __init__(self, name: str, pos: str, neg: str, cpos: str, cneg: str,
                 mu: float) -> None:
        super().__init__(name, (pos, neg, cpos, cneg))
        self.mu = float(mu)

    def op_info(self, x: np.ndarray) -> dict[str, float]:
        return {"i": float(np.real(x[self.branch_start]))}
