"""Analysis result containers with name-based accessors."""

from __future__ import annotations

import numpy as np

from repro.spice.elements import VoltageSource
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit


class _ResultBase:
    """Shared node-voltage lookup for analysis results."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit

    def _node_column(self, name: str) -> int:
        return self.circuit.node_index(name)


class OPResult(_ResultBase):
    """DC operating point: a single solution vector."""

    def __init__(self, circuit: Circuit, x: np.ndarray,
                 iterations: int = 0, strategy: str = "newton") -> None:
        super().__init__(circuit)
        self.x = np.asarray(x, dtype=float)
        self.iterations = iterations
        self.strategy = strategy

    def v(self, node: str) -> float:
        """DC voltage of a node (ground reads 0)."""
        idx = self._node_column(node)
        return 0.0 if idx < 0 else float(self.x[idx])

    def branch_current(self, source_name: str) -> float:
        """Branch current of a voltage source (SPICE sign convention:
        current flowing from + through the source to -)."""
        elem = self.circuit[source_name]
        if not isinstance(elem, VoltageSource):
            raise AnalysisError(f"{source_name!r} is not a voltage source")
        return elem.branch_current(self.x)

    def element_info(self, name: str) -> dict[str, float]:
        """Per-element operating details (id/gm/gds for MOSFETs, ...)."""
        return self.circuit[name].op_info(self.x)

    def supply_power(self, *source_names: str) -> float:
        """Total power delivered by the named supplies (positive = sourced)."""
        total = 0.0
        for name in source_names:
            info = self.circuit[name].op_info(self.x)
            total -= info["v"] * info["i"]
        return total

    def as_dict(self) -> dict[str, float]:
        return {name: self.v(name) for name in self.circuit.node_names()}


class ACResult(_ResultBase):
    """AC sweep: complex solutions over frequency."""

    def __init__(self, circuit: Circuit, freqs: np.ndarray, xs: np.ndarray) -> None:
        super().__init__(circuit)
        self.freqs = np.asarray(freqs, dtype=float)
        self.xs = np.asarray(xs, dtype=complex)

    def v(self, node: str) -> np.ndarray:
        """Complex node voltage vs frequency."""
        idx = self._node_column(node)
        if idx < 0:
            return np.zeros(len(self.freqs), dtype=complex)
        return self.xs[:, idx].copy()

    def transfer(self, out_node: str, out_node_neg: str | None = None) -> np.ndarray:
        """Differential output voltage (the input excitation is whatever AC
        sources the circuit defines, typically magnitude 1)."""
        out = self.v(out_node)
        if out_node_neg is not None:
            out = out - self.v(out_node_neg)
        return out


class TransientResult(_ResultBase):
    """Transient: solutions over time."""

    def __init__(self, circuit: Circuit, times: np.ndarray, xs: np.ndarray) -> None:
        super().__init__(circuit)
        self.times = np.asarray(times, dtype=float)
        self.xs = np.asarray(xs, dtype=float)

    def v(self, node: str) -> np.ndarray:
        idx = self._node_column(node)
        if idx < 0:
            return np.zeros(len(self.times))
        return self.xs[:, idx].copy()

    def branch_current(self, source_name: str) -> np.ndarray:
        elem = self.circuit[source_name]
        if not isinstance(elem, VoltageSource):
            raise AnalysisError(f"{source_name!r} is not a voltage source")
        return np.array([elem.branch_current(x) for x in self.xs])


class NoiseResult(_ResultBase):
    """Small-signal noise analysis at a designated output node."""

    def __init__(self, circuit: Circuit, freqs: np.ndarray,
                 output_psd: np.ndarray,
                 contributions: dict[str, np.ndarray],
                 gain: np.ndarray | None = None) -> None:
        super().__init__(circuit)
        self.freqs = np.asarray(freqs, dtype=float)
        self.output_psd = np.asarray(output_psd, dtype=float)  # V^2/Hz
        self.contributions = contributions
        self.gain = None if gain is None else np.asarray(gain, dtype=complex)

    @property
    def input_referred_psd(self) -> np.ndarray:
        """Input-referred PSD (units depend on the input source type)."""
        if self.gain is None:
            raise AnalysisError("noise analysis ran without an input source")
        mag2 = np.abs(self.gain) ** 2
        mag2 = np.where(mag2 <= 0, np.inf, mag2)
        return self.output_psd / mag2

    def integrated_output_noise(self, f_lo: float | None = None,
                                f_hi: float | None = None) -> float:
        """RMS output noise over [f_lo, f_hi] via trapezoidal integration."""
        mask = np.ones_like(self.freqs, dtype=bool)
        if f_lo is not None:
            mask &= self.freqs >= f_lo
        if f_hi is not None:
            mask &= self.freqs <= f_hi
        if mask.sum() < 2:
            raise AnalysisError("noise integration needs at least 2 points in band")
        return float(np.sqrt(np.trapezoid(self.output_psd[mask], self.freqs[mask])))
