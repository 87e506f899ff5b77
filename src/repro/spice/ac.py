"""AC small-signal analysis."""

from __future__ import annotations

import numpy as np

from repro.spice.compiled import solve_sweep
from repro.spice.dc import operating_point
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit
from repro.spice.results import ACResult, OPResult


def logspace_frequencies(f_start: float, f_stop: float,
                         points_per_decade: int = 10) -> np.ndarray:
    """Logarithmic frequency grid, SPICE ``.ac dec`` style."""
    if f_start <= 0 or f_stop <= f_start:
        raise AnalysisError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    n = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)


def ac_analysis(circuit: Circuit, freqs: np.ndarray,
                x_op: np.ndarray | OPResult | None = None) -> ACResult:
    """Sweep the linearized circuit over ``freqs`` (Hz).

    The small-signal excitation is every source's ``ac`` magnitude; set
    ``ac=1`` on exactly one source for a transfer function.  The circuit
    is linearized once, ``A(w) = G + jwC`` is formed for every frequency
    and all of them are solved in one batched call.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0 or np.any(freqs <= 0):
        raise AnalysisError("AC frequencies must be positive and non-empty")
    if x_op is None:
        x_op = operating_point(circuit).x
    elif isinstance(x_op, OPResult):
        x_op = x_op.x
    circuit.compile()
    sys = circuit.assemble_ac(x_op, 2.0 * np.pi * freqs)
    return ACResult(circuit, freqs, solve_sweep(sys.A, sys.z, freqs, "AC"))
