"""DC small-signal transfer function (SPICE ``.TF`` equivalent).

Computes, from one linearized solve at the operating point:

* the DC gain from an independent source to an output node,
* the input resistance seen by that source,
* the output resistance at the output node.

Capacitors are open and inductors short at DC, exactly as in ``.TF``.
Implementation: one LU factorization of the compiled circuit's
small-signal system, solved for two excitations — the input source active
(gain and R_in) and a unit current at the output with the input dead
(R_out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.spice.elements import CurrentSource, VoltageSource
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit
from repro.spice.results import OPResult

# A tiny but nonzero frequency keeps inductor branches well-conditioned
# while leaving capacitive admittances negligible.
_OMEGA_DC = 1e-3


@dataclass(frozen=True)
class TransferFunction:
    """Result of :func:`transfer_function`."""

    gain: float
    input_resistance: float
    output_resistance: float


def transfer_function(circuit: Circuit, input_source: str, output_node: str,
                      x_op: np.ndarray | OPResult | None = None
                      ) -> TransferFunction:
    """SPICE ``.TF v(output_node) input_source``.

    For a voltage-source input the gain is V(out)/V_in and the input
    resistance is the resistance seen by the source; for a current-source
    input the gain is V(out)/I_in (a transresistance).
    """
    from repro.spice.dc import operating_point

    if x_op is None:
        x_op = operating_point(circuit).x
    elif isinstance(x_op, OPResult):
        x_op = x_op.x
    src = circuit[input_source]
    out_idx = circuit.node_index(output_node)
    if out_idx < 0:
        raise AnalysisError("output node cannot be ground")
    n = circuit.size

    circuit.compile()
    a = circuit.assemble_ac(x_op, _OMEGA_DC).A
    # Column 0 excites the input, column 1 drives a unit current into the
    # output node with the input dead.
    z = np.zeros((n, 2), dtype=complex)
    z[out_idx, 1] = 1.0
    if isinstance(src, VoltageSource):
        # Excite the source branch with 1 V.
        z[src.branch_start, 0] = 1.0
    elif isinstance(src, CurrentSource):
        # Unit current from pos through the source into neg.
        p, m = src.nodes
        if p >= 0:
            z[p, 0] -= 1.0
        if m >= 0:
            z[m, 0] += 1.0
    else:
        raise AnalysisError(f"{input_source!r} is not an independent source")
    try:
        lu = lu_factor(a)
    except ValueError as exc:  # non-finite entries
        raise AnalysisError(f"singular small-signal system: {exc}") from exc
    if not np.all(np.diagonal(lu[0])):
        raise AnalysisError("singular small-signal system: zero pivot")
    x, x_out = np.real(lu_solve(lu, z)).T

    gain = float(x[out_idx])
    if isinstance(src, VoltageSource):
        i_in = float(x[src.branch_start])
        rin = np.inf if abs(i_in) < 1e-30 else abs(1.0 / i_in)
    else:
        vp = x[p] if p >= 0 else 0.0
        vm = x[m] if m >= 0 else 0.0
        rin = abs(float(vp - vm))
    rout = abs(float(x_out[out_idx]))
    return TransferFunction(gain=gain, input_resistance=rin,
                            output_resistance=rout)
