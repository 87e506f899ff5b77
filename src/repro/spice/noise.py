"""Small-signal noise analysis via the adjoint method.

The complex MNA matrix ``A(f) = G + j 2 pi f C`` is formed for every
frequency at once; one batched adjoint solve ``A^H y = e_out`` yields, in
``y``, the transfer impedance from a unit current injected between any node
pair to the output voltage.  Every device noise current source then
contributes ``|y[p] - y[m]|^2 * S_i(f)`` to the output voltage PSD, as one
array operation over frequency per source.
"""

from __future__ import annotations

import numpy as np

from repro.spice.compiled import solve_sweep
from repro.spice.dc import operating_point
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit
from repro.spice.results import NoiseResult, OPResult


def noise_analysis(circuit: Circuit, output_node: str, freqs: np.ndarray,
                   input_source: str | None = None,
                   x_op: np.ndarray | OPResult | None = None,
                   output_node_neg: str | None = None) -> NoiseResult:
    """Compute the output-referred voltage noise PSD at ``output_node``.

    Parameters
    ----------
    input_source:
        Name of the source whose ``ac`` magnitude defines the signal path;
        when given, the result can report input-referred noise through
        ``NoiseResult.input_referred_psd``.
    output_node_neg:
        Optional negative output node for differential outputs.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0 or np.any(freqs <= 0):
        raise AnalysisError("noise frequencies must be positive and non-empty")
    if x_op is None:
        x_op = operating_point(circuit).x
    elif isinstance(x_op, OPResult):
        x_op = x_op.x

    out_idx = circuit.node_index(output_node)
    if out_idx < 0:
        raise AnalysisError("output node cannot be ground")
    neg_idx = circuit.node_index(output_node_neg) if output_node_neg else -1

    if input_source is not None and input_source not in circuit:
        raise AnalysisError(f"no input source named {input_source!r}")
    sources = []
    for elem in circuit.elements:
        sources.extend(elem.noise_sources(x_op))

    n = circuit.size
    e_out = np.zeros(n, dtype=complex)
    e_out[out_idx] = 1.0
    if neg_idx >= 0:
        e_out[neg_idx] = -1.0

    circuit.compile()
    sys = circuit.assemble_ac(x_op, 2.0 * np.pi * freqs)
    # Adjoint: A^H y = e_out, with a zero column appended for ground.
    y = solve_sweep(np.conj(np.swapaxes(sys.A, -1, -2)), e_out, freqs,
                    "noise")
    y = np.concatenate((y, np.zeros((freqs.size, 1))), axis=1)
    node_a = [n if src.node_a < 0 else src.node_a for src in sources]
    node_b = [n if src.node_b < 0 else src.node_b for src in sources]
    transfer2 = np.abs(y[:, node_a] - y[:, node_b]) ** 2

    output_psd = np.zeros(freqs.size)
    contributions: dict[str, np.ndarray] = {
        src.label: np.zeros(freqs.size) for src in sources
    }
    for k, src in enumerate(sources):
        psd = transfer2[:, k] * src.psd(freqs)
        contributions[src.label] += psd
        output_psd += psd
    gain = None
    if input_source is not None:
        x_sig = solve_sweep(sys.A, sys.z, freqs, "noise")
        gain = x_sig[:, out_idx]
        if neg_idx >= 0:
            gain = gain - x_sig[:, neg_idx]
    return NoiseResult(circuit, freqs, output_psd, contributions, gain=gain)
