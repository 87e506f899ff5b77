"""Generic element-parameter sweeps (beyond source-value DC sweeps).

:func:`param_sweep` varies any numeric element attribute (a resistor's
``resistance``, a MOSFET's ``w``, a source's DC value...) and re-solves the
operating point at each step, warm-starting from the previous solution —
the workhorse behind "plot gain vs W1" design exploration.  Derived values
(a MOSFET's capacitances from W, L and m) are recomputed when the next
analysis compiles the circuit, so any attribute can be swept.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.spice.dc import operating_point
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit
from repro.spice.results import OPResult


def _set_param(element, attr: str, value: float) -> None:
    if not hasattr(element, attr):
        raise AnalysisError(
            f"element {element.name!r} has no attribute {attr!r}")
    setattr(element, attr, float(value))


def param_sweep(circuit: Circuit, element_name: str, attr: str,
                values: np.ndarray,
                measure: Callable[[OPResult], float] | None = None,
                restore: bool = True) -> np.ndarray:
    """Sweep ``circuit[element_name].<attr>`` over ``values``.

    Returns the array of ``measure(op)`` results (default: the operating
    point's full solution vectors, shape (n, size)).  The original
    attribute value is restored afterwards unless ``restore=False``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.spice import Circuit
    >>> ckt = Circuit()
    >>> _ = ckt.add_vsource("V1", "in", "0", 1.0)
    >>> _ = ckt.add_resistor("R1", "in", "out", 1e3)
    >>> _ = ckt.add_resistor("R2", "out", "0", 1e3)
    >>> vs = param_sweep(ckt, "R2", "resistance", np.array([1e3, 3e3]),
    ...                  measure=lambda op: op.v("out"))
    >>> np.round(vs, 3)
    array([0.5 , 0.75])
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise AnalysisError("empty sweep")
    elem = circuit[element_name]
    if not hasattr(elem, attr):
        raise AnalysisError(f"element {element_name!r} has no {attr!r}")
    original = getattr(elem, attr)
    out: list = []
    guess = None
    try:
        for value in values:
            _set_param(elem, attr, value)
            op = operating_point(circuit, x0=guess)
            guess = op.x
            out.append(measure(op) if measure is not None else op.x.copy())
    finally:
        if restore:
            _set_param(elem, attr, original)
    return np.array(out)
