"""Transient analysis with trapezoidal/backward-Euler integration.

The output grid is uniform (``dt``); inside a grid step the solver halves
the local step on Newton failure (up to ``MAX_HALVINGS`` times), committing
the compiled circuit's companion state after every accepted substep.  The first substep after t=0
always uses backward Euler to damp the trapezoidal rule's start-up ringing.
"""

from __future__ import annotations

import numpy as np

from repro.spice.dc import _newton, operating_point
from repro.spice.exceptions import ConvergenceError
from repro.spice.mna import StampContext
from repro.spice.netlist import Circuit
from repro.spice.results import OPResult, TransientResult

MAX_HALVINGS = 8


def transient_analysis(circuit: Circuit, t_stop: float, dt: float,
                       x0: np.ndarray | OPResult | None = None,
                       integ: str = "trap",
                       use_ic: bool = False) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop`` with output step ``dt``.

    Parameters
    ----------
    x0:
        Starting solution; by default the DC operating point at t=0 sources.
    integ:
        ``"trap"`` (default) or ``"be"``.
    use_ic:
        When True, skip the DC solve and start from all-zeros plus element
        initial conditions (SPICE ``uic``).
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise ValueError("need 0 < dt <= t_stop")
    if integ not in ("trap", "be"):
        raise ValueError("integ must be 'trap' or 'be'")

    circuit.ensure_bound()
    if use_ic:
        x = np.zeros(circuit.size)
    elif x0 is None:
        x = operating_point(circuit).x.copy()
    elif isinstance(x0, OPResult):
        x = x0.x.copy()
    else:
        x = np.asarray(x0, dtype=float).copy()

    # Compiled after any operating-point solve, so Newton's assemblies
    # below read this form and its companion state.
    compiled = circuit.compile()
    compiled.init_state(x)

    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    xs = np.empty((n_steps + 1, circuit.size))
    xs[0] = x

    t = 0.0
    first_substep = True
    for k in range(1, n_steps + 1):
        t_target = times[k]
        while t < t_target - 1e-18 * max(1.0, t_target):
            remaining = t_target - t
            h = remaining
            level = 0
            while True:
                method = "be" if (first_substep or integ == "be") else "trap"
                ctx = StampContext(analysis="tran", time=t + h, dt=h,
                                   integ=method)
                try:
                    x_new, _ = _newton(circuit, x, ctx, max_iter=60)
                    break
                except ConvergenceError:
                    level += 1
                    if level > MAX_HALVINGS:
                        raise ConvergenceError(
                            f"transient stuck at t={t:g}s "
                            f"(circuit {circuit.title!r})"
                        ) from None
                    h *= 0.5
            compiled.commit(x_new, ctx)
            x = x_new
            t += h
            first_substep = False
        xs[k] = x
    return TransientResult(circuit, times, xs)
