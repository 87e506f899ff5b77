"""DC operating point and DC sweep.

Newton-Raphson over the MNA companion formulation, with the standard SPICE
rescue ladder when plain Newton fails:

1. plain Newton from the supplied (or zero) initial guess,
2. gmin stepping: converge with a large diagonal gmin, then relax it decade
   by decade, warm-starting each stage,
3. source stepping: ramp all independent sources from 0 to 100 %.
"""

from __future__ import annotations

import numpy as np

from repro.spice.elements import CurrentSource, VoltageSource
from repro.spice.exceptions import AnalysisError, ConvergenceError
from repro.spice.mna import StampContext
from repro.spice.netlist import Circuit
from repro.spice.results import OPResult, SweepResult
from repro.spice.waveforms import DCWave

# Newton controls (SPICE-like defaults).
MAX_ITER = 120
VNTOL = 1e-9
RELTOL = 1e-6
DV_MAX = 1.0  # per-iteration voltage step clamp [V]


def _newton(circuit: Circuit, x0: np.ndarray, ctx: StampContext,
            max_iter: int = MAX_ITER) -> tuple[np.ndarray, int]:
    """Damped Newton iteration; returns (solution, iterations).

    Raises :class:`ConvergenceError` on failure and :class:`AnalysisError`
    on a structurally singular system.
    """
    x = x0.copy()
    n_nodes = circuit.n_nodes
    nonlinear = circuit.is_nonlinear
    for it in range(1, max_iter + 1):
        sys = circuit.assemble(x, ctx)
        try:
            x_new = np.linalg.solve(sys.A, sys.z)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(f"singular MNA matrix: {exc}") from exc
        if not np.all(np.isfinite(x_new)):
            raise ConvergenceError("non-finite Newton update")
        if not nonlinear:
            return x_new, it
        delta = x_new - x
        # Clamp node-voltage updates only (branch currents are free).
        dv = delta[:n_nodes]
        max_dv = np.max(np.abs(dv)) if n_nodes else 0.0
        if max_dv > DV_MAX:
            delta[:n_nodes] *= DV_MAX / max_dv
        x = x + delta
        converged = max_dv <= VNTOL + RELTOL * max(1.0, float(np.max(np.abs(x[:n_nodes])))) \
            if n_nodes else True
        # Only accept if the step was not clamped this iteration.
        if converged and np.max(np.abs(x_new - x)) < 1e-30 + VNTOL:
            return x, it
    raise ConvergenceError(
        f"Newton failed to converge in {max_iter} iterations "
        f"(circuit {circuit.title!r})"
    )


def operating_point(circuit: Circuit, x0: np.ndarray | None = None,
                    gmin: float = 1e-12) -> OPResult:
    """Solve the DC operating point with homotopy fallbacks."""
    if circuit.size == 0:
        raise AnalysisError("empty circuit")
    guess = np.zeros(circuit.size) if x0 is None else np.asarray(x0, dtype=float).copy()
    if guess.shape != (circuit.size,):
        raise AnalysisError(
            f"initial guess has shape {guess.shape}, expected ({circuit.size},)"
        )
    circuit.compile()

    # 1. plain Newton
    try:
        x, it = _newton(circuit, guess, StampContext(analysis="dc", gmin=gmin))
        return OPResult(circuit, x, it, strategy="newton")
    except ConvergenceError:
        pass

    # 2. gmin stepping
    x = guess.copy()
    try:
        total_it = 0
        for g in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, gmin):
            x, it = _newton(circuit, x, StampContext(analysis="dc", gmin=g))
            total_it += it
        return OPResult(circuit, x, total_it, strategy="gmin-stepping")
    except ConvergenceError:
        pass

    # 3. adaptive source stepping: ramp sources 0 -> 1, halving the step on
    # failure (down to a floor), always warm-starting from the last success.
    x = np.zeros(circuit.size)
    x_good = x.copy()
    scale = 0.0
    step = 0.1
    total_it = 0
    while scale < 1.0:
        trial = min(1.0, scale + step)
        try:
            x, it = _newton(
                circuit, x_good,
                StampContext(analysis="dc", gmin=gmin, source_scale=trial),
            )
            total_it += it
            x_good = x
            scale = trial
            step = min(step * 2.0, 0.2)
        except ConvergenceError:
            step *= 0.5
            if step < 1e-4:
                raise ConvergenceError(
                    f"operating point failed for circuit {circuit.title!r} "
                    "(newton, gmin stepping and source stepping all failed)"
                ) from None
    return OPResult(circuit, x_good, total_it, strategy="source-stepping")


def dc_sweep(circuit: Circuit, source_name: str, values: np.ndarray,
             x0: np.ndarray | None = None) -> SweepResult:
    """Sweep the DC value of an independent source, warm-starting each point.

    The source's waveform is restored afterwards.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise AnalysisError("empty sweep")
    elem = circuit[source_name]
    if not isinstance(elem, VoltageSource | CurrentSource):
        raise AnalysisError(f"{source_name!r} is not an independent source")
    saved = elem.waveform
    xs = np.empty((values.size, circuit.size))
    guess = x0
    try:
        for k, value in enumerate(values):
            elem.waveform = DCWave(float(value))
            op = operating_point(circuit, x0=guess)
            xs[k] = op.x
            guess = op.x
    finally:
        elem.waveform = saved
    return SweepResult(circuit, values, xs)
