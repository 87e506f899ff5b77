"""Monte Carlo device mismatch.

Implements Pelgrom-style local variation: each MOSFET instance receives an
independent threshold-voltage and mobility perturbation whose sigma shrinks
with the device's gate area,

    sigma(dVTO) = A_VT / sqrt(W L m),    sigma(dKP/KP) = A_KP / sqrt(W L m)

with the Pelgrom coefficients defaulting to generic 180 nm values
(A_VT ~ 3.5 mV*um, A_KP ~ 1 %*um).

Mismatch is applied by *replacing each instance's model* with a perturbed
copy — cheap, reversible (:func:`apply_mismatch` returns the originals) and
without netlist rebuild; the next analysis compiles the new models in.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.spice.elements import Mosfet
from repro.spice.exceptions import SpiceError
from repro.spice.netlist import Circuit

A_VT = 3.5e-9   # V*m  (3.5 mV*um)
A_KP = 0.01e-6  # fractional KP sigma * m (1 %*um)


def apply_mismatch(circuit: Circuit, rng: np.random.Generator,
                   a_vt: float = A_VT, a_kp: float = A_KP) -> dict[str, object]:
    """Perturb every MOSFET's model in place; returns {name: original_model}
    so the caller can restore with :func:`restore_models`."""
    originals: dict[str, object] = {}
    for elem in circuit.elements:
        if not isinstance(elem, Mosfet):
            continue
        area = elem.w * elem.l * elem.m
        sigma_vt = a_vt / np.sqrt(area)
        sigma_kp = a_kp / np.sqrt(area)
        model = elem.model
        originals[elem.name] = model
        dvto = rng.normal(0.0, sigma_vt)
        dkp = rng.normal(0.0, sigma_kp)
        elem.model = replace(
            model,
            vto=max(model.vto + dvto, 0.05),
            kp=model.kp * max(1.0 + dkp, 0.1),
        )
    return originals


def restore_models(circuit: Circuit, originals: dict[str, object]) -> None:
    """Undo :func:`apply_mismatch`."""
    for elem in circuit.elements:
        if elem.name in originals:
            elem.model = originals[elem.name]


def monte_carlo(circuit_factory: Callable[[], Circuit],
                measure: Callable[[Circuit], float],
                n_samples: int,
                rng: np.random.Generator | None = None,
                a_vt: float = A_VT, a_kp: float = A_KP,
                seed: int | None = None) -> np.ndarray:
    """Run ``measure`` over ``n_samples`` mismatch realizations.

    ``circuit_factory`` builds a fresh nominal circuit; ``measure`` runs the
    analyses it needs and returns a scalar.  Failed samples (a
    :class:`~repro.spice.exceptions.SpiceError`) are returned as NaN so
    yield can be computed; any other exception propagates.  Mismatch
    draws come from ``rng``, or from a generator derived from ``seed``
    when no generator is passed — there is no unseeded fallback, so a
    yield estimate is always reproducible.

    Example: input-offset spread of a differential pair
    ---------------------------------------------------
    >>> import numpy as np
    >>> from repro.spice import Circuit, NMOS_180, operating_point
    >>> def build():
    ...     ckt = Circuit("pair")
    ...     ckt.add_vsource("Vdd", "vdd", "0", 1.8)
    ...     ckt.add_vsource("Vp", "a", "0", 0.9)
    ...     ckt.add_vsource("Vn", "b", "0", 0.9)
    ...     ckt.add_isource("It", "t", "0", 20e-6)
    ...     ckt.add_mosfet("M1", "x", "a", "t", "0", NMOS_180, 10e-6, 1e-6)
    ...     ckt.add_mosfet("M2", "y", "b", "t", "0", NMOS_180, 10e-6, 1e-6)
    ...     ckt.add_resistor("R1", "vdd", "x", 50e3)
    ...     ckt.add_resistor("R2", "vdd", "y", 50e3)
    ...     return ckt
    >>> def offset(ckt):
    ...     op = operating_point(ckt)
    ...     return op.v("x") - op.v("y")
    >>> spread = monte_carlo(build, offset, 8,
    ...                      rng=np.random.default_rng(0))
    >>> spread.shape
    (8,)
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(seed)
    out = np.empty(n_samples)
    for k in range(n_samples):
        ckt = circuit_factory()
        apply_mismatch(ckt, rng, a_vt=a_vt, a_kp=a_kp)
        try:
            out[k] = float(measure(ckt))
        except SpiceError:
            out[k] = np.nan
    return out
