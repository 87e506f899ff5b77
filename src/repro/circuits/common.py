"""Shared infrastructure for the circuit sizing tasks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SizingTask
from repro.spice.exceptions import SpiceError

# Unit multipliers used by the parameter tables.
UM = 1e-6
KOHM = 1e3
FF = 1e-15


@dataclass(frozen=True)
class Fidelity:
    """Analysis-resolution knobs shared by all circuit benches.

    ``full`` matches what an HSpice bench would sweep; ``fast`` trades
    resolution for ~5x speed (used by tests and default bench runs).
    """

    ac_ppd: int            # AC points per decade
    noise_ppd: int         # noise-analysis points per decade
    tran_points: int       # transient output points per window

    @classmethod
    def of(cls, name: str) -> "Fidelity":
        presets = {
            "full": cls(ac_ppd=8, noise_ppd=6, tran_points=400),
            "fast": cls(ac_ppd=4, noise_ppd=3, tran_points=120),
        }
        try:
            return presets[name]
        except KeyError:
            raise ValueError(
                f"unknown fidelity {name!r}; options: {sorted(presets)}"
            ) from None


class CircuitTask(SizingTask):
    """Base class for circuit sizing tasks.

    Subclasses implement :meth:`measure`, returning a metric dict; any
    exception inside a measurement is confined to the metrics it produces
    (the caller substitutes decisive fail values), mirroring how a sizing
    flow treats non-convergent or meaningless SPICE measurements.

    ``corner`` selects the process corner every bench simulates at
    (``tt``/``ff``/``ss``/``fs``/``sf``); ``temp_c`` re-evaluates the model
    cards at that junction temperature.  The resulting model pair is exposed
    as :attr:`nmos`/:attr:`pmos` and passed to the netlist builders, making
    PVT-aware sizing a constructor argument away.
    """

    def __init__(self, fidelity: str = "fast", corner: str = "tt",
                 temp_c: float | None = None) -> None:
        from repro.spice.corners import corner_models

        self.fidelity_name = fidelity
        self.fid = Fidelity.of(fidelity)
        self.corner = corner
        self.temp_c = temp_c
        self.nmos, self.pmos = corner_models(corner)
        if temp_c is not None:
            self.nmos = self.nmos.at_temperature(temp_c)
            self.pmos = self.pmos.at_temperature(temp_c)

    def simulate(self, u: np.ndarray) -> dict[str, float]:
        params = self.space.denormalize(u)
        return self.measure(params)

    def measure(self, params: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError

    # -- static analysis -----------------------------------------------------
    def build_netlist(self, params: dict[str, float]):
        """The task's primary bench netlist for a parameter dict, or None.

        Subclasses override this with their netlist builder so static
        analyses (``ma-opt lint``, the pre-simulation ERC gate in
        :class:`~repro.core.parallel.SimulationExecutor`) can inspect the
        exact circuit a design would simulate — without running it.
        """
        return None

    def lint_design(self, u: np.ndarray):
        """Electrical-rule-check one normalized design's netlist.

        Returns :class:`~repro.analysis.diagnostics.Diagnostic` findings
        (empty = clean).  Tasks without a netlist builder lint clean; a
        builder that *raises* on these parameters is itself an
        error-severity finding, since simulation would fail the same way.
        """
        from repro.analysis.erc import ERC_RULES, run_erc

        params = self.space.denormalize(u)
        try:
            circuit = self.build_netlist(params)
        except Exception as exc:
            return [ERC_RULES.diag(
                "erc.parse-error",
                f"netlist builder failed for {self.name}: {exc}",
                location=self.name,
                fix="check the design-space bounds against the builder")]
        if circuit is None:
            return []
        return run_erc(circuit)

    # Small helper: run ``fn`` and return None on a simulator error so a
    # single failing measurement doesn't void the rest of the metric dict.
    @staticmethod
    def _try(fn):
        try:
            return fn()
        except SpiceError:
            return None
