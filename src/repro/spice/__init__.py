"""A compact analog circuit simulator (the repo's HSpice substitute).

Implements Modified Nodal Analysis over dense numpy matrices with:

* DC operating point (Newton-Raphson with gmin- and source-stepping
  homotopy),
* AC small-signal analysis (complex MNA linearized at the OP),
* transient analysis (backward-Euler / trapezoidal companion models with
  per-step Newton and step halving on non-convergence),
* small-signal noise analysis (adjoint method; thermal + flicker sources).

Devices: resistors, capacitors, independent V/I sources, and a C1-smooth
EKV-style MOSFET model with representative 180 nm parameter cards, at five
process corners and any temperature.  These are exactly the element kinds
the paper's three circuits (two-stage OTA, three-stage TIA, LDO) are built
from.  Sources take DC or PULSE waveforms.

The circuits in the MA-Opt paper are a few dozen nodes, so dense LU
factorization is both simpler and faster than sparse machinery here.
"""

from repro.spice.ac import ac_analysis
from repro.spice.corners import corner_models
from repro.spice.dc import operating_point
from repro.spice.exceptions import (
    AnalysisError,
    ConvergenceError,
    NetlistError,
    SpiceError,
)
from repro.spice.models import MosfetModel, NMOS_180, PMOS_180
from repro.spice.netlist import Circuit
from repro.spice.noise import noise_analysis
from repro.spice.tf import transfer_function
from repro.spice.transient import transient_analysis
from repro.spice.waveforms import DCWave, Pulse

__all__ = [
    "Circuit",
    "operating_point",
    "ac_analysis",
    "transient_analysis",
    "noise_analysis",
    "transfer_function",
    "corner_models",
    "MosfetModel",
    "NMOS_180",
    "PMOS_180",
    "DCWave",
    "Pulse",
    "SpiceError",
    "NetlistError",
    "ConvergenceError",
    "AnalysisError",
]
