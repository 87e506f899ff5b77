"""Three-stage transimpedance amplifier (paper Fig. 4b, Tables III & IV, Eq. 8).

Topology: three cascaded NMOS common-source stages with PMOS current-source
loads, enclosed by a resistive feedback R (with parallel compensation Cf)
from output to input — the classic shunt-shunt feedback TIA.  The odd
number of inverting stages makes the loop negative.

* stage i (i = 1..3): NMOS driver Mi (Wi, Li) and PMOS load MPi
  (W4, L4, m=Ni) biased from a shared gate rail;
* bias rail: series diode pair MPB (W4, L4) / MNB (W5, L5) across the
  supply sets the PMOS gate voltage;
* input: photodiode modeled as AC current source with 200 fF junction
  capacitance;
* a 0 V source Vinj sits between the output and the feedback resistor; its
  AC excitation measures the loop gain by single voltage injection
  (Rosenstark approximation, valid here because the amplifier output
  impedance is much smaller than the feedback impedance).

Metrics (Eq. 8): minimize power s.t. DC gain > 80 dB, unity-gain frequency
> 1 GHz, input-referred current noise at 1 MHz below 10 pA/sqrt(Hz).

"DC gain" is read as the amplifier's open-loop *voltage* gain (the paper
writes plain dB, exactly as for the OTA).  At DC the feedback network loads
the gate-input amplifier negligibly, so the low-frequency loop gain from
the injection measurement equals that voltage gain; both the gain and the
unity-gain frequency therefore come from the same loop transfer function.
The closed-loop transimpedance is reported as the auxiliary ``zt_ohm``
metric.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.common import FF, KOHM, UM, CircuitTask
from repro.core.problem import Spec, Target
from repro.core.space import DesignSpace, Parameter
from repro.spice import (
    Circuit,
    NMOS_180,
    PMOS_180,
    ac_analysis,
    noise_analysis,
    operating_point,
)
from repro.spice import measure as M
from repro.spice.ac import logspace_frequencies
from repro.spice.exceptions import SpiceError

VDD = 1.8
C_PHOTODIODE = 2e-12     # photodiode junction capacitance
C_OUT = 200e-15          # next-stage load at the TIA output
NOISE_SPOT_HZ = 1e5      # flicker-sensitive spot frequency


def build_tia(params: dict[str, float],
              nmos=NMOS_180, pmos=PMOS_180) -> Circuit:
    """Construct the TIA netlist from a Table-III parameter dict.

    ``nmos``/``pmos`` select the model cards (process corners).
    """
    l1, l2, l3, l4, l5 = (params[k] * UM for k in ("L1", "L2", "L3", "L4", "L5"))
    w1, w2, w3, w4, w5 = (params[k] * UM for k in ("W1", "W2", "W3", "W4", "W5"))
    r_fb = params["R"] * KOHM
    c_fb = params["Cf"] * FF
    n1, n2, n3 = (int(params[k]) for k in ("N1", "N2", "N3"))

    ckt = Circuit("three-stage-tia")
    ckt.add_vsource("Vdd", "vdd", "0", VDD)
    # Input photodiode: AC test current + junction capacitance.
    ckt.add_isource("Iin", "0", "in", 0.0)
    ckt.add_capacitor("Cpd", "in", "0", C_PHOTODIODE)
    # Bias rail for the PMOS loads.
    ckt.add_mosfet("MPB", "pb", "pb", "vdd", "vdd", pmos, w=w4, l=l4)
    ckt.add_mosfet("MNB", "pb", "pb", "0", "0", nmos, w=w5, l=l5)
    # Gain stages.
    ckt.add_mosfet("M1", "n1", "in", "0", "0", nmos, w=w1, l=l1)
    ckt.add_mosfet("MP1", "n1", "pb", "vdd", "vdd", pmos, w=w4, l=l4, m=n1)
    ckt.add_mosfet("M2", "n2", "n1", "0", "0", nmos, w=w2, l=l2)
    ckt.add_mosfet("MP2", "n2", "pb", "vdd", "vdd", pmos, w=w4, l=l4, m=n2)
    ckt.add_mosfet("M3", "out", "n2", "0", "0", nmos, w=w3, l=l3)
    ckt.add_mosfet("MP3", "out", "pb", "vdd", "vdd", pmos, w=w4, l=l4, m=n3)
    ckt.add_capacitor("Cout", "out", "0", C_OUT)
    # Feedback network with a loop-gain injection point at the amp output.
    ckt.add_vsource("Vinj", "out", "fbr", 0.0)
    ckt.add_resistor("Rfb", "fbr", "in", r_fb)
    ckt.add_capacitor("Cfb", "fbr", "in", c_fb)
    return ckt


class ThreeStageTIA(CircuitTask):
    """Sizing task for the three-stage TIA (15 parameters, 3 constraints)."""

    def __init__(self, fidelity: str = "fast", corner: str = "tt",
                 temp_c: float | None = None) -> None:
        super().__init__(fidelity, corner=corner, temp_c=temp_c)
        self.name = "tia"
        self.space = DesignSpace([
            *(Parameter(f"L{i}", 0.18, 2.0, unit="um") for i in range(1, 6)),
            *(Parameter(f"W{i}", 0.22, 150.0, unit="um") for i in range(1, 6)),
            Parameter("R", 0.1, 100.0, unit="kOhm"),
            Parameter("Cf", 100.0, 2000.0, unit="fF"),
            *(Parameter(f"N{i}", 1, 20, integer=True) for i in range(1, 4)),
        ])
        self.target = Target("power", weight=1.0, fail_value=VDD * 0.1,
                             unit="W", log_scale=True, log_floor=1e-7)
        self.specs = [
            Spec("dc_gain", ">", 80.0, fail_value=0.0, unit="dB"),
            Spec("ugf", ">", 1e9, fail_value=1e6, unit="Hz",
                 log_scale=True, log_floor=1e5),
            Spec("in_noise", "<", 10e-12, fail_value=1e-9,
                 unit="A/sqrt(Hz) @1MHz", log_scale=True, log_floor=1e-14),
        ]

    def build_netlist(self, params: dict[str, float]):
        """Transimpedance bench netlist (the static-analysis view)."""
        return build_tia(params, nmos=self.nmos, pmos=self.pmos)

    def measure(self, params: dict[str, float]) -> dict[str, float]:
        metrics: dict[str, float | None] = {}
        fid = self.fid
        ckt = build_tia(params, nmos=self.nmos, pmos=self.pmos)
        try:
            op = operating_point(ckt)
        except SpiceError:
            return {}
        metrics["power"] = VDD * abs(op.branch_current("Vdd"))

        freqs = logspace_frequencies(1e3, 3e10, fid.ac_ppd)

        # Closed-loop transimpedance: drive the photodiode current.
        def _zt() -> np.ndarray:
            ckt["Iin"].ac = 1.0
            ckt["Vinj"].ac = 0.0
            return ac_analysis(ckt, freqs, op).v("out")

        zt = self._try(_zt)
        if zt is not None:
            metrics["zt_ohm"] = float(np.abs(zt[0]))

        # Loop gain by voltage injection at the amplifier output.
        def _loop() -> np.ndarray:
            ckt["Iin"].ac = 0.0
            ckt["Vinj"].ac = 1.0
            ac = ac_analysis(ckt, freqs, op)
            v_fwd = ac.v("fbr")
            v_ret = ac.v("out")
            safe = np.where(np.abs(v_fwd) < 1e-18, 1e-18, v_fwd)
            return -v_ret / safe

        loop = self._try(_loop)
        if loop is not None:
            metrics["dc_gain"] = float(M.db(loop[0]))
            metrics["ugf"] = M.unity_gain_frequency(freqs, loop)
            metrics["loop_pm"] = M.phase_margin(freqs, loop)

        # Input-referred current noise at the 1 MHz spot.
        def _noise() -> float:
            ckt["Iin"].ac = 1.0
            ckt["Vinj"].ac = 0.0
            nfreqs = logspace_frequencies(1e5, 1e7, max(fid.noise_ppd, 3))
            nz = noise_analysis(ckt, "out", nfreqs, input_source="Iin", x_op=op)
            spot = np.interp(np.log10(NOISE_SPOT_HZ), np.log10(nz.freqs),
                             nz.input_referred_psd)
            return float(np.sqrt(spot))

        metrics["in_noise"] = self._try(_noise)
        return {k: v for k, v in metrics.items() if v is not None}
