"""Two-stage Miller-compensated OTA (paper Fig. 4a, Tables I & II, Eq. 7).

Topology (generic two-stage OTA, NMOS input pair):

* first stage: NMOS differential pair M1a/M1b (W1, L1) with PMOS
  current-mirror load M3/M4 (W2, L2) and NMOS tail M5 (W3, L3, m=N1);
* bias: resistor R from VDD into diode-connected NMOS MB (W3, L3), whose
  gate node biases M5 and the second-stage sink;
* second stage: PMOS common-source driver M6 (W4, L4, m=N2) with NMOS
  current sink M7 (W5, L5, m=N3);
* compensation: Miller capacitor Cf from the first-stage output to the
  output; C is the load capacitor at the output.

Signal polarity: the non-inverting input is M1b's gate (``inn`` node here),
the inverting input is M1a's gate, so the unity-gain bench ties the output
back to M1a's gate.

Metrics (Eq. 7): minimize power s.t. DC gain > 60 dB, CMRR > 80 dB,
PSRR > 80 dB, PM > 60 deg, settling < 100 ns, UGF > 30 MHz,
output swing > 1.5 V, integrated output noise < 30 mVrms.
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
    transient_analysis,
)
from repro.spice import measure as M
from repro.spice.ac import logspace_frequencies
from repro.spice.exceptions import SpiceError
from repro.spice.waveforms import Pulse

VDD = 1.8
VCM = 0.9
STEP = 0.2           # settling-bench input step [V]
NOISE_BAND = (10.0, 1e7)   # integration band for output noise [Hz]


def build_ota(params: dict[str, float], closed_loop: bool = False,
              step_input: bool = False,
              nmos=NMOS_180, pmos=PMOS_180) -> Circuit:
    """Construct the OTA netlist from a Table-I parameter dict.

    ``closed_loop`` ties the output to the inverting input (unity-gain
    buffer); ``step_input`` replaces the non-inverting input's DC source
    with the settling-bench step.  ``nmos``/``pmos`` select the model cards
    (process corners).
    """
    l1, l2, l3, l4, l5 = (params[k] * UM for k in ("L1", "L2", "L3", "L4", "L5"))
    w1, w2, w3, w4, w5 = (params[k] * UM for k in ("W1", "W2", "W3", "W4", "W5"))
    r_bias = params["R"] * KOHM
    c_load = params["C"] * FF
    c_miller = params["Cf"] * FF
    n1, n2, n3 = (int(params[k]) for k in ("N1", "N2", "N3"))

    ckt = Circuit("two-stage-ota")
    ckt.add_vsource("Vdd", "vdd", "0", VDD)
    if step_input:
        wave = Pulse(VCM, VCM + STEP, td=20e-9, tr=1e-9, tf=1e-9, pw=1.0)
        ckt.add_vsource("Vp", "inn", "0", wave)
    else:
        ckt.add_vsource("Vp", "inn", "0", VCM)          # non-inverting input
    if closed_loop:
        ckt.add_resistor("Rfb", "out", "inp", 1.0)      # direct feedback
    else:
        ckt.add_vsource("Vn", "inp", "0", VCM)          # inverting input
    # Bias chain.
    ckt.add_resistor("Rb", "vdd", "nb", r_bias)
    ckt.add_mosfet("MB", "nb", "nb", "0", "0", nmos, w=w3, l=l3)
    # First stage.
    ckt.add_mosfet("M5", "tail", "nb", "0", "0", nmos, w=w3, l=l3, m=n1)
    ckt.add_mosfet("M1a", "d1", "inp", "tail", "0", nmos, w=w1, l=l1)
    ckt.add_mosfet("M1b", "out1", "inn", "tail", "0", nmos, w=w1, l=l1)
    ckt.add_mosfet("M3", "d1", "d1", "vdd", "vdd", pmos, w=w2, l=l2)
    ckt.add_mosfet("M4", "out1", "d1", "vdd", "vdd", pmos, w=w2, l=l2)
    # Second stage.
    ckt.add_mosfet("M6", "out", "out1", "vdd", "vdd", pmos, w=w4, l=l4, m=n2)
    ckt.add_mosfet("M7", "out", "nb", "0", "0", nmos, w=w5, l=l5, m=n3)
    # Compensation and load.
    ckt.add_capacitor("Cf", "out1", "out", c_miller)
    ckt.add_capacitor("CL", "out", "0", c_load)
    return ckt


class TwoStageOTA(CircuitTask):
    """Sizing task for the two-stage OTA (16 parameters, 8 constraints)."""

    def __init__(self, fidelity: str = "fast", corner: str = "tt",
                 temp_c: float | None = None) -> None:
        super().__init__(fidelity, corner=corner, temp_c=temp_c)
        self.name = "ota"
        self.space = DesignSpace([
            *(Parameter(f"L{i}", 0.18, 2.0, unit="um") for i in range(1, 6)),
            *(Parameter(f"W{i}", 0.22, 150.0, unit="um") for i in range(1, 6)),
            Parameter("R", 0.1, 100.0, unit="kOhm"),
            Parameter("C", 100.0, 2000.0, unit="fF"),
            Parameter("Cf", 100.0, 10000.0, unit="fF"),
            *(Parameter(f"N{i}", 1, 20, integer=True) for i in range(1, 4)),
        ])
        self.target = Target("power", weight=1.0, fail_value=VDD * 0.1,
                             unit="W", log_scale=True, log_floor=1e-7)
        self.specs = [
            Spec("dc_gain", ">", 60.0, fail_value=0.0, unit="dB"),
            Spec("cmrr", ">", 80.0, fail_value=0.0, unit="dB"),
            Spec("psrr", ">", 80.0, fail_value=0.0, unit="dB"),
            Spec("pm", ">", 60.0, fail_value=0.0, unit="deg"),
            Spec("settling", "<", 100e-9, fail_value=1e-6, unit="s",
                 log_scale=True, log_floor=1e-10),
            Spec("ugf", ">", 30e6, fail_value=1e3, unit="Hz",
                 log_scale=True, log_floor=1e3),
            Spec("swing", ">", 1.5, fail_value=0.0, unit="V"),
            Spec("noise", "<", 30e-3, fail_value=1.0, unit="Vrms",
                 log_scale=True, log_floor=1e-6),
        ]

    def build_netlist(self, params: dict[str, float]) -> Circuit:
        """Open-loop bench netlist (the static-analysis view of a design)."""
        return build_ota(params, nmos=self.nmos, pmos=self.pmos)

    # -- measurements ---------------------------------------------------------
    def measure(self, params: dict[str, float]) -> dict[str, float]:
        metrics: dict[str, float | None] = {}
        fid = self.fid

        # Open-loop bench: OP, differential / common-mode / supply AC, noise.
        ckt = build_ota(params, nmos=self.nmos, pmos=self.pmos)
        try:
            op = operating_point(ckt)
        except SpiceError:
            return {}
        metrics["power"] = VDD * abs(op.branch_current("Vdd"))

        freqs = logspace_frequencies(10.0, 3e9, fid.ac_ppd)

        def _ac_with(vp_ac: float, vn_ac: float, vdd_ac: float) -> np.ndarray:
            ckt["Vp"].ac = vp_ac
            ckt["Vn"].ac = vn_ac
            ckt["Vdd"].ac = vdd_ac
            return ac_analysis(ckt, freqs, op).v("out")

        h_dm = self._try(lambda: _ac_with(0.5, -0.5, 0.0))
        if h_dm is not None:
            metrics["dc_gain"] = float(M.db(h_dm[0]))
            ugf = M.unity_gain_frequency(freqs, h_dm)
            metrics["ugf"] = ugf
            metrics["pm"] = M.phase_margin(freqs, h_dm) if ugf else None
            h_cm = self._try(lambda: _ac_with(1.0, 1.0, 0.0))
            if h_cm is not None:
                metrics["cmrr"] = float(M.db(h_dm[0]) - M.db(h_cm[0]))
            h_ps = self._try(lambda: _ac_with(0.0, 0.0, 1.0))
            if h_ps is not None:
                metrics["psrr"] = float(M.db(h_dm[0]) - M.db(h_ps[0]))

        # Closed-loop bench: output swing at the centered OP, settling, and
        # the output noise of the unity-gain configuration (measuring noise
        # open-loop would just report the amplified equivalent input noise).
        buf = build_ota(params, closed_loop=True, nmos=self.nmos,
                        pmos=self.pmos)
        op_buf = self._try(lambda: operating_point(buf))
        if op_buf is not None:
            vov6 = max(op_buf.element_info("M6")["vov"], 0.1)
            vov7 = max(op_buf.element_info("M7")["vov"], 0.1)
            metrics["swing"] = VDD - vov6 - vov7
            metrics["settling"] = self._try(
                lambda: self._settling(params, op_buf.x)
            )

            def _noise() -> float:
                buf["Vp"].ac = 1.0
                buf["Vdd"].ac = 0.0
                nfreqs = logspace_frequencies(*NOISE_BAND, fid.noise_ppd)
                nz = noise_analysis(buf, "out", nfreqs, input_source="Vp",
                                    x_op=op_buf)
                return nz.integrated_output_noise()

            metrics["noise"] = self._try(_noise)
        return {k: v for k, v in metrics.items() if v is not None}

    def _settling(self, params: dict[str, float], x_buf: np.ndarray) -> float | None:
        """1 %% settling time of the unity-gain buffer to a 0.2 V step."""
        window = 400e-9
        step_ckt = build_ota(params, closed_loop=True, step_input=True,
                             nmos=self.nmos, pmos=self.pmos)
        dt = window / self.fid.tran_points
        tran = transient_analysis(step_ckt, window, dt, x0=x_buf)
        vout = tran.v("out")
        t_edge = 21e-9
        if abs(vout[-1] - (VCM + STEP)) > 0.1 * STEP:
            return None  # output railed / grossly off target
        # Settle to the buffer's own final value (static gain error is
        # policed by the dc_gain spec, not here).
        return M.settling_time(tran.times, vout, final_value=None,
                               tol=0.01, t_start=t_edge)
