"""3.3 V -> 1.8 V low-dropout regulator (paper Fig. 4c, Tables V & VI, Eq. 9).

Topology:

* error amplifier: five-transistor OTA from the input supply — NMOS pair
  M1a/M1b (W1, L1), PMOS mirror M3/M4 (W2, L2), NMOS tail M5 (W3, L3,
  m=N1);
* bias: a fixed internal 60 kOhm resistor into diode-connected MNB
  (W5, L5, m=N3) sets the reference current; the tail mirrors it with
  ratio (W3 N1 / L3) / (W5 N3 / L5);
* pass device: PMOS MP (W4, L4, m=N2) from VIN to VOUT, gate driven by the
  error amplifier;
* feedback divider R1 (VOUT->FB) / R2 (FB->gnd) against an ideal 0.9 V
  reference, so VOUT = 0.9 * (1 + R1/R2);
* compensation: capacitor C from the pass gate to VOUT (Miller), plus a
  fixed 100 pF on-chip load capacitor.

Feedback polarity: FB drives M1a (whose path through the mirror is
non-inverting to the amp output) so a rising VOUT raises the PMOS gate and
throttles the pass device.

Metrics (Eq. 9): minimize quiescent current at 50 mA load, s.t.
1.75 < VOUT < 1.85 V, load regulation < 0.1 mV/mA, line regulation
< 0.1 %/V, four load/line-step settling times < 35 us, PSRR > 60 dB.
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
    operating_point,
    transient_analysis,
)
from repro.spice import measure as M
from repro.spice.ac import logspace_frequencies
from repro.spice.exceptions import SpiceError
from repro.spice.waveforms import Pulse

VIN_NOM = 3.3
VREF = 0.9
VOUT_NOM = 1.8
I_LOAD_NOM = 50e-3
I_LOAD_LOW = 0.1e-6
I_LOAD_HIGH = 150e-3
C_LOAD = 20e-12        # on-die output capacitor (cap-less-LDO style)
R_BIAS = 60e3          # fixed internal bias resistor [Ohm]
PSRR_SPOT_HZ = 10.0    # low-frequency PSRR spot
SETTLE_TOL_V = 0.036   # +-2% of the 1.8 V output


def build_ldo(params: dict[str, float],
              vin: "float | object" = VIN_NOM,
              iload: "float | object" = I_LOAD_NOM,
              nmos=NMOS_180, pmos=PMOS_180) -> Circuit:
    """Construct the LDO netlist from a Table-V parameter dict.

    ``vin`` / ``iload`` accept plain values or waveforms (for the line/load
    transient benches).
    """
    l1, l2, l3, l4, l5 = (params[k] * UM for k in ("L1", "L2", "L3", "L4", "L5"))
    w1, w2, w3, w4, w5 = (params[k] * UM for k in ("W1", "W2", "W3", "W4", "W5"))
    r1 = params["R1"] * KOHM
    r2 = params["R2"] * KOHM
    c_comp = params["C"] * FF
    n1, n2, n3 = (int(params[k]) for k in ("N1", "N2", "N3"))

    ckt = Circuit("ldo-regulator")
    ckt.add_vsource("Vin", "vin", "0", vin)
    ckt.add_vsource("Vref", "vref", "0", VREF)
    # Bias chain (N3 scales the mirror ratio via the diode multiplier).
    ckt.add_resistor("Rb", "vin", "nb", R_BIAS)
    ckt.add_mosfet("MNB", "nb", "nb", "0", "0", nmos, w=w5, l=l5, m=n3)
    # Error amplifier.
    ckt.add_mosfet("M5", "tail", "nb", "0", "0", nmos, w=w3, l=l3, m=n1)
    ckt.add_mosfet("M1a", "d1", "fb", "tail", "0", nmos, w=w1, l=l1)
    ckt.add_mosfet("M1b", "vg", "vref", "tail", "0", nmos, w=w1, l=l1)
    ckt.add_mosfet("M3", "d1", "d1", "vin", "vin", pmos, w=w2, l=l2)
    ckt.add_mosfet("M4", "vg", "d1", "vin", "vin", pmos, w=w2, l=l2)
    # Pass device and compensation.
    ckt.add_mosfet("MP", "vout", "vg", "vin", "vin", pmos, w=w4, l=l4, m=n2)
    ckt.add_capacitor("Cc", "vg", "vout", c_comp)
    # Feedback divider and load.
    ckt.add_resistor("R1", "vout", "fb", r1)
    ckt.add_resistor("R2", "fb", "0", r2)
    ckt.add_capacitor("CL", "vout", "0", C_LOAD)
    ckt.add_isource("Iload", "vout", "0", iload)
    return ckt


class LDORegulator(CircuitTask):
    """Sizing task for the LDO regulator (16 parameters, 9 constraints)."""

    def __init__(self, fidelity: str = "fast", corner: str = "tt",
                 temp_c: float | None = None) -> None:
        super().__init__(fidelity, corner=corner, temp_c=temp_c)
        self.name = "ldo"
        self.space = DesignSpace([
            *(Parameter(f"L{i}", 0.32, 3.0, unit="um") for i in range(1, 6)),
            *(Parameter(f"W{i}", 0.22, 200.0, unit="um") for i in range(1, 6)),
            Parameter("R1", 1.0, 100.0, unit="kOhm"),
            Parameter("R2", 1.0, 100.0, unit="kOhm"),
            Parameter("C", 100.0, 2000.0, unit="fF"),
            *(Parameter(f"N{i}", 1, 20, integer=True) for i in range(1, 4)),
        ])
        self.target = Target("qc", weight=1.0, fail_value=50e-3, unit="A",
                             log_scale=True, log_floor=1e-7)
        t_kw = dict(fail_value=1e-3, unit="s", log_scale=True,
                    log_floor=1e-8)
        self.specs = [
            Spec("vout", ">", 1.75, fail_value=0.0, unit="V"),
            Spec("vout_hi", "<", 1.85, fail_value=5.0, unit="V"),
            # 0.1 mV/mA == 0.1 V/A (i.e. 0.1 Ohm closed-loop output resistance)
            Spec("load_reg", "<", 0.1, fail_value=100.0, unit="V/A",
                 log_scale=True, log_floor=1e-5),
            Spec("line_reg", "<", 0.1, fail_value=100.0, unit="%/V",
                 log_scale=True, log_floor=1e-5),
            Spec("t_load_up", "<", 35e-6, **t_kw),
            Spec("t_load_dn", "<", 35e-6, **t_kw),
            Spec("t_line_up", "<", 35e-6, **t_kw),
            Spec("t_line_dn", "<", 35e-6, **t_kw),
            Spec("psrr", ">", 60.0, fail_value=0.0, unit="dB"),
        ]

    def _build(self, params: dict[str, float], **kwargs) -> Circuit:
        return build_ldo(params, nmos=self.nmos, pmos=self.pmos, **kwargs)

    def build_netlist(self, params: dict[str, float]) -> Circuit:
        """Nominal-load bench netlist (the static-analysis view)."""
        return self._build(params)

    def measure(self, params: dict[str, float]) -> dict[str, float]:
        metrics: dict[str, float | None] = {}
        ckt = self._build(params)
        try:
            op = operating_point(ckt)
        except SpiceError:
            return {}
        vout = op.v("vout")
        metrics["vout"] = vout
        metrics["vout_hi"] = vout
        # Quiescent current: everything the supply delivers beyond the load.
        i_in = abs(op.branch_current("Vin"))
        metrics["qc"] = max(i_in - I_LOAD_NOM, 0.0)

        # Regulation from warm-started DC solves.
        metrics["load_reg"] = self._try(lambda: self._load_reg(params, op.x))
        metrics["line_reg"] = self._try(lambda: self._line_reg(params, op.x))

        # PSRR at the 1 kHz spot.
        def _psrr() -> float:
            ckt["Vin"].ac = 1.0
            freqs = logspace_frequencies(PSRR_SPOT_HZ, 100.0, 2)
            h = ac_analysis(ckt, freqs, op).v("vout")
            return float(-M.db(h[0]))

        metrics["psrr"] = self._try(_psrr)

        # Only bother with the expensive transients when regulation is sane
        # (a railed LDO never settles; the fail values say so for free).
        if 1.0 < vout < 2.5:
            up, dn = self._try(lambda: self._load_transient(params, op.x)) \
                or (None, None)
            metrics["t_load_up"], metrics["t_load_dn"] = up, dn
            up, dn = self._try(lambda: self._line_transient(params, op.x)) \
                or (None, None)
            metrics["t_line_up"], metrics["t_line_dn"] = up, dn
        return {k: v for k, v in metrics.items() if v is not None}

    # -- DC benches -----------------------------------------------------------
    def _load_reg(self, params: dict[str, float], x_warm: np.ndarray) -> float:
        v = {}
        for tag, iload in (("lo", I_LOAD_LOW), ("hi", I_LOAD_HIGH)):
            ckt = self._build(params, iload=iload)
            v[tag] = operating_point(ckt, x0=x_warm).v("vout")
        return abs(v["lo"] - v["hi"]) / (I_LOAD_HIGH - I_LOAD_LOW)

    def _line_reg(self, params: dict[str, float], x_warm: np.ndarray) -> float:
        v = {}
        for tag, vin in (("lo", 3.0), ("hi", 3.6)):
            ckt = self._build(params, vin=vin)
            v[tag] = operating_point(ckt, x0=x_warm).v("vout")
        return 100.0 * abs(v["hi"] - v["lo"]) / VOUT_NOM / 0.6

    # -- transient benches -------------------------------------------------------
    def _two_edge_settling(self, ckt: Circuit, window: float, t_up: float,
                           t_dn: float) -> tuple[float | None, float | None]:
        """Settling time after each of the two stimulus edges.

        The first segment ends shortly *before* the second edge begins so
        its reference value is not polluted by the second edge's kick.
        """
        dt = window / self.fid.tran_points
        tran = transient_analysis(ckt, window, dt)
        t, v = tran.times, tran.v("vout")
        guard = 1.0e-6

        def _settle(edge: float, end: float) -> float | None:
            seg = (t >= edge) & (t <= end)
            ts, vs = t[seg], v[seg]
            if ts.size < 4:
                return None
            final = float(vs[-1])
            if abs(final - VOUT_NOM) > 0.1:
                return None  # did not return to regulation
            outside = np.abs(vs - final) > SETTLE_TOL_V
            if not np.any(outside):
                return 0.0
            last = int(np.nonzero(outside)[0][-1])
            if last + 1 >= ts.size:
                return None
            return float(ts[last + 1] - edge)

        return (_settle(t_up, t_dn - guard - 0.5e-6),
                _settle(t_dn, float(t[-1])))

    def _load_transient(self, params: dict[str, float],
                        x_warm: np.ndarray) -> tuple[float | None, float | None]:
        del x_warm  # the bench starts from its own DC point
        window = 100e-6
        wave = Pulse(I_LOAD_LOW, I_LOAD_HIGH, td=5e-6, tr=0.5e-6, tf=0.5e-6,
                     pw=45e-6)
        ckt = self._build(params, iload=wave)
        return self._two_edge_settling(ckt, window, t_up=5.5e-6, t_dn=51e-6)

    def _line_transient(self, params: dict[str, float],
                        x_warm: np.ndarray) -> tuple[float | None, float | None]:
        del x_warm
        window = 100e-6
        wave = Pulse(VIN_NOM, 2.0, td=5e-6, tr=0.5e-6, tf=0.5e-6, pw=45e-6)
        ckt = self._build(params, vin=wave)
        # Falling VIN edge first (3.3 -> 2.0), rising second (2.0 -> 3.3).
        dn, up = self._two_edge_settling(ckt, window, t_up=5.5e-6, t_dn=51e-6)
        return up, dn
