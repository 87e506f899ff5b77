"""Element values stepped between analyses: each operating point, AC sweep
and transient sees the value set last, derived quantities (a MOSFET's
capacitances from W, L and m) included."""

import numpy as np

from repro.spice import (
    Circuit,
    NMOS_180,
    ac_analysis,
    operating_point,
    transient_analysis,
)
from repro.spice.waveforms import Pulse


def stepped(ckt: Circuit, name: str, attr: str, values, measure) -> list:
    """``measure(op)`` after setting ``ckt[name].<attr>`` to each value in
    turn, warm-starting each operating point from the last."""
    out, guess = [], None
    for value in values:
        setattr(ckt[name], attr, value)
        op = operating_point(ckt, x0=guess)
        guess = op.x
        out.append(measure(op))
    return out


def divider():
    ckt = Circuit()
    ckt.add_vsource("V1", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "out", 1e3)
    ckt.add_resistor("R2", "out", "0", 1e3)
    return ckt


class TestResistorSweep:
    def test_divider_formula(self):
        vs = stepped(divider(), "R2", "resistance", [1e3, 2e3, 4e3],
                     measure=lambda op: op.v("out"))
        np.testing.assert_allclose(vs, [0.5, 2 / 3, 0.8], rtol=1e-6)


class TestMosfetSweep:
    def _amp(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.6)
        ckt.add_resistor("RL", "vdd", "d", 10e3)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, 10e-6, 1e-6)
        return ckt

    def test_width_sweep_increases_current(self):
        ids = stepped(self._amp(), "M1", "w", [5e-6, 20e-6, 80e-6],
                      measure=lambda op: op.element_info("M1")["id"])
        assert ids[0] < ids[1] < ids[2]

    def test_cap_cache_refreshed(self):
        ckt = self._amp()
        caps_before = ckt["M1"].capacitances()
        stepped(ckt, "M1", "w", [100e-6], measure=lambda op: 0.0)
        assert ckt["M1"].capacitances()["cgs"] > caps_before["cgs"]

    def test_length_sweep_reduces_current(self):
        ids = stepped(self._amp(), "M1", "l", [0.5e-6, 2e-6],
                      measure=lambda op: op.element_info("M1")["id"])
        assert ids[1] < ids[0]


def cs_stage(m: int = 1) -> Circuit:
    """Common-source stage driven through a source resistance, so the
    MOSFET capacitances set its bandwidth and step response."""
    ckt = Circuit()
    ckt.add_vsource("Vdd", "vdd", "0", 1.8)
    ckt.add_vsource("Vg", "g", "0",
                    Pulse(0.6, 0.65, td=1e-9, tr=1e-9, tf=1e-9, pw=5e-9),
                    ac=1.0)
    ckt.add_resistor("Rs", "g", "gi", 10e3)
    ckt.add_resistor("RL", "vdd", "d", 10e3)
    ckt.add_mosfet("M1", "d", "gi", "0", "0", NMOS_180, 10e-6, 1e-6, m=m)
    return ckt


class TestMultiplierSweep:
    def test_swept_multiplier_matches_fresh_circuit(self):
        """Capacitances follow m: after stepping m through 2 to 4, AC and
        transient agree with a circuit built with m=4."""
        swept = cs_stage(m=1)
        stepped(swept, "M1", "m", [2, 4], measure=lambda op: 0.0)
        fresh = cs_stage(m=4)
        freqs = np.logspace(4, 10, 13)
        np.testing.assert_allclose(ac_analysis(swept, freqs).v("d"),
                                   ac_analysis(fresh, freqs).v("d"),
                                   rtol=1e-9)
        np.testing.assert_allclose(
            transient_analysis(swept, 12e-9, 0.1e-9).v("d"),
            transient_analysis(fresh, 12e-9, 0.1e-9).v("d"), rtol=1e-9)
