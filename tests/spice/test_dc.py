"""DC operating-point tests against hand-computable circuits."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, PMOS_180, operating_point
from repro.spice.waveforms import DCWave
from repro.spice.exceptions import AnalysisError


class TestLinearDC:
    def test_voltage_divider(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 10.0)
        ckt.add_resistor("R1", "in", "out", 3e3)
        ckt.add_resistor("R2", "out", "0", 1e3)
        op = operating_point(ckt)
        assert op.v("out") == pytest.approx(2.5, rel=1e-6)

    def test_source_branch_current_sign(self):
        """A supply sourcing current reports negative branch current."""
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "0", 1e3)
        op = operating_point(ckt)
        assert op.branch_current("V1") == pytest.approx(-1e-3, rel=1e-6)

    def test_current_source_polarity(self):
        """1 mA from a to 0 through the source pulls a below ground."""
        ckt = Circuit()
        ckt.add_isource("I1", "a", "0", 1e-3)
        ckt.add_resistor("R1", "a", "0", 1e3)
        op = operating_point(ckt)
        assert op.v("a") == pytest.approx(-1.0, rel=1e-6)

    def test_superposition(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 2.0)
        ckt.add_isource("I1", "0", "b", 1e-3)
        ckt.add_resistor("R1", "a", "b", 1e3)
        ckt.add_resistor("R2", "b", "0", 1e3)
        op = operating_point(ckt)
        # KCL at b: (vb-2)/1k + vb/1k = 1mA -> vb = 1.5
        assert op.v("b") == pytest.approx(1.5, rel=1e-6)

    def test_capacitor_is_dc_open(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        ckt.add_capacitor("C1", "b", "0", 1e-9)
        ckt.add_resistor("R2", "b", "0", 1e6)
        op = operating_point(ckt)
        # divider 1k/1M: v(b) ~ 0.999
        assert op.v("b") == pytest.approx(1e6 / (1e6 + 1e3), rel=1e-6)

    def test_supply_power(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 2.0)
        ckt.add_resistor("R1", "in", "0", 1e3)
        op = operating_point(ckt)
        assert op.supply_power("V1") == pytest.approx(4e-3, rel=1e-6)

    def test_empty_circuit_raises(self):
        with pytest.raises(AnalysisError):
            operating_point(Circuit())

    def test_bad_guess_shape_raises(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(AnalysisError):
            operating_point(ckt, x0=np.zeros(99))


class TestNonlinearDC:
    def test_nmos_diode_connected(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "vdd", "0", 1.8)
        ckt.add_resistor("R1", "vdd", "d", 10e3)
        ckt.add_mosfet("M1", "d", "d", "0", "0", NMOS_180, w=10e-6, l=1e-6)
        op = operating_point(ckt)
        vgs = op.v("d")
        assert NMOS_180.vto < vgs < 1.2
        i = op.element_info("M1")["id"]
        assert i == pytest.approx((1.8 - vgs) / 10e3, rel=1e-4)

    def test_current_mirror_ratio(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_isource("Iref", "nd", "0", 50e-6)
        ckt.add_mosfet("MP1", "nd", "nd", "vdd", "vdd", PMOS_180,
                       w=20e-6, l=1e-6)
        ckt.add_mosfet("MP2", "no", "nd", "vdd", "vdd", PMOS_180,
                       w=20e-6, l=1e-6, m=3)
        ckt.add_resistor("RO", "no", "0", 5e3)
        op = operating_point(ckt)
        i_out = op.v("no") / 5e3
        assert i_out == pytest.approx(150e-6, rel=0.1)

    def test_cmos_inverter_transfer(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vin", "in", "0", 0.0)
        ckt.add_mosfet("MN", "out", "in", "0", "0", NMOS_180, 2e-6, 0.18e-6)
        ckt.add_mosfet("MP", "out", "in", "vdd", "vdd", PMOS_180,
                       4e-6, 0.18e-6)
        vout, guess = [], None
        for vin in np.linspace(0.0, 1.8, 19):
            ckt["Vin"].waveform = DCWave(vin)
            op = operating_point(ckt, x0=guess)
            vout.append(op.v("out"))
            guess = op.x
        assert vout[0] > 1.7          # input low -> output high
        assert vout[-1] < 0.1         # input high -> output low
        assert all(b <= a + 1e-6 for a, b in zip(vout, vout[1:]))  # monotone

    def test_gmin_stepping_rescues_hard_start(self):
        """A high-gain stack that plain Newton from zeros may miss still
        converges via homotopy."""
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vb", "g", "0", 0.55)
        prev = "vdd"
        for i in range(4):
            node = f"n{i}"
            ckt.add_resistor(f"R{i}", prev, node, 50e3)
            ckt.add_mosfet(f"M{i}", node, "g", "0", "0", NMOS_180,
                           w=50e-6, l=0.5e-6)
            prev = node
        op = operating_point(ckt)
        assert np.all(np.isfinite(op.x))



class TestSweep:
    def test_sweep_values_tracked(self):
        """Stepping a source between operating points moves the solution
        with it: the divider midpoint follows V1 point by point."""
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 0.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        ckt.add_resistor("R2", "b", "0", 1e3)
        vb = []
        for value in (0.0, 1.0, 2.0):
            ckt["V1"].waveform = DCWave(value)
            vb.append(operating_point(ckt).v("b"))
        np.testing.assert_allclose(vb, [0.0, 0.5, 1.0], atol=1e-9)
