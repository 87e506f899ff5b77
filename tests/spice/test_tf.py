"""Tests for the .TF-style DC transfer-function analysis."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, operating_point
from repro.spice.exceptions import AnalysisError
from repro.spice.tf import transfer_function


class TestLinear:
    def test_divider_gain_and_resistances(self):
        ckt = Circuit()
        ckt.add_vsource("Vin", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "out", 3e3)
        ckt.add_resistor("R2", "out", "0", 1e3)
        tf = transfer_function(ckt, "Vin", "out")
        assert tf.gain == pytest.approx(0.25, rel=1e-6)
        assert tf.input_resistance == pytest.approx(4e3, rel=1e-6)
        assert tf.output_resistance == pytest.approx(750.0, rel=1e-6)

    def test_current_source_transresistance(self):
        ckt = Circuit()
        ckt.add_isource("Iin", "0", "out", 0.0)
        ckt.add_resistor("R1", "out", "0", 2e3)
        tf = transfer_function(ckt, "Iin", "out")
        assert tf.gain == pytest.approx(2e3, rel=1e-6)
        assert tf.input_resistance == pytest.approx(2e3, rel=1e-6)

    def test_capacitor_open_at_dc(self):
        ckt = Circuit()
        ckt.add_vsource("Vin", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "out", 1e3)
        ckt.add_capacitor("C1", "out", "mid", 1e-9)
        ckt.add_resistor("R2", "mid", "0", 1e3)
        ckt.add_resistor("R3", "out", "0", 1e6)
        tf = transfer_function(ckt, "Vin", "out")
        # C blocks: divider is R1 / R3
        assert tf.gain == pytest.approx(1e6 / (1e6 + 1e3), rel=1e-4)

class TestNonlinear:
    def test_cs_amplifier_gain_matches_ac(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.65)
        ckt.add_resistor("RL", "vdd", "d", 20e3)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, 10e-6, 1e-6)
        op = operating_point(ckt)
        info = op.element_info("M1")
        rout_expected = 1.0 / (1.0 / 20e3 + info["gds"])
        tf = transfer_function(ckt, "Vg", "d", x_op=op)
        assert abs(tf.gain) == pytest.approx(info["gm"] * rout_expected,
                                             rel=1e-3)
        assert tf.output_resistance == pytest.approx(rout_expected, rel=1e-3)

    def test_gate_input_resistance_is_huge(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.65)
        ckt.add_resistor("RL", "vdd", "d", 20e3)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, 10e-6, 1e-6)
        tf = transfer_function(ckt, "Vg", "d")
        assert tf.input_resistance > 1e9


class TestValidation:
    def test_ground_output_raises(self):
        ckt = Circuit()
        ckt.add_vsource("Vin", "a", "0", 1.0)
        ckt.add_resistor("R", "a", "0", 1e3)
        with pytest.raises(AnalysisError):
            transfer_function(ckt, "Vin", "0")

    def test_non_source_input_raises(self):
        ckt = Circuit()
        ckt.add_vsource("Vin", "a", "0", 1.0)
        ckt.add_resistor("R", "a", "0", 1e3)
        with pytest.raises(AnalysisError):
            transfer_function(ckt, "R", "a")

    def test_singular_system_raises(self):
        # Two ideal voltage sources in parallel: no unique branch currents.
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_vsource("V2", "a", "0", 1.0)
        ckt.add_resistor("R", "a", "b", 1e3)
        ckt.add_resistor("RL", "b", "0", 1e3)
        with pytest.raises(AnalysisError, match="singular small-signal"):
            transfer_function(ckt, "V1", "b", x_op=np.zeros(ckt.size))
