"""Additional element-level tests: element validation and a PMOS with its
body at the supply."""

import pytest

from repro.spice import Circuit, NMOS_180, PMOS_180, operating_point
from repro.spice.elements import Capacitor, Mosfet, Resistor


class TestElementValidation:
    def test_negative_resistance_rejected(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", -1.0)

    def test_zero_capacitance_rejected(self):
        with pytest.raises(ValueError):
            Capacitor("C1", "a", "b", 0.0)

    def test_mosfet_geometry_validated(self):
        with pytest.raises(ValueError):
            Mosfet("M1", "d", "g", "s", "b", NMOS_180, w=-1e-6, l=1e-6)
        with pytest.raises(ValueError):
            Mosfet("M1", "d", "g", "s", "b", NMOS_180, w=1e-6, l=1e-6, m=0)


class TestPmosBodyAtSupply:
    def test_pmos_source_follower(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.5)
        ckt.add_mosfet("MP", "0", "g", "s", "vdd", PMOS_180,
                       w=20e-6, l=1e-6)
        ckt.add_resistor("Rs", "vdd", "s", 20e3)
        op = operating_point(ckt)
        # source sits roughly |VGS| above the gate
        assert 0.9 < op.v("s") < 1.6

