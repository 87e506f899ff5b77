"""Unit tests for Circuit construction and MNA assembly."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180
from repro.spice.exceptions import NetlistError
from repro.spice.mna import StampContext


class TestNodes:
    def test_ground_aliases(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 1.0)
        ckt.add_resistor("R2", "b", "gnd", 1.0)
        ckt.add_resistor("R3", "c", "GND", 1.0)
        assert ckt.node_index("0") == -1
        assert ckt.node_index("gnd") == -1
        assert ckt.n_nodes == 3

    def test_node_indices_in_creation_order(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "x", "y", 1.0)
        assert ckt.node_index("x") == 0
        assert ckt.node_index("y") == 1

    def test_unknown_node_raises(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError):
            ckt.node_index("zzz")

    def test_node_names_sorted_by_index(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "x", "y", 1.0)
        ckt.add_resistor("R2", "y", "z", 1.0)
        assert ckt.node_names() == ["x", "y", "z"]


class TestElements:
    def test_duplicate_name_raises(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError):
            ckt.add_resistor("R1", "b", "0", 1.0)

    def test_lookup(self):
        ckt = Circuit()
        r = ckt.add_resistor("R1", "a", "0", 1.0)
        assert ckt["R1"] is r
        assert "R1" in ckt
        assert "R2" not in ckt

    def test_missing_lookup_raises(self):
        with pytest.raises(NetlistError):
            Circuit()["nope"]

    def test_branch_counting(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "b", 1.0)
        ckt.add_vsource("V2", "b", "0", 1.0)
        ckt.add_inductor("L1", "a", "b", 1e-9)
        assert ckt.n_branches == 3
        assert ckt.size == ckt.n_nodes + 3

    def test_is_nonlinear(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 1.0)
        assert not ckt.is_nonlinear
        ckt.add_mosfet("M1", "a", "a", "0", "0", NMOS_180, 1e-6, 1e-6)
        assert ckt.is_nonlinear


class TestAssembly:
    def test_resistor_stamps(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "b", 2.0)
        sys = ckt.assemble(np.zeros(2), StampContext(gmin=0.0))
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(sys.A, expected)

    def test_gmin_added_on_node_diagonals_only(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        sys = ckt.assemble(np.zeros(2), StampContext(gmin=1e-3))
        assert sys.A[0, 0] == pytest.approx(1e-3)
        # branch row diagonal untouched
        assert sys.A[1, 1] == 0.0

    def test_netlist_text_lists_everything(self):
        ckt = Circuit("demo")
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        ckt.add_mosfet("M1", "b", "a", "0", "0", NMOS_180, 1e-6, 1e-6, m=4)
        text = ckt.netlist_text()
        assert "* demo" in text
        assert "V1" in text and "R1" in text and "M1" in text
        assert "m=4" in text
        assert text.endswith(".end")


class TestMNASystem:
    """MNA conventions of the assembled system (ground row/column dropped,
    conductance pattern, current direction, complex AC system)."""

    def test_ground_stamps_ignored(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 0.2)
        ckt.add_isource("I1", "0", "b", 5.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        sys = ckt.assemble(np.zeros(2), StampContext(gmin=0.0))
        assert sys.A.shape == (2, 2) and sys.z.shape == (2,)
        np.testing.assert_allclose(sys.A, [[5.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(sys.z, [0.0, 5.0])

    def test_conductance_stamp_pattern(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "b", 1.0 / 3.0)
        sys = ckt.assemble(np.zeros(2), StampContext(gmin=0.0))
        np.testing.assert_allclose(sys.A, [[3.0, -3.0], [-3.0, 3.0]])

    def test_current_stamp_direction(self):
        ckt = Circuit()
        ckt.add_isource("I1", "a", "b", 1e-3)
        sys = ckt.assemble(np.zeros(2), StampContext(gmin=0.0))
        assert sys.z[0] == pytest.approx(-1e-3)
        assert sys.z[1] == pytest.approx(1e-3)

    def test_complex_system(self):
        ckt = Circuit()
        ckt.add_capacitor("C1", "a", "0", 1.0)
        sys = ckt.assemble_ac(np.zeros(1), 1.0, gmin=0.0)
        assert sys.A.dtype == complex
        assert sys.A[0, 0] == 1j
