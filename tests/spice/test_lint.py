"""Electrical rule checks over hand-built and task netlists."""

from repro.analysis.erc import gate_errors, run_erc
from repro.spice import Circuit, NMOS_180


def messages(ckt):
    return [d.message for d in run_erc(ckt)]


def clean_divider():
    ckt = Circuit()
    ckt.add_vsource("V1", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "out", 1e3)
    ckt.add_resistor("R2", "out", "0", 1e3)
    return ckt


class TestCleanCircuits:
    def test_divider_clean(self):
        assert run_erc(clean_divider()) == []

    def test_ota_task_netlist_clean(self):
        from repro.circuits.ota import build_ota
        from tests.circuits.test_ota import GOOD

        assert run_erc(build_ota(GOOD)) == []

    def test_tia_task_netlist_clean(self):
        from repro.circuits.tia import build_tia
        from tests.circuits.test_tia import GOOD

        assert run_erc(build_tia(GOOD)) == []

    def test_ldo_task_netlist_clean(self):
        from repro.circuits.ldo import build_ldo
        from tests.circuits.test_ldo import GOOD

        assert run_erc(build_ldo(GOOD)) == []


class TestDetections:
    def test_empty_circuit(self):
        assert messages(Circuit()) == ["circuit has no elements"]

    def test_missing_ground(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "b", 1.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        warnings = messages(ckt)
        assert any("no ground" in w for w in warnings)

    def test_floating_node(self):
        ckt = clean_divider()
        ckt.add_resistor("R3", "out", "dangling", 1e3)
        warnings = messages(ckt)
        assert any("dangling" in w and "floating" in w for w in warnings)

    def test_cap_isolated_island(self):
        ckt = clean_divider()
        ckt.add_capacitor("C1", "out", "island", 1e-12)
        ckt.add_resistor("R3", "island", "island2", 1e3)
        ckt.add_capacitor("C2", "island2", "0", 1e-12)
        warnings = messages(ckt)
        assert any("no DC path" in w for w in warnings)

    def test_mosfet_gate_needs_dc_path(self):
        """A gate driven only through a capacitor is flagged."""
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_resistor("RL", "vdd", "d", 1e4)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, 1e-6, 1e-6)
        ckt.add_capacitor("Cin", "vdd", "g", 1e-12)
        warnings = messages(ckt)
        assert any("'g'" in w and "no DC path" in w for w in warnings)

    def test_voltage_source_loop(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_vsource("V2", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "0", 1e3)
        warnings = messages(ckt)
        assert any("loop of ideal voltage sources" in w for w in warnings)

    def test_inductor_vsource_loop(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_inductor("L1", "a", "0", 1e-6)
        ckt.add_resistor("R1", "a", "0", 1e3)
        warnings = messages(ckt)
        assert any("loop" in w for w in warnings)

    def test_assert_clean_raises_with_details(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "b", 1.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        assert any("no ground" in d.message for d in gate_errors(ckt))
