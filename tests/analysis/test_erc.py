"""Tests for the electrical rule checks: one minimal netlist per rule."""

import math

from repro.analysis.diagnostics import Severity
from repro.analysis.erc import (
    gate_errors,
    is_simulatable,
    lint_deck,
    run_erc,
)
from repro.spice import Circuit, NMOS_180


def rules(diags):
    return {d.rule for d in diags}


def divider():
    ckt = Circuit()
    ckt.add_vsource("V1", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "out", 1e3)
    ckt.add_resistor("R2", "out", "0", 1e3)
    return ckt


class TestTopologyRules:
    def test_empty(self):
        diags = run_erc(Circuit())
        assert rules(diags) == {"erc.empty"}
        assert diags[0].severity == Severity.ERROR

    def test_no_ground(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "b", 1.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        assert "erc.no-ground" in rules(run_erc(ckt))

    def test_floating_node(self):
        ckt = divider()
        ckt.add_resistor("R3", "out", "dangle", 1e3)
        diags = run_erc(ckt)
        assert rules(diags) == {"erc.floating-node"}
        assert any(d.location == "dangle" for d in diags)

    def test_source_open(self):
        ckt = divider()
        ckt.add_isource("I1", "nowhere", "0", 1e-3)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.source-open"]
        assert len(diags) == 1
        assert diags[0].location == "I1"
        # A dangling source is reported as source-open, not floating-node.
        assert "erc.floating-node" not in rules(run_erc(ckt))

    def test_no_dc_path(self):
        ckt = divider()
        ckt.add_capacitor("C1", "out", "island", 1e-12)
        ckt.add_capacitor("C2", "0", "island", 1e-12)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.no-dc-path"]
        assert [d.location for d in diags] == ["island"]

    def test_no_dc_path_flags_every_node_of_a_resistive_island(self):
        # Two nodes joined by a resistor but reached only through
        # capacitors: the whole island lacks a DC path, not just one end.
        ckt = divider()
        ckt.add_capacitor("C1", "out", "island", 1e-12)
        ckt.add_resistor("R3", "island", "island2", 1e3)
        ckt.add_capacitor("C2", "island2", "0", 1e-12)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.no-dc-path"]
        assert [d.location for d in diags] == ["island", "island2"]
        assert all("no DC path" in d.message for d in diags)

    def test_mosfet_gate_gives_no_dc_path(self):
        # A MOSFET gate is DC-isolated: a node driven only through gates
        # has no DC path even though the device "touches" it.
        ckt = divider()
        ckt.add_capacitor("Cg", "out", "gate", 1e-12)
        ckt.add_mosfet("M1", "in", "gate", "0", "0", NMOS_180,
                       w=1e-6, l=1e-6)
        assert "erc.no-dc-path" in rules(run_erc(ckt))

    def test_vsource_loop(self):
        ckt = divider()
        ckt.add_vsource("V2", "in", "0", 2.0)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.vsource-loop"]
        assert len(diags) == 1
        assert "V1" in diags[0].message and "V2" in diags[0].message

    def test_inductor_closes_vsource_loop(self):
        ckt = divider()
        ckt.add_inductor("L1", "in", "0", 1e-9)
        assert "erc.vsource-loop" in rules(run_erc(ckt))

    def test_source_short(self):
        ckt = divider()
        ckt.add_vsource("V2", "out", "out", 1.0)
        assert "erc.source-short" in rules(run_erc(ckt))


class TestDeviceRules:
    def test_mosfet_geometry_error(self):
        ckt = divider()
        # NaN slips past the constructor's `w <= 0` guard; the ERC is the
        # only check that catches it before the MNA matrix fills with NaN.
        ckt.add_mosfet("M1", "in", "in", "0", "0", NMOS_180,
                       w=math.nan, l=1e-6)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.mosfet-geometry"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.ERROR

    def test_mosfet_geometry_out_of_range_is_warning(self):
        ckt = divider()
        ckt.add_mosfet("M1", "in", "in", "0", "0", NMOS_180,
                       w=1.0, l=1e-6)      # a one-meter-wide transistor
        diags = [d for d in run_erc(ckt) if d.rule == "erc.mosfet-geometry"]
        assert diags and diags[0].severity == Severity.WARNING

    def test_passive_nan_is_error(self):
        ckt = divider()
        ckt.add_resistor("R3", "in", "0", math.nan)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.passive-value"]
        assert diags and diags[0].severity == Severity.ERROR

    def test_passive_nonpositive_is_error(self):
        # Constructors reject nonpositive values, but parameter sweeps can
        # mutate them afterwards; the ERC must still catch it.
        ckt = divider()
        ckt.add_capacitor("C1", "in", "0", 1e-12)
        ckt["C1"].capacitance = -1e-12
        diags = [d for d in run_erc(ckt) if d.rule == "erc.passive-value"]
        assert diags and diags[0].severity == Severity.ERROR

    def test_passive_absurd_magnitude_is_warning(self):
        ckt = divider()
        ckt.add_capacitor("C1", "in", "0", 1.0)   # a one-farad on-chip cap
        diags = [d for d in run_erc(ckt) if d.rule == "erc.passive-value"]
        assert diags and diags[0].severity == Severity.WARNING

    def test_name_collision_is_warning(self):
        ckt = divider()
        ckt.add_resistor("r1", "in", "0", 1e3)
        diags = [d for d in run_erc(ckt) if d.rule == "erc.name-collision"]
        assert diags and diags[0].severity == Severity.WARNING
        assert is_simulatable(ckt)


class TestDeckLint:
    def test_milli_ohm_suffix(self):
        diags = lint_deck("V1 a 0 1\nR1 a 0 10m\n.end\n")
        suffix = [d for d in diags if d.rule == "erc.unit-suffix"]
        assert suffix and "meg" in suffix[0].message

    def test_megaohm_spelled_right_is_silent(self):
        diags = lint_deck("V1 a 0 1\nR1 a 0 10meg\n.end\n")
        assert "erc.unit-suffix" not in rules(diags)

    def test_unknown_suffix(self):
        diags = lint_deck("V1 a 0 1\nC1 a 0 10qq\n.end\n")
        assert "erc.unit-suffix" in rules(diags)

    def test_parse_error(self):
        diags = lint_deck("R1 a\n")
        assert rules(diags) == {"erc.parse-error"}

    def test_clean_deck(self):
        diags = lint_deck("V1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n.end\n")
        assert diags == []


class TestGateAndLegacyApi:
    def test_gate_errors_drops_warnings(self):
        ckt = divider()
        ckt.add_resistor("r1", "in", "0", 1e3)    # warning only
        assert gate_errors(ckt) == []
        ckt.add_resistor("R9", "in", "dangle", 1e3)
        assert rules(gate_errors(ckt)) == {"erc.floating-node"}

    def test_lint_circuit_returns_strings(self):
        ckt = Circuit()
        assert [d.message for d in run_erc(ckt)] == \
            ["circuit has no elements"]

    def test_assert_clean_raises_with_findings(self):
        assert rules(gate_errors(Circuit())) == {"erc.empty"}
        assert gate_errors(divider()) == []


class TestPaperCircuitsClean:
    def test_ota_clean(self):
        from repro.circuits.ota import build_ota
        from tests.circuits.test_ota import GOOD

        assert run_erc(build_ota(GOOD)) == []

    def test_tia_clean(self):
        from repro.circuits.tia import build_tia
        from tests.circuits.test_tia import GOOD

        assert run_erc(build_tia(GOOD)) == []

    def test_ldo_clean(self):
        from repro.circuits.ldo import build_ldo
        from tests.circuits.test_ldo import GOOD

        assert run_erc(build_ldo(GOOD)) == []

    def test_task_lint_design_clean_mid_space(self):
        import numpy as np

        from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA

        for task in (TwoStageOTA(), ThreeStageTIA(), LDORegulator()):
            assert task.lint_design(np.full(task.d, 0.5)) == []


class TestCircuitPublicApi:
    def test_canonical_node(self):
        ckt = divider()
        assert ckt.canonical_node("gnd") == "0"
        assert ckt.canonical_node("in") == "in"

    def test_connectivity_uses_canonical_names(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "gnd", 1.0)
        ckt.add_resistor("R1", "in", "GND", 1e3)
        pairs = {elem.name: nodes for elem, nodes in ckt.connectivity()}
        assert pairs["V1"] == ("in", "0")
        assert pairs["R1"] == ("in", "0")
