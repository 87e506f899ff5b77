"""Tests for generic element-parameter sweeps."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, ac_analysis, transient_analysis
from repro.spice.exceptions import AnalysisError
from repro.spice.sweep import param_sweep
from repro.spice.waveforms import Pulse


def divider():
    ckt = Circuit()
    ckt.add_vsource("V1", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "out", 1e3)
    ckt.add_resistor("R2", "out", "0", 1e3)
    return ckt


class TestResistorSweep:
    def test_divider_formula(self):
        vs = param_sweep(divider(), "R2", "resistance",
                         np.array([1e3, 2e3, 4e3]),
                         measure=lambda op: op.v("out"))
        np.testing.assert_allclose(vs, [0.5, 2 / 3, 0.8], rtol=1e-6)

    def test_value_restored(self):
        ckt = divider()
        param_sweep(ckt, "R2", "resistance", np.array([5e3]),
                    measure=lambda op: op.v("out"))
        assert ckt["R2"].resistance == 1e3

    def test_no_restore_option(self):
        ckt = divider()
        param_sweep(ckt, "R2", "resistance", np.array([5e3]),
                    measure=lambda op: op.v("out"), restore=False)
        assert ckt["R2"].resistance == 5e3

    def test_default_measure_returns_solution_vectors(self):
        out = param_sweep(divider(), "R2", "resistance",
                          np.array([1e3, 2e3]))
        assert out.shape[0] == 2


class TestMosfetSweep:
    def _amp(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.6)
        ckt.add_resistor("RL", "vdd", "d", 10e3)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, 10e-6, 1e-6)
        return ckt

    def test_width_sweep_increases_current(self):
        ids = param_sweep(self._amp(), "M1", "w",
                          np.array([5e-6, 20e-6, 80e-6]),
                          measure=lambda op: op.element_info("M1")["id"])
        assert ids[0] < ids[1] < ids[2]

    def test_cap_cache_refreshed(self):
        ckt = self._amp()
        caps_before = ckt["M1"].capacitances()
        param_sweep(ckt, "M1", "w", np.array([100e-6]),
                    measure=lambda op: 0.0, restore=False)
        assert ckt["M1"].capacitances()["cgs"] > caps_before["cgs"]

    def test_length_sweep_reduces_current(self):
        ids = param_sweep(self._amp(), "M1", "l",
                          np.array([0.5e-6, 2e-6]),
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
        """Capacitances follow m: after an m sweep left at m=4, AC and
        transient agree with a circuit built with m=4."""
        swept = cs_stage(m=1)
        param_sweep(swept, "M1", "m", np.array([2.0, 4.0]),
                    measure=lambda op: 0.0, restore=False)
        fresh = cs_stage(m=4)
        freqs = np.logspace(4, 10, 13)
        np.testing.assert_allclose(ac_analysis(swept, freqs).v("d"),
                                   ac_analysis(fresh, freqs).v("d"),
                                   rtol=1e-9)
        np.testing.assert_allclose(
            transient_analysis(swept, 12e-9, 0.1e-9).v("d"),
            transient_analysis(fresh, 12e-9, 0.1e-9).v("d"), rtol=1e-9)


class TestValidation:
    def test_unknown_attr_raises(self):
        with pytest.raises(AnalysisError):
            param_sweep(divider(), "R2", "ohms", np.array([1.0]))

    def test_empty_values_raise(self):
        with pytest.raises(AnalysisError):
            param_sweep(divider(), "R2", "resistance", np.array([]))

    def test_restore_even_on_failure(self):
        ckt = divider()
        with pytest.raises(Exception):
            # R = 0 makes the conductance infinite -> solve must fail.
            param_sweep(ckt, "R2", "resistance", np.array([0.0, 1e3]),
                        measure=lambda op: op.v("out"))
        assert ckt["R2"].resistance == 1e3
