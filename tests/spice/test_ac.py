"""AC analysis tests against analytic transfer functions."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, ac_analysis, operating_point
from repro.spice.ac import logspace_frequencies
from repro.spice.exceptions import AnalysisError


def rc_lowpass(r=1e3, c=1e-9):
    ckt = Circuit()
    ckt.add_vsource("Vin", "in", "0", 0.0, ac=1.0)
    ckt.add_resistor("R", "in", "out", r)
    ckt.add_capacitor("C", "out", "0", c)
    return ckt


class TestLinearAC:
    def test_rc_pole_magnitude_and_phase(self):
        r, c = 1e3, 1e-9
        fp = 1 / (2 * np.pi * r * c)
        ckt = rc_lowpass(r, c)
        freqs = np.array([fp / 100, fp, fp * 100])
        ac = ac_analysis(ckt, freqs)
        h = ac.v("out")
        assert abs(h[0]) == pytest.approx(1.0, rel=1e-3)
        assert abs(h[1]) == pytest.approx(1 / np.sqrt(2), rel=1e-3)
        assert np.degrees(np.angle(h[1])) == pytest.approx(-45.0, abs=0.5)
        assert abs(h[2]) == pytest.approx(0.01, rel=0.01)

    def test_rc_highpass(self):
        ckt = Circuit()
        ckt.add_vsource("Vin", "in", "0", 0.0, ac=1.0)
        ckt.add_capacitor("C", "in", "out", 1e-9)
        ckt.add_resistor("R", "out", "0", 1e3)
        fp = 1 / (2 * np.pi * 1e3 * 1e-9)
        ac = ac_analysis(ckt, np.array([fp / 100, fp * 100]))
        h = ac.v("out")
        assert abs(h[0]) < 0.02
        assert abs(h[1]) == pytest.approx(1.0, rel=0.01)

    def test_lc_resonance(self):
        """Series RLC driven at resonance: |V_C| = Q."""
        r, l, c = 10.0, 1e-6, 1e-9
        f0 = 1 / (2 * np.pi * np.sqrt(l * c))
        q = np.sqrt(l / c) / r
        ckt = Circuit()
        ckt.add_vsource("Vin", "in", "0", 0.0, ac=1.0)
        ckt.add_resistor("R", "in", "a", r)
        ckt.add_inductor("L", "a", "b", l)
        ckt.add_capacitor("C", "b", "0", c)
        ac = ac_analysis(ckt, np.array([f0]))
        assert abs(ac.v("b")[0]) == pytest.approx(q, rel=0.01)

    def test_superposition_of_two_ac_sources(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 0.0, ac=1.0)
        ckt.add_vsource("V2", "b", "0", 0.0, ac=1.0)
        ckt.add_resistor("R1", "a", "out", 1e3)
        ckt.add_resistor("R2", "b", "out", 1e3)
        ckt.add_resistor("R3", "out", "0", 1e3)
        ac = ac_analysis(ckt, np.array([1e3]))
        # out = (1/1k + 1/1k) / (3/1k) = 2/3
        assert abs(ac.v("out")[0]) == pytest.approx(2 / 3, rel=1e-6)

    def test_empty_freqs_raise(self):
        with pytest.raises(AnalysisError):
            ac_analysis(rc_lowpass(), np.array([]))

    def test_negative_freq_raises(self):
        with pytest.raises(AnalysisError):
            ac_analysis(rc_lowpass(), np.array([-1.0]))

    def test_singular_system_names_the_frequency(self):
        # Two ideal voltage sources in parallel: no unique branch currents.
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0, ac=1.0)
        ckt.add_vsource("V2", "a", "0", 1.0)
        ckt.add_capacitor("C", "a", "0", 1e-9)
        with pytest.raises(AnalysisError,
                           match="singular AC system at 500 Hz"):
            ac_analysis(ckt, np.array([500.0, 5e3]), np.zeros(ckt.size))


class TestMosfetAC:
    def test_cs_gain_matches_gm_rout(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.65, ac=1.0)
        ckt.add_resistor("RL", "vdd", "d", 20e3)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, w=10e-6, l=1e-6)
        op = operating_point(ckt)
        info = op.element_info("M1")
        rout = 1.0 / (1.0 / 20e3 + info["gds"])
        expected = info["gm"] * rout
        ac = ac_analysis(ckt, np.array([100.0]), op)
        assert abs(ac.v("d")[0]) == pytest.approx(expected, rel=1e-3)

    def test_gain_rolls_off_with_load_cap(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.65, ac=1.0)
        ckt.add_resistor("RL", "vdd", "d", 20e3)
        ckt.add_capacitor("CL", "d", "0", 10e-12)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, w=10e-6, l=1e-6)
        op = operating_point(ckt)
        freqs = logspace_frequencies(1e2, 1e9, 4)
        h = ac_analysis(ckt, freqs, op).v("d")
        assert abs(h[-1]) < 0.05 * abs(h[0])

    def test_accepts_op_result_or_array(self):
        ckt = rc_lowpass()
        op = operating_point(ckt)
        a = ac_analysis(ckt, np.array([1e3]), op)
        b = ac_analysis(ckt, np.array([1e3]), op.x)
        np.testing.assert_allclose(a.xs, b.xs)


class TestFrequencyGrid:
    def test_logspace_endpoints(self):
        f = logspace_frequencies(10.0, 1e6, 10)
        assert f[0] == pytest.approx(10.0)
        assert f[-1] == pytest.approx(1e6)

    def test_points_per_decade(self):
        f = logspace_frequencies(1.0, 1e4, 5)
        assert len(f) == 21

    def test_bad_range_raises(self):
        with pytest.raises(AnalysisError):
            logspace_frequencies(1e6, 1e3)
        with pytest.raises(AnalysisError):
            logspace_frequencies(0.0, 1e3)
