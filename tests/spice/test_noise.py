"""Noise analysis tests against analytic PSDs."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, noise_analysis, operating_point
from repro.spice.ac import logspace_frequencies
from repro.spice.exceptions import AnalysisError
from repro.spice.models import BOLTZMANN, ROOM_TEMP

KT4 = 4 * BOLTZMANN * ROOM_TEMP


class TestResistorNoise:
    def test_single_resistor_psd(self):
        """Voltage noise of R to ground: S_v = 4kTR."""
        ckt = Circuit()
        ckt.add_vsource("Vin", "in", "0", 0.0, ac=1.0)
        ckt.add_resistor("Rs", "in", "out", 1e30)  # irrelevant huge isolator
        ckt.add_resistor("R", "out", "0", 10e3)
        freqs = np.array([1e3, 1e6])
        nz = noise_analysis(ckt, "out", freqs)
        expected = KT4 * 10e3
        np.testing.assert_allclose(nz.output_psd, expected, rtol=1e-3)

    def test_parallel_resistors_reduce_noise(self):
        """Two 20k in parallel == one 10k: S_v = 4kT * 10k."""
        ckt = Circuit()
        ckt.add_resistor("R1", "out", "0", 20e3)
        ckt.add_resistor("R2", "out", "0", 20e3)
        nz = noise_analysis(ckt, "out", np.array([1e4]))
        assert nz.output_psd[0] == pytest.approx(KT4 * 10e3, rel=1e-3)

    def test_rc_filtered_noise_integrates_to_kt_over_c(self):
        """The classic kT/C result: total RC-filtered resistor noise."""
        c = 1e-12
        ckt = Circuit()
        ckt.add_resistor("R", "out", "0", 1e3)
        ckt.add_capacitor("C", "out", "0", c)
        freqs = logspace_frequencies(1e2, 1e12, 20)
        nz = noise_analysis(ckt, "out", freqs)
        total = nz.integrated_output_noise() ** 2
        expected = BOLTZMANN * ROOM_TEMP / c
        assert total == pytest.approx(expected, rel=0.05)

    def test_contributions_labelled(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "out", "0", 1e3)
        nz = noise_analysis(ckt, "out", np.array([1e3]))
        assert "R1:thermal" in nz.contributions

    def test_contributions_sum_to_total(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "out", "0", 1e3)
        ckt.add_resistor("R2", "out", "a", 2e3)
        ckt.add_resistor("R3", "a", "0", 3e3)
        freqs = np.array([1e3, 1e5])
        nz = noise_analysis(ckt, "out", freqs)
        total = sum(nz.contributions.values())
        np.testing.assert_allclose(total, nz.output_psd, rtol=1e-9)


class TestMosfetNoise:
    def _cs_amp(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vg", "g", "0", 0.65, ac=1.0)
        ckt.add_resistor("RL", "vdd", "d", 20e3)
        ckt.add_mosfet("M1", "d", "g", "0", "0", NMOS_180, w=10e-6, l=1e-6)
        return ckt

    def test_thermal_floor_at_high_freq(self):
        """At high frequency (above the flicker corner) the output PSD is
        (4kT gamma gm + 4kT/RL) * Rout^2."""
        ckt = self._cs_amp()
        op = operating_point(ckt)
        info = op.element_info("M1")
        rout = 1.0 / (1.0 / 20e3 + info["gds"])
        expected = (NMOS_180.thermal_noise_psd(info["gm"])
                    + KT4 / 20e3) * rout**2
        nz = noise_analysis(ckt, "d", np.array([3e7]), x_op=op)
        # device caps shunt a little; allow 20%
        assert nz.output_psd[0] == pytest.approx(expected, rel=0.2)

    def test_flicker_dominates_low_freq(self):
        ckt = self._cs_amp()
        nz = noise_analysis(ckt, "d", np.array([10.0, 1e7]))
        assert nz.output_psd[0] > 10 * nz.output_psd[1]

    def test_input_referred_uses_gain(self):
        ckt = self._cs_amp()
        op = operating_point(ckt)
        nz = noise_analysis(ckt, "d", np.array([1e5]), input_source="Vg",
                            x_op=op)
        gain2 = np.abs(nz.gain[0]) ** 2
        assert nz.input_referred_psd[0] == pytest.approx(
            nz.output_psd[0] / gain2, rel=1e-9)

    def test_no_input_source_input_referred_raises(self):
        ckt = self._cs_amp()
        nz = noise_analysis(ckt, "d", np.array([1e5]))
        with pytest.raises(AnalysisError):
            _ = nz.input_referred_psd


class TestValidation:
    def test_ground_output_raises(self):
        ckt = Circuit()
        ckt.add_resistor("R", "a", "0", 1e3)
        with pytest.raises(AnalysisError):
            noise_analysis(ckt, "0", np.array([1e3]))

    def test_unknown_input_source_raises(self):
        ckt = Circuit()
        ckt.add_resistor("R", "a", "0", 1e3)
        with pytest.raises(AnalysisError):
            noise_analysis(ckt, "a", np.array([1e3]), input_source="nope")

    def test_bad_freqs_raise(self):
        ckt = Circuit()
        ckt.add_resistor("R", "a", "0", 1e3)
        with pytest.raises(AnalysisError):
            noise_analysis(ckt, "a", np.array([]))

    def test_integration_band_needs_points(self):
        ckt = Circuit()
        ckt.add_resistor("R", "a", "0", 1e3)
        nz = noise_analysis(ckt, "a", np.array([1e3, 1e4]))
        with pytest.raises(AnalysisError):
            nz.integrated_output_noise(f_lo=1e6, f_hi=1e7)

    def test_singular_system_names_the_frequency(self):
        # Two ideal voltage sources in parallel: no unique branch currents.
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_vsource("V2", "a", "0", 1.0)
        ckt.add_resistor("R", "a", "0", 1e3)
        with pytest.raises(AnalysisError,
                           match="singular noise system at 2000 Hz"):
            noise_analysis(ckt, "a", np.array([2e3, 1e4]),
                           x_op=np.zeros(ckt.size))
