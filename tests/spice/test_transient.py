"""Transient analysis tests against analytic step responses."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, transient_analysis
from repro.spice.waveforms import Pulse


def rc_step(r=1e3, c=1e-9, v=1.0, td=0.0):
    ckt = Circuit()
    ckt.add_vsource("Vin", "in", "0",
                    Pulse(0.0, v, td=td, tr=1e-12, tf=1e-12, pw=1.0))
    ckt.add_resistor("R", "in", "out", r)
    ckt.add_capacitor("C", "out", "0", c)
    return ckt


class TestRC:
    def test_exponential_charge(self):
        tau = 1e-6
        ckt = rc_step(r=1e3, c=1e-9)
        tr = transient_analysis(ckt, 5e-6, 5e-9)
        v = tr.v("out")
        for mult in (1.0, 2.0, 3.0):
            idx = np.argmin(np.abs(tr.times - mult * tau))
            expected = 1.0 - np.exp(-mult)
            assert v[idx] == pytest.approx(expected, abs=0.01)

    def test_be_and_trap_agree(self):
        a = transient_analysis(rc_step(), 3e-6, 5e-9, integ="trap").v("out")
        b = transient_analysis(rc_step(), 3e-6, 5e-9, integ="be").v("out")
        np.testing.assert_allclose(a, b, atol=0.02)

    def test_starts_from_dc(self):
        """With the pulse initially low, the output starts at 0."""
        tr = transient_analysis(rc_step(td=1e-6), 2e-6, 1e-8)
        assert abs(tr.v("out")[0]) < 1e-9

    def test_initial_condition_uic(self):
        ckt = Circuit()
        ckt.add_resistor("R", "out", "0", 1e3)
        ckt.add_capacitor("C", "out", "0", 1e-9, ic=1.0)
        tr = transient_analysis(ckt, 3e-6, 5e-9, use_ic=True)
        v = tr.v("out")
        idx = np.argmin(np.abs(tr.times - 1e-6))
        assert v[idx] == pytest.approx(np.exp(-1.0), abs=0.02)


class TestNonlinearTransient:
    def test_inverter_switches(self):
        ckt = Circuit()
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vin", "in", "0",
                        Pulse(0.0, 1.8, td=1e-9, tr=0.1e-9, tf=0.1e-9,
                              pw=5e-9))
        ckt.add_mosfet("MN", "out", "in", "0", "0", NMOS_180, 4e-6, 0.18e-6)
        ckt.add_resistor("RL", "vdd", "out", 10e3)
        ckt.add_capacitor("CL", "out", "0", 50e-15)
        tr = transient_analysis(ckt, 10e-9, 0.05e-9)
        v = tr.v("out")
        assert v[0] > 1.7                      # NMOS off initially
        mid = np.argmin(np.abs(tr.times - 4e-9))
        assert v[mid] < 0.3                    # pulled low during pulse
        assert v[-1] > 1.5                     # recovers after pulse

    def test_validation_errors(self):
        ckt = rc_step()
        with pytest.raises(ValueError):
            transient_analysis(ckt, -1.0, 1e-9)
        with pytest.raises(ValueError):
            transient_analysis(ckt, 1e-6, 2e-6)
        with pytest.raises(ValueError):
            transient_analysis(ckt, 1e-6, 1e-9, integ="rk4")


class TestEnergyConservation:
    def test_charge_balance_on_cap_divider(self):
        """Two series caps driven by a step divide the voltage by C ratio."""
        ckt = Circuit()
        ckt.add_vsource("Vin", "in", "0",
                        Pulse(0.0, 1.0, td=1e-9, tr=1e-12, tf=1e-12, pw=1.0))
        ckt.add_capacitor("C1", "in", "mid", 1e-9)
        ckt.add_capacitor("C2", "mid", "0", 3e-9)
        ckt.add_resistor("Rleak", "mid", "0", 1e9)  # keeps DC defined
        tr = transient_analysis(ckt, 10e-9, 0.05e-9)
        # right after the step: v(mid) = C1/(C1+C2) = 0.25
        idx = np.argmin(np.abs(tr.times - 2e-9))
        assert tr.v("mid")[idx] == pytest.approx(0.25, abs=0.02)
