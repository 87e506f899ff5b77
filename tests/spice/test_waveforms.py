"""Unit tests for source waveforms."""

import pytest

from repro.spice.waveforms import DCWave, Pulse, as_waveform


class TestDC:
    def test_constant(self):
        w = DCWave(1.8)
        assert w.value(None) == 1.8
        assert w.value(0.0) == 1.8
        assert w.value(1e9) == 1.8


class TestPulse:
    def test_initial_value_before_delay(self):
        w = Pulse(0.0, 1.0, td=1e-6, tr=1e-9, tf=1e-9, pw=1e-6)
        assert w.value(0.0) == 0.0
        assert w.value(None) == 0.0

    def test_high_during_pulse(self):
        w = Pulse(0.0, 1.0, td=1e-6, tr=1e-9, tf=1e-9, pw=1e-6)
        assert w.value(1.5e-6) == pytest.approx(1.0)

    def test_linear_rise(self):
        w = Pulse(0.0, 2.0, td=0.0, tr=1e-6, tf=1e-6, pw=1e-5)
        assert w.value(0.5e-6) == pytest.approx(1.0)

    def test_linear_fall(self):
        w = Pulse(0.0, 2.0, td=0.0, tr=1e-9, tf=1e-6, pw=1e-6)
        t_mid_fall = 1e-9 + 1e-6 + 0.5e-6
        assert w.value(t_mid_fall) == pytest.approx(1.0, rel=1e-2)

    def test_back_to_v1_after_fall(self):
        w = Pulse(0.2, 1.0, td=0.0, tr=1e-9, tf=1e-9, pw=1e-6)
        assert w.value(5e-6) == pytest.approx(0.2)

    def test_periodic_repeats(self):
        w = Pulse(0.0, 1.0, td=0.0, tr=1e-9, tf=1e-9, pw=0.5e-6, per=1e-6)
        assert w.value(0.25e-6) == pytest.approx(1.0)
        assert w.value(1.25e-6) == pytest.approx(1.0)
        assert w.value(0.75e-6) == pytest.approx(0.0)

    def test_negative_timing_raises(self):
        with pytest.raises(ValueError):
            Pulse(0, 1, td=-1e-9)


class TestAsWaveform:
    def test_number_coerced(self):
        w = as_waveform(3.3)
        assert isinstance(w, DCWave)
        assert w.value(None) == 3.3

    def test_waveform_passthrough(self):
        w = Pulse(0, 1)
        assert as_waveform(w) is w
