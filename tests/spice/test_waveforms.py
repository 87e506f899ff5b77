"""Unit tests for source waveforms."""

import pytest

from repro.spice.waveforms import DCWave, PieceWiseLinear, Pulse, Sine, as_waveform


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


class TestSine:
    def test_offset_before_delay(self):
        w = Sine(0.9, 0.1, 1e6, td=1e-6)
        assert w.value(0.0) == 0.9

    def test_quarter_period_peak(self):
        w = Sine(0.0, 2.0, 1e6)
        assert w.value(0.25e-6) == pytest.approx(2.0, rel=1e-9)

    def test_damping(self):
        w = Sine(0.0, 1.0, 1e6, theta=1e6)
        assert abs(w.value(2.25e-6)) < 1.0

    def test_dc_value_is_offset(self):
        assert Sine(0.5, 1.0, 1e3).dc_value() == 0.5

    def test_bad_freq_raises(self):
        with pytest.raises(ValueError):
            Sine(0, 1, 0.0)


class TestPWL:
    def test_interpolation(self):
        w = PieceWiseLinear([(0.0, 0.0), (1e-6, 1.0)])
        assert w.value(0.5e-6) == pytest.approx(0.5)

    def test_clamps_outside_range(self):
        w = PieceWiseLinear([(1e-6, 1.0), (2e-6, 2.0)])
        assert w.value(0.0) == 1.0
        assert w.value(3e-6) == 2.0

    def test_non_monotone_times_raise(self):
        with pytest.raises(ValueError):
            PieceWiseLinear([(1e-6, 0.0), (0.5e-6, 1.0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PieceWiseLinear([])


class TestAsWaveform:
    def test_number_coerced(self):
        w = as_waveform(3.3)
        assert isinstance(w, DCWave)
        assert w.value(None) == 3.3

    def test_waveform_passthrough(self):
        w = Pulse(0, 1)
        assert as_waveform(w) is w
