"""Tests for the measurement helpers."""

import numpy as np
import pytest

from repro.spice import measure as M
from repro.spice.exceptions import AnalysisError


def single_pole(freqs, a0=1000.0, fp=1e4):
    return a0 / (1 + 1j * freqs / fp)


class TestDb:
    def test_db_of_unity(self):
        assert M.db(1.0) == pytest.approx(0.0)

    def test_db_of_1000(self):
        assert M.db(1000.0) == pytest.approx(60.0)

    def test_db_floor_no_inf(self):
        assert np.isfinite(M.db(0.0))


class TestUGF:
    def test_single_pole_ugf(self):
        freqs = np.logspace(1, 9, 400)
        h = single_pole(freqs)
        # UGF of a0/(1+jf/fp) is ~ a0*fp for a0 >> 1
        assert M.unity_gain_frequency(freqs, h) == pytest.approx(1e7, rel=0.02)

    def test_none_when_gain_below_unity(self):
        freqs = np.logspace(1, 6, 50)
        h = 0.5 * np.ones_like(freqs)
        assert M.unity_gain_frequency(freqs, h) is None

    def test_none_when_no_crossing_in_range(self):
        freqs = np.logspace(1, 3, 50)
        h = single_pole(freqs)  # crossover at 1e7, outside range
        assert M.unity_gain_frequency(freqs, h) is None


class TestPhaseMargin:
    def test_single_pole_pm_is_90(self):
        freqs = np.logspace(1, 9, 600)
        pm = M.phase_margin(freqs, single_pole(freqs))
        assert pm == pytest.approx(90.0, abs=2.0)

    def test_two_pole_pm_lower(self):
        freqs = np.logspace(1, 9, 600)
        h = single_pole(freqs) / (1 + 1j * freqs / 1e7)
        pm = M.phase_margin(freqs, h)
        assert 30.0 < pm < 60.0

    def test_inverting_amp_phase_normalized(self):
        freqs = np.logspace(1, 9, 600)
        pm_pos = M.phase_margin(freqs, single_pole(freqs))
        pm_neg = M.phase_margin(freqs, -single_pole(freqs))
        assert pm_neg == pytest.approx(pm_pos, abs=1.0)


class TestBandwidth:
    def test_single_pole_3db(self):
        freqs = np.logspace(1, 9, 500)
        bw = M.bandwidth_3db(freqs, single_pole(freqs, fp=1e5))
        assert bw == pytest.approx(1e5, rel=0.02)

    def test_none_when_flat(self):
        freqs = np.logspace(1, 6, 50)
        assert M.bandwidth_3db(freqs, np.ones_like(freqs)) is None


class TestSettling:
    def test_exponential_settling(self):
        t = np.linspace(0, 10, 2000)
        y = 1 - np.exp(-t)
        ts = M.settling_time(t, y, final_value=1.0, tol=0.01)
        assert ts == pytest.approx(np.log(100), rel=0.05)

    def test_settled_from_start(self):
        t = np.linspace(0, 1, 100)
        y = np.ones_like(t)
        assert M.settling_time(t, y, final_value=1.0) == 0.0

    def test_never_settles_returns_none(self):
        t = np.linspace(0, 1, 100)
        y = t  # keeps moving, ends outside band of final+? final=1 at end
        assert M.settling_time(t, y, final_value=2.0) is None

    def test_t_start_offsets_measurement(self):
        t = np.linspace(0, 10, 2000)
        y = np.where(t < 2.0, 0.0, 1 - np.exp(-(t - 2.0)))
        ts = M.settling_time(t, y, final_value=1.0, tol=0.01, t_start=2.0)
        assert ts == pytest.approx(np.log(100), rel=0.05)

    def test_mismatched_arrays_raise(self):
        with pytest.raises(AnalysisError):
            M.settling_time(np.zeros(5), np.zeros(4))
