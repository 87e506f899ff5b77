"""Direct tests for analysis result containers."""

import numpy as np
import pytest

from repro.spice import Circuit, ac_analysis, operating_point, transient_analysis
from repro.spice.exceptions import AnalysisError
from repro.spice.waveforms import Pulse


@pytest.fixture
def divider():
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", 2.0, ac=1.0)
    ckt.add_resistor("R1", "in", "out", 1e3)
    ckt.add_resistor("R2", "out", "0", 1e3)
    return ckt


class TestOPResult:
    def test_ground_reads_zero(self, divider):
        assert operating_point(divider).v("0") == 0.0
        assert operating_point(divider).v("gnd") == 0.0

    def test_as_dict_covers_all_nodes(self, divider):
        d = operating_point(divider).as_dict()
        assert set(d) == {"in", "out"}

    def test_branch_current_requires_vsource(self, divider):
        op = operating_point(divider)
        with pytest.raises(AnalysisError):
            op.branch_current("R1")

    def test_strategy_recorded(self, divider):
        assert operating_point(divider).strategy == "newton"


class TestACResult:
    def test_differential_transfer(self, divider):
        ac = ac_analysis(divider, np.array([1e3]))
        diff = ac.transfer("in", "out")
        assert abs(diff[0]) == pytest.approx(0.5, rel=1e-6)

    def test_ground_voltage_zero(self, divider):
        ac = ac_analysis(divider, np.array([1e3]))
        np.testing.assert_array_equal(ac.v("0"), [0.0 + 0.0j])


class TestTransientResult:
    def test_branch_current_waveform(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0",
                        Pulse(0.0, 1.0, td=1e-9, tr=1e-12, tf=1e-12, pw=1.0))
        ckt.add_resistor("R1", "a", "0", 1e3)
        tr = transient_analysis(ckt, 10e-9, 0.5e-9)
        i = tr.branch_current("V1")
        assert i[0] == pytest.approx(0.0, abs=1e-9)
        assert i[-1] == pytest.approx(-1e-3, rel=1e-6)

    def test_times_monotone(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "0", 1e3)
        tr = transient_analysis(ckt, 5e-9, 1e-9)
        assert np.all(np.diff(tr.times) > 0)
