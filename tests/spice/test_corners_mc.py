"""Tests for process corners and Monte Carlo mismatch."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, PMOS_180, operating_point
from repro.spice.corners import CORNER_NAMES, corner_models
from repro.spice.exceptions import ConvergenceError
from repro.spice.montecarlo import apply_mismatch, monte_carlo, restore_models


class TestCorners:
    def test_all_corners_resolve(self):
        for name in CORNER_NAMES:
            n, p = corner_models(name)
            assert n.polarity == 1 and p.polarity == -1

    def test_tt_is_nominal(self):
        n, p = corner_models("tt")
        assert n is NMOS_180 and p is PMOS_180

    def test_ff_is_faster(self):
        n, p = corner_models("ff")
        assert n.vto < NMOS_180.vto
        assert n.kp > NMOS_180.kp
        assert p.vto < PMOS_180.vto

    def test_ss_is_slower(self):
        n, _ = corner_models("ss")
        assert n.vto > NMOS_180.vto
        assert n.kp < NMOS_180.kp

    def test_skewed_corners(self):
        n_fs, p_fs = corner_models("fs")
        assert n_fs.vto < NMOS_180.vto      # fast N
        assert p_fs.vto > PMOS_180.vto      # slow P

    def test_case_insensitive(self):
        n1, _ = corner_models("FF")
        n2, _ = corner_models("ff")
        assert n1.vto == n2.vto

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            corner_models("typ")

    def test_corner_shifts_circuit_current(self):
        def current(nmos):
            ckt = Circuit()
            ckt.add_vsource("Vdd", "vdd", "0", 1.8)
            ckt.add_vsource("Vg", "g", "0", 0.8)
            ckt.add_resistor("R", "vdd", "d", 1e3)
            ckt.add_mosfet("M1", "d", "g", "0", "0", nmos, 10e-6, 1e-6)
            return operating_point(ckt).element_info("M1")["id"]

        i_tt = current(corner_models("tt")[0])
        i_ff = current(corner_models("ff")[0])
        i_ss = current(corner_models("ss")[0])
        assert i_ff > i_tt > i_ss

    def test_circuit_tasks_accept_corner(self):
        from repro.circuits import TwoStageOTA

        fast = TwoStageOTA(corner="ff")
        slow = TwoStageOTA(corner="ss")
        assert fast.nmos.vto < slow.nmos.vto


class TestMismatch:
    def _pair(self):
        ckt = Circuit("pair")
        ckt.add_vsource("Vdd", "vdd", "0", 1.8)
        ckt.add_vsource("Vp", "a", "0", 0.9)
        ckt.add_vsource("Vn", "b", "0", 0.9)
        ckt.add_isource("It", "t", "0", 20e-6)
        ckt.add_mosfet("M1", "x", "a", "t", "0", NMOS_180, 10e-6, 1e-6)
        ckt.add_mosfet("M2", "y", "b", "t", "0", NMOS_180, 10e-6, 1e-6)
        ckt.add_resistor("R1", "vdd", "x", 50e3)
        ckt.add_resistor("R2", "vdd", "y", 50e3)
        return ckt

    def test_apply_and_restore(self, rng):
        ckt = self._pair()
        orig_vto = ckt["M1"].model.vto
        saved = apply_mismatch(ckt, rng)
        assert ckt["M1"].model.vto != orig_vto
        restore_models(ckt, saved)
        assert ckt["M1"].model.vto == orig_vto

    def test_mismatch_creates_offset(self, rng):
        """A perfectly matched pair has zero offset; mismatch breaks it."""
        ckt = self._pair()
        op = operating_point(ckt)
        assert abs(op.v("x") - op.v("y")) < 1e-9
        apply_mismatch(ckt, rng)
        op2 = operating_point(ckt)
        assert abs(op2.v("x") - op2.v("y")) > 1e-6

    def test_pelgrom_area_scaling(self, rng):
        """Offset sigma shrinks roughly with sqrt(area)."""

        def offsets(w, l, n=40):
            def build():
                ckt = self._pair()
                ckt["M1"].w = ckt["M2"].w = w
                ckt["M1"].l = ckt["M2"].l = l
                return ckt

            def measure(ckt):
                op = operating_point(ckt)
                return op.v("x") - op.v("y")

            return monte_carlo(build, measure, n,
                               rng=np.random.default_rng(5))

        small = np.nanstd(offsets(2e-6, 0.5e-6))
        big = np.nanstd(offsets(50e-6, 2e-6))
        assert big < small / 2

    def test_failed_samples_are_nan(self):
        def build():
            return self._pair()

        def measure(ckt):
            raise ConvergenceError("boom")

        out = monte_carlo(build, measure, 3, rng=np.random.default_rng(0))
        assert np.all(np.isnan(out))

    def test_programming_error_propagates(self):
        def measure(ckt):
            raise TypeError("planted bug")

        with pytest.raises(TypeError, match="planted bug"):
            monte_carlo(self._pair, measure, 3,
                        rng=np.random.default_rng(0))

    def test_bad_sample_count_raises(self):
        with pytest.raises(ValueError):
            monte_carlo(self._pair, lambda c: 0.0, 0)
