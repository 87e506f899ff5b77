"""Tests for the process corners."""

import numpy as np
import pytest

from repro.spice import Circuit, NMOS_180, PMOS_180, operating_point
from repro.spice.corners import CORNER_NAMES, corner_models


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

