"""Unit tests for the EKV MOSFET model."""

import numpy as np
import pytest

from repro.spice.models import (
    MosfetModel,
    NMOS_180,
    PMOS_180,
    UT_ROOM,
    ekv_f,
    ekv_f_prime,
)


class TestEKVFunction:
    def test_strong_inversion_limit(self):
        """F(u) -> (u/2)^2 for large u."""
        assert ekv_f(40.0) == pytest.approx(400.0, rel=1e-6)

    def test_weak_inversion_limit(self):
        """F(u) -> exp(u) for very negative u."""
        assert ekv_f(-20.0) == pytest.approx(np.exp(-20.0), rel=1e-3)

    def test_monotone_increasing(self):
        us = np.linspace(-30, 30, 200)
        vals = [ekv_f(u) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_finite_diff(self):
        for u in [-10.0, -1.0, 0.0, 1.0, 10.0]:
            eps = 1e-6
            fd = (ekv_f(u + eps) - ekv_f(u - eps)) / (2 * eps)
            assert ekv_f_prime(u) == pytest.approx(fd, rel=1e-5)

    def test_no_overflow_at_extremes(self):
        assert np.isfinite(ekv_f(1000.0))
        assert np.isfinite(ekv_f(-1000.0))


class TestMosfetDC:
    def test_off_below_threshold(self):
        info = NMOS_180.evaluate(vg=0.0, vd=1.8, vs=0.0, vb=0.0,
                                 w=10e-6, l=1e-6)
        assert abs(info["id"]) < 1e-9

    def test_saturation_current_scales_with_w(self):
        a = NMOS_180.evaluate(1.0, 1.8, 0.0, 0.0, w=10e-6, l=1e-6)
        b = NMOS_180.evaluate(1.0, 1.8, 0.0, 0.0, w=20e-6, l=1e-6)
        assert b["id"] == pytest.approx(2 * a["id"], rel=1e-2)

    def test_square_law_strong_inversion(self):
        """Id ~ (KP/2)(W/L) vov^2 in strong inversion saturation."""
        vov = 0.5
        info = NMOS_180.evaluate(NMOS_180.vto + vov, 1.8, 0.0, 0.0,
                                 w=10e-6, l=1e-6)
        # EKV uses vp=(vg-vto)/n, so the effective overdrive is vov/n.
        expected = 0.5 * NMOS_180.kp * 10 * (vov) ** 2 / NMOS_180.n
        assert info["id"] == pytest.approx(expected, rel=0.35)

    def test_pmos_current_sign(self):
        """PMOS with negative Vgs/Vds conducts with negative drain current
        (current flows source -> drain)."""
        info = PMOS_180.evaluate(vg=0.8, vd=0.2, vs=1.8, vb=1.8,
                                 w=10e-6, l=1e-6)
        assert info["id"] < -1e-6

    def test_symmetric_at_vds_zero(self):
        info = NMOS_180.evaluate(1.2, 0.5, 0.5, 0.0, w=10e-6, l=1e-6)
        assert abs(info["id"]) < 1e-9

    def test_reverse_conduction(self):
        """Swapping D and S flips the current sign (EKV symmetry)."""
        fwd = NMOS_180.evaluate(1.2, 1.0, 0.2, 0.0, w=10e-6, l=1e-6)
        rev = NMOS_180.evaluate(1.2, 0.2, 1.0, 0.0, w=10e-6, l=1e-6)
        assert fwd["id"] == pytest.approx(-rev["id"], rel=1e-6)

    def test_gm_positive_in_saturation(self):
        info = NMOS_180.evaluate(1.0, 1.8, 0.0, 0.0, w=10e-6, l=1e-6)
        assert info["gm"] > 0
        assert info["gds"] > 0

    def test_conductances_match_finite_diff(self):
        w, l = 10e-6, 0.5e-6
        bias = dict(vg=0.9, vd=1.2, vs=0.1, vb=0.0)
        info = NMOS_180.evaluate(**bias, w=w, l=l)
        eps = 1e-6
        for key, grad in [("vg", "gm"), ("vd", "gds"), ("vs", "gms"),
                          ("vb", "gmb")]:
            hi = dict(bias)
            hi[key] += eps
            lo = dict(bias)
            lo[key] -= eps
            fd = (NMOS_180.evaluate(**hi, w=w, l=l)["id"]
                  - NMOS_180.evaluate(**lo, w=w, l=l)["id"]) / (2 * eps)
            assert info[grad] == pytest.approx(fd, rel=1e-4, abs=1e-12), key

    def test_pmos_conductances_match_finite_diff(self):
        w, l = 20e-6, 1e-6
        bias = dict(vg=0.8, vd=0.3, vs=1.8, vb=1.8)
        info = PMOS_180.evaluate(**bias, w=w, l=l)
        eps = 1e-6
        for key, grad in [("vg", "gm"), ("vd", "gds"), ("vs", "gms"),
                          ("vb", "gmb")]:
            hi = dict(bias)
            hi[key] += eps
            lo = dict(bias)
            lo[key] -= eps
            fd = (PMOS_180.evaluate(**hi, w=w, l=l)["id"]
                  - PMOS_180.evaluate(**lo, w=w, l=l)["id"]) / (2 * eps)
            assert info[grad] == pytest.approx(fd, rel=1e-4, abs=1e-12), key

    def test_clm_increases_current_with_vds(self):
        lo = NMOS_180.evaluate(1.0, 0.9, 0.0, 0.0, w=10e-6, l=0.18e-6)
        hi = NMOS_180.evaluate(1.0, 1.8, 0.0, 0.0, w=10e-6, l=0.18e-6)
        assert hi["id"] > lo["id"] * 1.01

    def test_clm_weaker_at_long_channel(self):
        short = NMOS_180.evaluate(1.0, 1.8, 0.0, 0.0, w=10e-6, l=0.18e-6)
        long_ = NMOS_180.evaluate(1.0, 1.8, 0.0, 0.0, w=10e-6, l=2e-6)
        r_short = short["gds"] / short["id"]
        r_long = long_["gds"] / long_["id"]
        assert r_short > 3 * r_long

    def test_invalid_polarity_raises(self):
        with pytest.raises(ValueError):
            MosfetModel(name="bad", polarity=0)

    def test_nonphysical_params_raise(self):
        with pytest.raises(ValueError):
            MosfetModel(name="bad", polarity=1, vto=-0.1)


class TestMosfetCaps:
    def test_cgs_scales_with_area(self):
        a = NMOS_180.capacitances(10e-6, 1e-6)
        b = NMOS_180.capacitances(20e-6, 2e-6)
        # intrinsic part scales 4x, overlap 2x
        assert b["cgs"] > 3 * a["cgs"]

    def test_all_caps_positive(self):
        caps = NMOS_180.capacitances(1e-6, 0.18e-6)
        assert all(v > 0 for v in caps.values())


class TestMosfetNoise:
    def test_thermal_psd(self):
        gm = 1e-3
        psd = NMOS_180.thermal_noise_psd(gm)
        assert psd == pytest.approx(4 * 1.380649e-23 * NMOS_180.temp
                                    * (2 / 3) * gm, rel=1e-9)

    def test_thermal_never_negative(self):
        assert NMOS_180.thermal_noise_psd(-1.0) == 0.0

    def test_flicker_scales_inverse_f(self):
        a = NMOS_180.flicker_noise_psd(1e-4, 10e-6, 1e-6, f=1e3)
        b = NMOS_180.flicker_noise_psd(1e-4, 10e-6, 1e-6, f=1e6)
        assert a == pytest.approx(1e3 * b, rel=1e-9)

    def test_flicker_smaller_for_big_device(self):
        small = NMOS_180.flicker_noise_psd(1e-4, 1e-6, 0.18e-6, f=1e3)
        big = NMOS_180.flicker_noise_psd(1e-4, 100e-6, 2e-6, f=1e3)
        assert big < small

    def test_flicker_bad_freq_raises(self):
        with pytest.raises(ValueError):
            NMOS_180.flicker_noise_psd(1e-4, 1e-6, 1e-6, f=0.0)


class TestConstants:
    def test_ut_room_value(self):
        assert UT_ROOM == pytest.approx(0.02585, rel=1e-2)
