"""Unit tests for the coplanar-waveguide calculator."""

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed.cpw import (
    C_LIGHT,
    CpwGeometry,
    cpw_derive,
    ellipk_agm,
    lambda_ratio_for_freq,
    wavelength,
)


class TestEllipk:
    # ellipk_agm takes the complementary modulus kp = sqrt(1 - k^2)
    def test_zero_modulus(self):
        assert ellipk_agm(1.0) == pytest.approx(np.pi / 2, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_matches_scipy(self, k):
        # scipy's ellipk takes the parameter m = k^2
        assert ellipk_agm(np.sqrt((1 - k) * (1 + k))) == pytest.approx(
            scipy.special.ellipk(k * k), rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            ellipk_agm(0.0)
        with pytest.raises(ValueError):
            ellipk_agm(-0.1)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpwGeometry(center_width=0.0, gap_width=1.0, eps_r=10.0)
        with pytest.raises(ValueError):
            CpwGeometry(center_width=1.0, gap_width=-1.0, eps_r=10.0)
        with pytest.raises(ValueError):
            CpwGeometry(center_width=1.0, gap_width=1.0, eps_r=0.5)

    @pytest.mark.parametrize("field", ["center_width", "gap_width", "eps_r"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        # eps_r = inf gave Z0 = 0 and v_ph = 0
        kwargs = {"center_width": 20.0, "gap_width": 8.0, "eps_r": 9.8, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CpwGeometry(**kwargs)


class TestDerive:
    def test_effective_permittivity_is_average(self):
        d = cpw_derive(CpwGeometry(center_width=10.0, gap_width=6.0, eps_r=9.8))
        assert d.eps_eff == pytest.approx((9.8 + 1.0) / 2.0)
        assert d.v_ph == pytest.approx(C_LIGHT / np.sqrt(5.4))

    def test_symmetric_modulus_point(self):
        # when k = k' the elliptic-integral ratio is 1: Z0 = 30 pi / sqrt(eps_eff)
        k = 1.0 / np.sqrt(2.0)
        s = 1.0
        w = 2.0 * s * k / (1.0 - k)
        d = cpw_derive(CpwGeometry(center_width=w, gap_width=s, eps_r=9.8))
        assert d.z0 == pytest.approx(30.0 * np.pi / np.sqrt(5.4), rel=1e-9)

    def test_reference_design_values(self):
        d = cpw_derive(CpwGeometry(center_width=20.0, gap_width=8.0, eps_r=9.8))
        assert d.v_ph == pytest.approx(1.29017e8, rel=1e-3)
        # the zero-thickness conformal-mapping model sits slightly below
        # the 50-ohm design value of the full multilayer treatment
        assert d.z0 == pytest.approx(48.7, abs=0.5)

    @pytest.mark.parametrize("width, gap", [(20.0, 8.0), (1.0, 50.0), (1e-3, 8.0), (1e-7, 8.0)])
    def test_impedance_matches_mpmath(self, width, gap):
        # at 1e-7 / 8, sqrt(1 - k^2) rounds to 1, so K(k) must come from AGM(1, k') alone
        with mpmath.workprec(300):
            k = mpmath.mpf(width) / (mpmath.mpf(width) + 2 * mpmath.mpf(gap))
            want = float(30 * mpmath.pi * mpmath.ellipk(1 - k**2)
                         / (mpmath.sqrt((mpmath.mpf(9.8) + 1) / 2) * mpmath.ellipk(k**2)))
        got = cpw_derive(CpwGeometry(center_width=width, gap_width=gap, eps_r=9.8)).z0
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("width, gap", [(1e6, 1e-6), (1e4, 1e-4), (100.0, 1e-3)])
    def test_wide_centre_conductor_matches_mpmath(self, width, gap):
        # k near 1: 1 - k formed from a rounded k kept k's absolute rounding (1.2e-6 at 1e6)
        with mpmath.workprec(300):
            k = mpmath.mpf(width) / (mpmath.mpf(width) + 2 * mpmath.mpf(gap))
            want = float(30 * mpmath.pi * mpmath.ellipk(1 - k**2)
                         / (mpmath.sqrt((mpmath.mpf(9.8) + 1) / 2) * mpmath.ellipk(k**2)))
        got = cpw_derive(CpwGeometry(center_width=width, gap_width=gap, eps_r=9.8)).z0
        assert abs(got - want) <= 1e-14 * want

    def test_wider_gap_raises_impedance(self):
        z = [cpw_derive(CpwGeometry(center_width=20.0, gap_width=g, eps_r=9.8)).z0
             for g in (4.0, 8.0, 16.0)]
        assert z[0] < z[1] < z[2]


class TestWavelength:
    def test_seven_ghz_reference(self):
        d = cpw_derive(CpwGeometry(center_width=20.0, gap_width=8.0, eps_r=9.8))
        lam = wavelength(2 * np.pi * 7e9, d.v_ph)
        assert lam * 1e3 == pytest.approx(18.4, abs=0.1)

    def test_inverse_proportionality(self):
        assert wavelength(2.0, 1.0) == pytest.approx(2 * wavelength(4.0, 1.0))

    def test_domain(self):
        # 2 pi / 1e-320 overflows, also as numpy scalars, which would warn: every refused
        # wavelength is one that is not finite and > 0
        for omega, v_ph in [(0.0, 1.0), (float("nan"), 1.0), (float("inf"), 1.0),
                            (1.0, float("nan")), (1.0, -1.0), (1e-320, 1.0),
                            (np.float64(1e-320), np.float64(1.0))]:
            with pytest.raises(ValueError, match=f"omega = {omega} and v_ph = {v_ph}"):
                wavelength(omega, v_ph)


class TestLambdaRatio:
    GEOM = CpwGeometry(center_width=20.0, gap_width=8.0, eps_r=9.8)

    def test_scales_inversely_with_frequency(self):
        r1 = lambda_ratio_for_freq(2.0, self.GEOM)
        r2 = lambda_ratio_for_freq(4.0, self.GEOM)
        assert r1 == pytest.approx(2 * r2, rel=1e-12)

    def test_reference_point(self):
        # ratio 1 at the 7 GHz design frequency and 18.4 mm separation
        assert lambda_ratio_for_freq(7.0, self.GEOM) == pytest.approx(1.0, abs=0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_ratio_for_freq(0.0, self.GEOM)
        with pytest.raises(ValueError):
            lambda_ratio_for_freq(5.0, self.GEOM, x2_mm=0.0)
