"""Coplanar-waveguide design calculator.

Zero-thickness, infinite-substrate conformal-mapping model: the effective
permittivity is (eps_r + 1) / 2 and the impedance follows from the ratio
of complete elliptic integrals of the geometry modulus k = w / (w + 2s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_fields

C_LIGHT = 299792458.0  # m/s

AGM_TOL = 1e-12


def ellipk_agm(kp: float) -> float:
    """Complete elliptic integral of the first kind K(k) = pi / (2 AGM(1, kp)), given the
    complementary modulus kp = sqrt(1 - k^2), so that no 1 - k^2 rounds to 1 at a small k.

    Arithmetic-geometric mean iteration, quadratically convergent: once
    a - b <= ``AGM_TOL``, the mean of the last pair is the AGM to rounding.
    """
    if not 0.0 < kp <= 1.0:
        raise ValueError(f"complementary modulus must be in (0, 1], got {kp}")
    a, b = 1.0, float(kp)
    while a - b > AGM_TOL:
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (a + b))


@dataclass(frozen=True)
class CpwGeometry:
    """Center conductor width and vacuum gap in um, substrate permittivity."""

    center_width: float
    gap_width: float
    eps_r: float

    def __post_init__(self):
        check_fields(self, ("center_width", "gap_width", "eps_r"), (),
                     ("center_width", "gap_width"))
        if self.eps_r < 1:
            raise ValueError(f"eps_r must be >= 1, got {self.eps_r}")


@dataclass(frozen=True)
class CpwDerived:
    z0: float  # ohm
    v_ph: float  # m/s
    eps_eff: float


def cpw_derive(g: CpwGeometry) -> CpwDerived:
    """Characteristic impedance and phase velocity of the CPW geometry."""
    # k = 1 / (1 + q) and 1 - k = q / (1 + q): neither w + 2s nor a rounded 1 - k is formed
    q = 2.0 * (g.gap_width / g.center_width)
    k = 1.0 / (1.0 + q)
    if k <= 0.0 or k >= 1.0:
        raise ValueError(f"degenerate geometry modulus k = {k}")
    kp = float(np.sqrt(q / (1.0 + q)) * np.sqrt((2.0 + q) / (1.0 + q)))
    eps_eff = (g.eps_r + 1.0) / 2.0
    # K(kp) / K(k): each modulus is the other's complement
    z0 = 30.0 * np.pi * ellipk_agm(k) / (np.sqrt(eps_eff) * ellipk_agm(kp))
    return CpwDerived(z0=float(z0), v_ph=C_LIGHT / float(np.sqrt(eps_eff)),
                      eps_eff=eps_eff)


def wavelength(omega: float, v_ph: float) -> float:
    """Guided wavelength in meters, finite and > 0, for angular frequency omega > 0 in rad/s."""
    lam = 2.0 * np.pi * float(v_ph) / float(omega) if omega > 0 else np.nan  # overflow: no warning
    if not 0.0 < lam < np.inf:
        raise ValueError(f"no finite wavelength > 0 from omega = {omega} and v_ph = {v_ph}")
    return lam


def lambda_ratio_for_freq(freq_ghz: float, geom: CpwGeometry, x2_mm: float = 18.4) -> float:
    """lambda / x2 at the given qubit frequency for this waveguide geometry."""
    if freq_ghz <= 0 or x2_mm <= 0:
        raise ValueError("freq_ghz and x2_mm must be > 0")
    derived = cpw_derive(geom)
    try:
        lam = wavelength(2.0 * np.pi * freq_ghz * 1e9, derived.v_ph)
    except ValueError:
        raise ValueError(
            f"freq_ghz must give a finite, nonzero wavelength, got {freq_ghz}") from None
    x2_m = x2_mm * 1e-3  # 0 once x2_mm underflows
    if not (x2_m > 0 and 0.0 < lam / x2_m < np.inf):
        raise ValueError(f"x2_mm must give a finite, nonzero lambda / x2, got {x2_mm}")
    return lam / x2_m
