"""Physical model: wavelength-dependent rates, Hamiltonian and Lindblad generator.

All rates are angular frequencies in rad/us; time is in us.  The two-qubit
basis is |b a> (qubit a is the fast index), matching :mod:`wgqed.linalg`.

The Hamiltonian is built in a frame rotating at a common reference
frequency, so only the waveguide-induced shifts and the optional bare
detuning enter; concurrence is invariant under the local z-rotations this
removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I2, SIGMA_MINUS, SIGMA_Z, XY_EXCHANGE, tensor

TWO_PI = 2.0 * np.pi

# two-qubit operators, qubit a fast
SM_A = tensor(I2, SIGMA_MINUS)
SZ_A = tensor(I2, SIGMA_Z)
SM_B = tensor(SIGMA_MINUS, I2)
SZ_B = tensor(SIGMA_Z, I2)


def mhz(value: float) -> float:
    """Convert a linear frequency in MHz to angular frequency in rad/us."""
    return TWO_PI * value


@dataclass(frozen=True)
class WaveguideParams:
    """Bare physical parameters of the two-qubit / transmission-line system.

    gamma        bare qubit-waveguide coupling rate (rad/us)
    gamma_nr     intrinsic non-radiative relaxation rate (rad/us)
    lambda_ratio wavelength over qubit separation, dimensionless
    delta_bare   bare qubit detuning omega_a - omega_b (rad/us)
    g            switchable direct exchange coupling (rad/us)
    """

    gamma: float
    gamma_nr: float
    lambda_ratio: float
    delta_bare: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "gamma_nr", "lambda_ratio", "delta_bare", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.gamma_nr < 0:
            raise ValueError(f"gamma_nr must be >= 0, got {self.gamma_nr}")
        if self.lambda_ratio <= 0:
            raise ValueError(f"lambda_ratio must be > 0, got {self.lambda_ratio}")


@dataclass(frozen=True)
class DerivedRates:
    """Wavelength-dependent rates and couplings (all rad/us, phi in rad)."""

    phi: float
    gamma_a: float
    gamma_b: float
    gamma_col: float
    g_x: float
    d_omega1: float
    d_omega2: float


def derive_rates(p: WaveguideParams) -> DerivedRates:
    """Rates and couplings induced by the shorted line at the given wavelength.

    phi = 2*pi*x2/lambda is the propagation phase between the two coupling
    points; every derived quantity is a trigonometric function of phi.
    """
    phi = TWO_PI / p.lambda_ratio
    c1, c2, c3 = np.cos(phi), np.cos(2 * phi), np.cos(3 * phi)
    s1, s2, s3 = np.sin(phi), np.sin(2 * phi), np.sin(3 * phi)
    return DerivedRates(
        phi=phi,
        gamma_a=p.gamma * (1 + c1) + p.gamma_nr,
        gamma_b=p.gamma * (1 + c3) + p.gamma_nr,
        gamma_col=p.gamma * (c1 + c2),
        g_x=p.gamma * (s1 + s2) / 2,
        d_omega1=p.gamma / 2 * s1,
        d_omega2=p.gamma / 2 * s3,
    )


def build_hamiltonian(r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """Rotating-frame two-qubit Hamiltonian (4x4, Hermitian)."""
    d_a = r.d_omega1 + p.delta_bare / 2
    d_b = r.d_omega2 - p.delta_bare / 2
    return d_a * SZ_A / 2 + d_b * SZ_B / 2 + (r.g_x + p.g) * XY_EXCHANGE


def lindblad_generator(h: np.ndarray, ops: list[np.ndarray], rates) -> np.ndarray:
    """Superoperator matrix for
    rho_dot = -i[H,rho] + sum_ij G_ij (A_i rho A_j^+ - 1/2 {A_j^+ A_i, rho}).

    ``rates`` is the Hermitian rate matrix G over the jump operators ``ops``;
    a diagonal G gives independent channels.  The anticommutators fold into
    H_eff = H - (i/2) sum_ij G_ij A_j^+ A_i, so the generator is
    -i (kron(H_eff, I) - kron(I, conj(H_eff))) + sum_ij G_ij kron(A_i, conj(A_j)),
    zero rates skipped.  Acts on row-major vectorized density matrices:
    vec(A rho B) = kron(A, B.T) vec(rho).
    """
    rates = np.asarray(rates)
    pairs = list(zip(*np.nonzero(rates)))
    h_eff = h - 0.5j * sum(rates[i, j] * ops[j].conj().T @ ops[i] for i, j in pairs)
    eye = np.eye(h.shape[0], dtype=complex)
    gen = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    for i, j in pairs:
        gen += rates[i, j] * np.kron(ops[i], ops[j].conj())
    return gen


def build_generator(r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """Full Lindblad generator (16x16): individual and collective decay over one rate matrix."""
    return lindblad_generator(build_hamiltonian(r, p), [SM_A, SM_B],
                              [[r.gamma_a, r.gamma_col], [r.gamma_col, r.gamma_b]])


def apply_generator(gen: np.ndarray, rho: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    return (gen @ rho.reshape(-1)).reshape(dim, dim)

