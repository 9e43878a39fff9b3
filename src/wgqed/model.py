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


def check_fields(obj, finite: tuple, non_negative: tuple, positive: tuple = ()):
    """ValueError at the first of obj's fields that breaks a rule, the rules taken in turn."""
    rules = {"finite": (finite, math.isfinite), ">= 0": (non_negative, lambda v: v >= 0),
             "> 0": (positive, lambda v: v > 0)}
    for rule, (names, ok) in rules.items():
        for name in names:
            if not ok(getattr(obj, name)):
                raise ValueError(f"{name} must be {rule}, got {getattr(obj, name)}")


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
        check_fields(self, ("gamma", "gamma_nr", "lambda_ratio", "delta_bare", "g"),
                     ("gamma", "gamma_nr"), ("lambda_ratio",))
        if math.isinf(3 * (TWO_PI / self.lambda_ratio)):  # derive_rates' e^(3i phi)
            raise ValueError(f"6*pi/lambda_ratio overflows at lambda_ratio {self.lambda_ratio}")


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
    """Rates and couplings induced by the shorted line, also elementwise over an array of ratios.

    All six are read from the mirror Green's function G_ij = e^(ik|x_i - x_j|) + e^(ik(x_i + x_j)),
    qubit a at x2/2 and qubit b at 3 x2/2 from the short, phi = 2 pi x2/lambda: Gamma_ij =
    gamma Re G_ij + gamma_nr delta_ij, d_omega_i = (gamma/2) Im G_ii, g_x = (gamma/2) Im G_ab."""
    phi = TWO_PI / p.lambda_ratio
    e1, e2, e3 = np.exp(1j * phi), np.exp(2j * phi), np.exp(3j * phi)
    g_aa, g_ab, g_bb = 1 + e1, e1 + e2, 1 + e3
    return DerivedRates(
        phi=phi,
        gamma_a=p.gamma * g_aa.real + p.gamma_nr,
        gamma_b=p.gamma * g_bb.real + p.gamma_nr,
        gamma_col=p.gamma * g_ab.real,
        g_x=p.gamma / 2 * g_ab.imag,
        d_omega1=p.gamma / 2 * g_aa.imag,
        d_omega2=p.gamma / 2 * g_bb.imag,
    )


def generator_coefficients(r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """theta = (d_a, d_b, g_x + g, gamma_a, gamma_col, gamma_b): the two frequency shifts, the
    exchange coupling and the rate matrix entries, the six numbers the generator is linear in."""
    return np.array([r.d_omega1 + p.delta_bare / 2, r.d_omega2 - p.delta_bare / 2,
                     r.g_x + p.g, r.gamma_a, r.gamma_col, r.gamma_b])


def hamiltonian_at(theta) -> np.ndarray:
    """Rotating-frame two-qubit Hamiltonian (4x4, Hermitian) at the coefficients theta."""
    return theta[0] * SZ_A / 2 + theta[1] * SZ_B / 2 + theta[2] * XY_EXCHANGE


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
    gen = -1j * (tensor(h_eff, eye) - tensor(eye, h_eff.conj()))
    for i, j in pairs:
        gen += rates[i, j] * tensor(ops[i], ops[j].conj())
    return gen


def generator_at(theta) -> np.ndarray:
    """Full Lindblad generator (16x16) at the coefficients theta of generator_coefficients."""
    return lindblad_generator(hamiltonian_at(theta), [SM_A, SM_B],
                              [[theta[3], theta[4]], [theta[4], theta[5]]])


def build_generator(r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """Full Lindblad generator (16x16): individual and collective decay over one rate matrix."""
    return generator_at(generator_coefficients(r, p))
