"""Initial-state constructors and preparation-protocol simulations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    I2,
    SIGMA_MINUS,
    STRUCT_TOL,
    SIGMA_X,
    XY_EXCHANGE,
    check_density_matrix,
    expm_skew,
    partial_trace,
    tensor,
    tensor_all,
)
from .dynamics import XState, grid_steps, propagate
from .model import lindblad_generator, mhz

WAIT_CAP_US = 1e4


def _check_werner_f(f: float):
    # STRUCT_TOL admits grid round-off such as np.arange(0.3, 1.001, 0.1)[-1] = 1 + 2e-16
    if not 0.25 - STRUCT_TOL <= f <= 1.0 + STRUCT_TOL:
        raise ValueError(f"werner fidelity must be in [0.25, 1], got {f}")


def werner(f: float) -> np.ndarray:
    """Mixture of the Bell singlet with the maximally mixed state."""
    return werner_xstate(f).to_matrix()


def werner_xstate(f: float) -> XState:
    _check_werner_f(f)
    return XState(a=(1 - f) / 3, b=(1 + 2 * f) / 6, c=(1 + 2 * f) / 6,
                  d=(1 - f) / 3, z=complex((1 - 4 * f) / 6), w=0j)


def pseudo_werner(f: float) -> np.ndarray:
    """X-shape alternative to the Werner state, preparable by the exchange protocol."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"pseudo-Werner fidelity must be in [0, 1], got {f}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = f / 8
    rho[1, 1] = (1 + f) / 4
    rho[2, 2] = 3 * f / 8
    rho[3, 3] = 3 * (1 - f) / 4
    rho[1, 2] = 1j * np.sqrt(3) * f / 4
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def pw_xstate(f: float) -> XState:
    m = pseudo_werner(f)
    return XState.from_matrix(m)


#: initial X state of each state family, as a function of its fidelity f.
#: Each must be affine in f: esd_threshold interpolates the propagations of
#: two fidelities to get the trajectory of any other.
FAMILIES = {"werner": werner_xstate, "pw": pw_xstate}


@dataclass(frozen=True)
class PrepConfig:
    """Knobs for the three-qubit pseudo-Werner preparation protocol."""

    f: float
    with_dissipation: bool = False
    g_strength: float = mhz(10.0)
    g_bc_strength: float = mhz(10.0)
    gamma_nr: float = mhz(0.03)

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f must be in [0, 1], got {self.f}")
        if self.with_dissipation and (self.g_strength <= 0 or self.g_bc_strength <= 0):
            raise ValueError("dissipative mode needs positive coupling strengths")


@dataclass
class PrepResult:
    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray
    rho_out: np.ndarray
    gate_durations_us: tuple[float, float] | None = None


# exchange generators: identity on the untouched qubit, XY on the active pair
XY_BA = tensor(I2, XY_EXCHANGE)
XY_CB = tensor(XY_EXCHANGE, I2)
# amplitude damping of c, b and a, one channel each
LOWERING_CBA = [tensor_all(SIGMA_MINUS, I2, I2), tensor_all(I2, SIGMA_MINUS, I2),
                tensor_all(I2, I2, SIGMA_MINUS)]


def prepare_pw(cfg: PrepConfig) -> PrepResult:
    """Three-qubit protocol producing the pseudo-Werner state of the a/b pair.

    Register ordering is |c b a> (auxiliary qubit c slowest).  Exact mode
    applies the two exchange rotations as unitaries; dissipative mode
    propagates them as Lindblad evolutions with amplitude damping at
    gamma_nr on every qubit, gate times set by the coupling strengths.
    """
    f = cfg.f
    rho_a = np.diag([f, 1 - f]).astype(complex)
    rho_b = np.diag([0.0, 1.0]).astype(complex)  # excited
    rho_c = np.diag([1.0, 0.0]).astype(complex)  # ground
    rho1 = tensor_all(rho_c, rho_b, rho_a)

    if not cfg.with_dissipation:
        u1 = expm_skew(XY_BA, np.pi / 4)
        rho2 = u1 @ rho1 @ u1.conj().T
        u2 = expm_skew(XY_CB, np.pi / 6)
        rho3 = u2 @ rho2 @ u2.conj().T
        durations = None
    else:
        t1 = (np.pi / 4) / cfg.g_strength
        t2 = (np.pi / 6) / cfg.g_bc_strength
        # -g * XY so the Lindblad propagator matches the exact-mode phase
        # convention exp(+i theta XY) rho exp(-i theta XY)
        rho2 = _dissipative_gate(rho1, -cfg.g_strength * XY_BA, t1, cfg.gamma_nr)
        rho3 = _dissipative_gate(rho2, -cfg.g_bc_strength * XY_CB, t2, cfg.gamma_nr)
        durations = (t1, t2)

    rho_out = partial_trace(rho3, "first")
    return PrepResult(rho1=rho1, rho2=rho2, rho3=rho3, rho_out=rho_out,
                      gate_durations_us=durations)


def _dissipative_gate(rho: np.ndarray, h: np.ndarray, duration: float,
                      gamma_nr: float) -> np.ndarray:
    gen = lindblad_generator(h, LOWERING_CBA, gamma_nr * np.eye(3))
    return propagate(gen, rho.reshape(-1).astype(complex), duration, 1)[-1].reshape(8, 8)


@dataclass(frozen=True)
class RabiConfig:
    """Square-envelope resonant drive followed by a free-decay wait."""

    omega: float = mhz(30.0)
    gamma_nr: float = mhz(0.03)
    pulse_duration: float = 35.0
    wait_duration: float = 0.0
    final_flip: bool = False
    sample_dt: float = 0.01

    def __post_init__(self):
        for name in ("omega", "gamma_nr", "pulse_duration", "wait_duration", "sample_dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("omega", "gamma_nr", "pulse_duration", "wait_duration"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sample_dt <= 0:
            raise ValueError(f"sample_dt must be > 0, got {self.sample_dt}")


@dataclass
class MixResult:
    times: np.ndarray
    rho_gg: np.ndarray
    rho_ee: np.ndarray
    abs_rho_eg: np.ndarray
    rho_final: np.ndarray
    f_achieved: float


def mixed_qubit(cfg: RabiConfig) -> MixResult:
    """Drive a single qubit into a mixed state via its intrinsic decay.

    A long resonant pulse (H = Omega/2 sigma_x in the frame rotating at
    the qubit frequency) equilibrates the populations near 1/2; waiting
    afterwards lets the excited population decay to the target ground
    population f.  An optional exact pi-pulse at the end maps f -> 1 - f.
    """
    if cfg.pulse_duration > 0 and cfg.pulse_duration < 3.0 / max(cfg.gamma_nr, 1e-30):
        import warnings

        warnings.warn("pulse shorter than ~3/gamma_nr: populations may not "
                      "reach the 1/2-1/2 mixture", stacklevel=2)
    segments = []
    if cfg.pulse_duration > 0:
        segments.append((cfg.omega / 2 * SIGMA_X, cfg.pulse_duration))
    if cfg.wait_duration > 0:
        segments.append((np.zeros((2, 2), dtype=complex), cfg.wait_duration))
    steps = [max(grid_steps(duration, cfg.sample_dt), 2) for _, duration in segments]

    times_all = [np.zeros(1)]
    samples = [np.array([[1, 0, 0, 0]], dtype=complex)]  # ground, vectorized
    t_offset = 0.0
    for (h, duration), n in zip(segments, steps):
        gen = lindblad_generator(h, [SIGMA_MINUS], [[cfg.gamma_nr]])
        samples.append(propagate(gen, samples[-1][-1], duration / n, n)[1:])
        times_all.append(t_offset + np.linspace(0.0, duration, n + 1)[1:])
        t_offset += duration

    arr = np.concatenate(samples).reshape(-1, 2, 2)
    rho_final = arr[-1]
    if cfg.final_flip:
        rho_final = SIGMA_X @ rho_final @ SIGMA_X
    return MixResult(
        times=np.concatenate(times_all),
        rho_gg=arr[:, 0, 0].real,
        rho_ee=arr[:, 1, 1].real,
        abs_rho_eg=np.abs(arr[:, 1, 0]),
        rho_final=check_density_matrix(rho_final, tol=1e-6),
        f_achieved=float(rho_final[0, 0].real),
    )


def wait_time_for_f(f: float, gamma_nr: float) -> float:
    """Free-decay wait turning the 1/2-1/2 mixture into ground population f.

    Analytic inversion of rho_ee(t) = exp(-gamma_nr t) / 2.
    """
    if not 0.5 <= f < 1.0:
        raise ValueError(f"f must be in [0.5, 1), got {f}")
    if gamma_nr <= 0:
        raise ValueError("gamma_nr must be > 0")
    t = np.log(1.0 / (2.0 * (1.0 - f))) / gamma_nr
    if t > WAIT_CAP_US:
        raise ValueError(f"required wait {t:.3g} us exceeds cap {WAIT_CAP_US:g} us")
    return float(t)
