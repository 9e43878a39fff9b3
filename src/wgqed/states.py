"""Initial-state constructors and preparation-protocol simulations."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    I2,
    SIGMA_MINUS,
    STRUCT_TOL,
    SIGMA_X,
    XY_EXCHANGE,
    check_density_matrix,
    partial_trace,
    sector,
    tensor,
    tensor_all,
)
from .dynamics import InvariantViolation, propagate, whole_steps, x_matrix
from .model import check_fields, lindblad_generator, mhz

WAIT_CAP_US = 1e4


def _fidelities(f, family: str, lo: float, hi: float) -> tuple:
    """(f, zeros like f) as arrays; ValueError at the first f outside [lo, hi] by more than
    STRUCT_TOL, which admits grid round-off such as np.arange(0.3, 1.001, 0.1)[-1] = 1 + 2e-16."""
    fs = np.asarray(f, dtype=float)
    out = ~((lo - STRUCT_TOL <= fs) & (fs <= hi + STRUCT_TOL))
    if out.any():
        raise ValueError(f"{family} fidelity must be in [{lo:g}, {hi:g}], got "
                         f"{fs[out][0] if fs.ndim else f}")
    return fs, np.zeros_like(fs)


def werner(f: float) -> np.ndarray:
    """Mixture of the Bell singlet with the maximally mixed state."""
    return x_matrix(werner_vector(f))


def werner_vector(f) -> np.ndarray:
    """X vectors (:func:`wgqed.dynamics.x_matrix`) of Werner states: (8,) at one f, (m, 8) at m."""
    f, zero = _fidelities(f, "werner", 0.25, 1.0)
    a, b = (1 - f) / 3, (1 + 2 * f) / 6
    return np.array([a, b, b, a, (1 - 4 * f) / 6, zero, zero, zero]).T


def pseudo_werner(f: float) -> np.ndarray:
    """X-shape alternative to the Werner state, preparable by the exchange protocol."""
    return x_matrix(pw_vector(f))


def pw_vector(f) -> np.ndarray:
    """X vectors of pseudo-Werner states, shaped as :func:`werner_vector`'s."""
    f, zero = _fidelities(f, "pseudo-Werner", 0.0, 1.0)
    return np.array([f / 8, (1 + f) / 4, 3 * f / 8, 3 * (1 - f) / 4,
                     zero, np.sqrt(3) * f / 4, zero, zero]).T


#: X vectors of each state family at a fidelity f, or at an array of them.  Each must be
#: affine in f, with w = 0: entangle.death_set interpolates two trajectories and reads F alone.
FAMILIES = {"werner": werner_vector, "pw": pw_vector}


#: exchange angles of the a-b gate and the b-c gate; a gate of strength g lasts angle / g
GATE_ANGLES = (np.pi / 4, np.pi / 6)


@dataclass(frozen=True)
class PrepConfig:
    """Knobs for the three-qubit pseudo-Werner preparation protocol."""

    f: float
    with_dissipation: bool = False
    g_strength: float = mhz(10.0)
    g_bc_strength: float = mhz(10.0)
    gamma_nr: float = mhz(0.03)

    def __post_init__(self):
        pw_vector(self.f)  # the family's fidelity range
        check_fields(self, ("g_strength", "g_bc_strength", "gamma_nr"), ("gamma_nr",))
        for name, angle in zip(("g_strength", "g_bc_strength"), GATE_ANGLES):
            g = getattr(self, name)
            if g <= 0 or np.isinf(angle / g):  # in either mode; (pi/4)/1e-320 overflows
                raise ValueError("coupling strengths must be positive with finite gate times, "
                                 f"got {name} = {g}")


@dataclass
class PrepResult:
    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray
    rho_out: np.ndarray
    gate_durations_us: tuple[float, float] | None


# exchange generators: identity on the untouched qubit, XY on the active pair
XY_BA = tensor(I2, XY_EXCHANGE)
XY_CB = tensor(XY_EXCHANGE, I2)
# amplitude damping of c, b and a, one channel each
LOWERING_CBA = [tensor_all(SIGMA_MINUS, I2, I2), tensor_all(I2, SIGMA_MINUS, I2),
                tensor_all(I2, I2, SIGMA_MINUS)]
#: the register's sector q = 0 (linalg.sector): rho1 lies in it, and the gates propagate it alone
Q0_CBA = sector(3, 0)


def prepare_pw(cfg: PrepConfig) -> PrepResult:
    """Three-qubit protocol producing the pseudo-Werner state of the a/b pair.

    Register ordering is |c b a> (auxiliary qubit c slowest).  Both modes
    propagate the 20-dimensional sector q = 0 of the register through two
    exchange gates of angles pi/4 and pi/6.  Dissipative mode sets the gate
    times from the coupling strengths and damps every qubit at gamma_nr;
    exact mode is its lossless case, gamma_nr = 0, where the angles alone
    fix the result and unit strengths stand in for g and g_bc.
    """
    f = cfg.f
    rho_a = np.diag([f, 1 - f]).astype(complex)
    rho_b = np.diag([0.0, 1.0]).astype(complex)  # excited
    rho_c = np.diag([1.0, 0.0]).astype(complex)  # ground
    rho1 = tensor_all(rho_c, rho_b, rho_a)

    if cfg.with_dissipation:
        g, g_bc, gamma_nr = cfg.g_strength, cfg.g_bc_strength, cfg.gamma_nr
    else:
        g, g_bc, gamma_nr = 1.0, 1.0, 0.0
    t1, t2 = GATE_ANGLES[0] / g, GATE_ANGLES[1] / g_bc
    # -g * XY gives the rotation exp(+i theta XY) rho exp(-i theta XY)
    rho2 = _gate(rho1, -g * XY_BA, t1, gamma_nr)
    rho3 = _gate(rho2, -g_bc * XY_CB, t2, gamma_nr)

    rho_out = partial_trace(rho3, "first")
    return PrepResult(rho1=rho1, rho2=rho2, rho3=rho3, rho_out=rho_out,
                      gate_durations_us=(t1, t2) if cfg.with_dissipation else None)


def _gate(rho: np.ndarray, h: np.ndarray, duration: float, gamma_nr: float) -> np.ndarray:
    gen = lindblad_generator(h, LOWERING_CBA, gamma_nr * np.eye(3))[np.ix_(Q0_CBA, Q0_CBA)]
    out = np.zeros(64, dtype=complex)
    out[Q0_CBA] = propagate(gen, rho.reshape(-1)[Q0_CBA], duration, 1)[-1]
    return out.reshape(8, 8)


@dataclass(frozen=True)
class RabiConfig:
    """Square-envelope resonant drive followed by a free-decay wait; :func:`mixed_qubit` runs
    it and returns (times, states)."""

    omega: float = mhz(30.0)
    gamma_nr: float = mhz(0.03)
    pulse_duration: float = 35.0
    wait_duration: float = 0.0
    sample_dt: float = 0.01

    def __post_init__(self):
        check_fields(self, ("omega", "gamma_nr", "pulse_duration", "wait_duration", "sample_dt"),
                     ("omega", "gamma_nr", "pulse_duration", "wait_duration"), ("sample_dt",))
        if not np.isfinite(float(self.pulse_duration) + float(self.wait_duration)):  # = times[-1]
            raise ValueError("pulse_duration + wait_duration must be finite, got "
                             f"{self.pulse_duration} + {self.wait_duration}")


def mixed_qubit(cfg: RabiConfig) -> tuple[np.ndarray, np.ndarray]:
    """Drive a single qubit into a mixed state via its intrinsic decay.

    A long resonant pulse (H = Omega/2 sigma_x in the frame rotating at the qubit frequency)
    equilibrates the populations near 1/2; waiting afterwards lets the excited population decay
    to the target ground population f.  Returns (times, states), as the evolve paths of
    wgqed.dynamics do: the (n,) sample times and the (n, 2, 2) density matrices.  Each segment
    holds whole_steps' count of steps (at least 2), stretched to end at its duration exactly;
    whole_steps caps each segment's grid at MAX_SAMPLES, so n stays below twice it.
    Raises InvariantViolation when the final state is not a density matrix to STRUCT_TOL.
    """
    dt = cfg.sample_dt
    segments = [(h, duration, max(len(whole_steps(
                     0.0, duration, dt, f"{duration:.6g} us at sample_dt = {dt:.6g} us")) - 1, 2))
                for h, duration in ((cfg.omega / 2 * SIGMA_X, cfg.pulse_duration),
                                    (np.zeros((2, 2), dtype=complex), cfg.wait_duration))
                if duration > 0]  # all capped before any is propagated
    if cfg.pulse_duration > 0 and cfg.pulse_duration < 3.0 / max(cfg.gamma_nr, 1e-30):
        warnings.warn("pulse shorter than ~3/gamma_nr: populations may not "
                      "reach the 1/2-1/2 mixture", stacklevel=2)
    times = [np.zeros(1)]
    samples = [np.array([[1, 0, 0, 0]], dtype=complex)]  # ground, vectorized
    for h, duration, n in segments:
        gen = lindblad_generator(h, [SIGMA_MINUS], [[cfg.gamma_nr]])
        samples.append(propagate(gen, samples[-1][-1], duration / n, n)[1:])
        times.append(times[-1][-1] + np.linspace(0.0, duration, n + 1)[1:])

    states = np.concatenate(samples).reshape(-1, 2, 2)
    try:
        check_density_matrix(states[-1])
    except ValueError as exc:
        raise InvariantViolation(f"final state: {exc}") from None
    return np.concatenate(times), states


def wait_time_for_f(f: float, gamma_nr: float) -> float:
    """Free-decay wait turning the 1/2-1/2 mixture into ground population f.

    Analytic inversion of rho_ee(t) = exp(-gamma_nr t) / 2.
    """
    if not 0.5 <= f < 1.0:
        raise ValueError(f"f must be in [0.5, 1), got {f}")
    if not 0 < gamma_nr < np.inf:
        raise ValueError(f"gamma_nr must be finite and > 0, got {gamma_nr}")
    t = np.log(1.0 / (2.0 * (1.0 - f))) / gamma_nr
    if t > WAIT_CAP_US:
        raise ValueError(f"required wait {t:.3g} us exceeds cap {WAIT_CAP_US:g} us")
    return float(t)
