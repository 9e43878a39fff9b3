"""Test oracles: random X states, the X-state right-hand side, both from
the full generator and as the hand-transcribed kinetic equations of the
source text, the Lindblad generator written channel by channel with the
collective term expanded by hand, and a sudden-death threshold that
propagates every fidelity it tests on its own.
"""

from dataclasses import replace

import numpy as np

from wgqed.dynamics import XState, evolve_xstate
from wgqed.entangle import NonMonotoneError, margins
from wgqed.model import (SM_A, SM_B, DerivedRates, WaveguideParams, apply_generator,
                         build_generator, build_hamiltonian, derive_rates)
from wgqed.states import FAMILIES


def channel_generator(h: np.ndarray, jumps: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Generator of -i[H,rho] + sum_k rate_k D[A_k]rho, one dissipator per channel.

    Row-major vectorization: vec(A rho B) = kron(A, B.T) vec(rho).
    """
    eye = np.eye(h.shape[0], dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, a in jumps:
        ada = a.conj().T @ a
        gen += rate * (np.kron(a, a.conj()) - 0.5 * np.kron(ada, eye)
                       - 0.5 * np.kron(eye, ada.T))
    return gen


def hand_expanded_generator(r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """The 16x16 generator with the individual channels as two dissipators and
    the collective one expanded by hand:
    gamma_col (s-a rho s+b + s-b rho s+a - 1/2 {s+a s-b + s+b s-a, rho}).
    """
    gen = channel_generator(build_hamiltonian(r, p), [(r.gamma_a, SM_A), (r.gamma_b, SM_B)])
    eye = np.eye(4, dtype=complex)
    cross = SM_A.conj().T @ SM_B + SM_B.conj().T @ SM_A
    gen += r.gamma_col * (np.kron(SM_A, SM_B.conj()) + np.kron(SM_B, SM_A.conj())
                          - 0.5 * np.kron(cross, eye) - 0.5 * np.kron(eye, cross.T))
    return gen


def xstate_rhs(x: XState, r: DerivedRates, p: WaveguideParams) -> XState:
    """Time derivative of an X state (returned as an XState-shaped bundle)."""
    gen = build_generator(r, p)
    d = apply_generator(gen, x.to_matrix())
    return XState.from_matrix(d)


def kinetics_reference_rhs(x: XState, r: DerivedRates, p: WaveguideParams) -> XState:
    """Closed-form kinetic equations for the X manifold, as the source text states them.

    The source text uses the opposite qubit ordering (qubit a slow), so
    inputs are mapped by swapping the single-excitation populations and
    conjugating the inner coherence, and the result is mapped back.
    """
    gamma, gnr, phi = p.gamma, p.gamma_nr, r.phi
    c1, c2, c3 = np.cos(phi), np.cos(2 * phi), np.cos(3 * phi)
    s1, s2, s3 = np.sin(phi), np.sin(2 * phi), np.sin(3 * phi)
    # their labels: b is the b-excited population, z = conj(ours)
    a, b, c, d = x.a, x.c, x.b, x.d
    z, w = np.conj(x.z), x.w
    zr = z + np.conj(z)
    omega_a, omega_b = p.delta_bare / 2, -p.delta_bare / 2

    w_dot = -0.5 * w * (2 * (gamma + gnr) + 2j * (omega_a + omega_b)
                        + gamma * (c1 + c3) + 1j * gamma * (s1 + s3))
    z_dot = 0.5 * (-2 * z * (gamma + gnr) - 2j * z * (omega_a - omega_b)
                   + (2 * d - b - z - c) * gamma * c1
                   + (2 * d - b - c) * gamma * c2
                   - z * gamma * c3
                   + 1j * (b - c - z) * gamma * s1
                   + 1j * (b - c) * gamma * s2
                   + 1j * z * gamma * s3)
    a_dot = ((b + c) * (gamma + gnr) + (c + zr) * gamma * c1
             + zr * gamma * c2 + b * gamma * c3)
    b_dot = ((gamma + gnr) * (d - b) + (d - zr / 2) * gamma * c1
             - zr / 2 * gamma * c2 - b * gamma * c3
             + 0.5j * gamma * (z - np.conj(z)) * (s1 + s2))
    c_dot = ((gamma + gnr) * (d - c) - (c + zr / 2) * gamma * c1
             - zr / 2 * gamma * c2 + d * gamma * c3
             - 0.5j * gamma * (z - np.conj(z)) * (s1 + s2))
    d_dot = -d * (2 * (gamma + gnr) + gamma * (c1 + c3))
    # map back to our ordering
    return XState(a=float(np.real(a_dot)), b=float(np.real(c_dot)),
                  c=float(np.real(b_dot)), d=float(np.real(d_dot)),
                  z=complex(np.conj(z_dot)), w=complex(w_dot))


def kinetics_discrepancy(r: DerivedRates, p: WaveguideParams, n: int = 50,
                         seed: int = 0) -> dict[str, float]:
    """Max per-element gap between the derived and transcribed X-state RHS."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(["a", "b", "c", "d", "z", "w"], 0.0)
    for _ in range(n):
        x = random_xstate(rng)
        got = xstate_rhs(x, r, p)
        ref = kinetics_reference_rhs(x, r, p)
        for name in ("a", "b", "c", "d", "z", "w"):
            gap = abs(getattr(got, name) - getattr(ref, name))
            worst[name] = max(worst[name], float(gap))
    return worst


def random_xstate(rng: np.random.Generator) -> XState:
    """Random valid X-shape state (PSD blocks, unit trace)."""
    pops = rng.dirichlet(np.ones(4))
    a, b, c, d = pops
    z = rng.uniform(0, 1) * np.sqrt(b * c) * np.exp(2j * np.pi * rng.uniform())
    w = rng.uniform(0, 1) * np.sqrt(a * d) * np.exp(2j * np.pi * rng.uniform())
    return XState(a=a, b=b, c=c, d=d, z=z, w=w)


def esd_threshold_by_repropagation(lambda_ratio: float, p: WaveguideParams,
                                   state_family: str, tol: float) -> float:
    """``esd_threshold`` with one propagation of the family's state per tested f.

    Same window (6 / min(gamma_a, gamma_b), 1500 steps), -1e-8 margin
    slack, 9-point bracket check and bisection; no affine shortcut.
    """
    make = FAMILIES[state_family]
    lo, hi = {"werner": 0.25, "pw": 1.0 / 3.0}[state_family], 1.0
    pr = replace(p, lambda_ratio=lambda_ratio)
    r = derive_rates(pr)
    t_max = 6.0 / min(r.gamma_a, r.gamma_b)

    def has_esd(f):
        traj = evolve_xstate(make(f), r, pr, t_max, t_max / 1500)
        return bool(margins(traj.states).min() < -1e-8)

    grid = np.linspace(lo, hi, 9)
    flags = [has_esd(f) for f in grid]
    transitions = sum(a != b for a, b in zip(flags, flags[1:]))
    if transitions > 1 or (transitions == 1 and not flags[0]):
        raise NonMonotoneError(f"ESD predicate not monotone on [{lo}, {hi}]: {flags}")
    if all(flags):
        return hi
    if not any(flags):
        return lo
    k = flags.index(False)
    f_lo, f_hi = float(grid[k - 1]), float(grid[k])
    while f_hi - f_lo > tol:
        mid = 0.5 * (f_lo + f_hi)
        if has_esd(mid):
            f_lo = mid
        else:
            f_hi = mid
    return 0.5 * (f_lo + f_hi)
