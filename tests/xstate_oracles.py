"""Test oracles: X vectors from named elements and read back from matrices by
index, random X states, the X-state check row by row, the action
of a generator on a density matrix and its restriction to the X manifold
basis state by basis state,
the X-state right-hand side, both from the full generator and as the
hand-transcribed kinetic equations of the source text, the Lindblad
generator written channel by channel with np.kron and the collective term
expanded by hand, the sudden-death verdict of one fidelity propagated on its
own, the X maps with their vec(rho) indices written
out by hand, and a dissipative gate propagated on all 64 entries of the
register, not on its excitation-number sector alone.
"""

from dataclasses import replace

import numpy as np

from wgqed.dynamics import evolve_xstate, propagate, x_matrix
from wgqed.entangle import DEATH_RTOL
from wgqed.model import (SM_A, SM_B, DerivedRates, WaveguideParams, build_generator,
                         build_hamiltonian, derive_rates, lindblad_generator)
from wgqed.states import FAMILIES, LOWERING_CBA


def x_vector(a, b, c, d, z=0j, w=0j) -> np.ndarray:
    """The X vector (a, b, c, d, Re z, Im z, Re w, Im w) of named elements."""
    return np.array([a, b, c, d, z.real, z.imag, w.real, w.imag])


def x_from_matrix(m: np.ndarray) -> np.ndarray:
    """The X vectors of (..., 4, 4) matrices, read by index: the diagonal, z = m[1, 2] and
    w = m[0, 3]; every other element is ignored."""
    m = np.asarray(m)
    z, w = m[..., 1, 2], m[..., 0, 3]
    return np.stack([m[..., 0, 0].real, m[..., 1, 1].real, m[..., 2, 2].real, m[..., 3, 3].real,
                     z.real, z.imag, w.real, w.imag], axis=-1)


def xstate_violation_by_rows(xs: np.ndarray, tol: float) -> tuple[int, str] | None:
    """``xstate_violation`` without its whole-array certificate: every check on every row."""
    xs = np.reshape(xs, (-1, 8))
    a, b, c, d, zr, zi, wr, wi = xs.T
    finite = np.isfinite(xs)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = np.column_stack([
            ~finite[:, :4], ~(finite[:, 4] & finite[:, 5]), ~(finite[:, 6] & finite[:, 7]),
            np.abs(a + b + c + d - 1.0) > tol, (xs[:, :4] < -tol) | (xs[:, :4] > 1 + tol),
            np.hypot(zr, zi) ** 2 > b * c + tol, np.hypot(wr, wi) ** 2 > a * d + tol])
    rows = np.flatnonzero(bad.any(axis=1))
    if not len(rows):
        return None
    k = int(rows[0])
    row = [float(e) for e in xs[k]]
    pops = row[:4]
    named = dict(zip("abcd", pops), z=complex(row[4], row[5]), w=complex(row[6], row[7]))
    reasons = [f"element {n}={named[n]} is not finite" for n in "abcdzw"]
    reasons.append(f"populations sum to {sum(pops)}, not 1")
    reasons += [f"population {n}={v} outside [0, 1]" for n, v in zip("abcd", pops)]
    reasons += ["|z|^2 exceeds b*c: inner block not PSD",
                "|w|^2 exceeds a*d: outer block not PSD"]
    return k, reasons[int(np.argmax(bad[k]))]


def apply_generator(gen: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """gen acting on a density matrix, through its row-major vectorization."""
    dim = rho.shape[0]
    return (gen @ rho.reshape(-1)).reshape(dim, dim)


def xstate_generator_by_basis(gen: np.ndarray) -> np.ndarray:
    """A 16x16 generator restricted to the X manifold one unit X coordinate at a time."""
    m = np.zeros((8, 8))
    for k in range(8):
        e = np.zeros(8)
        e[k] = 1.0
        m[:, k] = x_from_matrix(apply_generator(gen, x_matrix(e)))
    return m


def kron_lindblad_generator(h: np.ndarray, ops: list[np.ndarray], rates) -> np.ndarray:
    """``lindblad_generator`` with every Kronecker product formed by np.kron."""
    rates = np.asarray(rates)
    pairs = list(zip(*np.nonzero(rates)))
    h_eff = h - 0.5j * sum(rates[i, j] * ops[j].conj().T @ ops[i] for i, j in pairs)
    eye = np.eye(h.shape[0], dtype=complex)
    gen = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    for i, j in pairs:
        gen += rates[i, j] * np.kron(ops[i], ops[j].conj())
    return gen


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


def xstate_rhs(x: np.ndarray, r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """Time derivative of an X vector, read from the full generator's action on its matrix."""
    gen = build_generator(r, p)
    return x_from_matrix(apply_generator(gen, x_matrix(x)))


def kinetics_reference_rhs(x: np.ndarray, r: DerivedRates, p: WaveguideParams) -> np.ndarray:
    """Closed-form kinetic equations for the X manifold, as the source text states them.

    The source text uses the opposite qubit ordering (qubit a slow), so
    inputs are mapped by swapping the single-excitation populations and
    conjugating the inner coherence, and the result is mapped back.
    """
    gamma, gnr, phi = p.gamma, p.gamma_nr, r.phi
    c1, c2, c3 = np.cos(phi), np.cos(2 * phi), np.cos(3 * phi)
    s1, s2, s3 = np.sin(phi), np.sin(2 * phi), np.sin(3 * phi)
    # their labels: b is the b-excited population, z = conj(ours)
    a, b, c, d = x[0], x[2], x[1], x[3]
    z, w = np.conj(complex(x[4], x[5])), complex(x[6], x[7])
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
    return x_vector(float(np.real(a_dot)), float(np.real(c_dot)), float(np.real(b_dot)),
                    float(np.real(d_dot)), complex(np.conj(z_dot)), complex(w_dot))


def kinetics_discrepancy(r: DerivedRates, p: WaveguideParams, n: int = 50,
                         seed: int = 0) -> dict[str, float]:
    """Max per-element gap between the derived and transcribed X-state RHS."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(["a", "b", "c", "d", "z", "w"], 0.0)
    for _ in range(n):
        x = random_xstate(rng)
        got = xstate_rhs(x, r, p)
        ref = kinetics_reference_rhs(x, r, p)
        gaps = np.abs(got - ref)
        gaps = [*gaps[:4], np.hypot(*gaps[4:6]), np.hypot(*gaps[6:])]
        for name, gap in zip(worst, gaps):
            worst[name] = max(worst[name], float(gap))
    return worst


def random_xstate(rng: np.random.Generator) -> np.ndarray:
    """X vector of a random valid X-shape state (PSD blocks, unit trace)."""
    pops = rng.dirichlet(np.ones(4))
    a, b, c, d = pops
    z = rng.uniform(0, 1) * np.sqrt(b * c) * np.exp(2j * np.pi * rng.uniform())
    w = rng.uniform(0, 1) * np.sqrt(a * d) * np.exp(2j * np.pi * rng.uniform())
    return x_vector(a, b, c, d, z, w)


def dies_by_repropagation(lambda_ratio: float, p: WaveguideParams, family: str,
                          f: float) -> bool:
    """Whether f's trajectory, propagated on its own, dies on ``death_set``'s grid.

    Same window (6 / min(gamma_a, gamma_b), 1500 steps) and relative floor DEATH_RTOL,
    checked sample by sample on |z|, sqrt(ad), |w| and sqrt(bc): no affine shortcut and no
    quadratics in f.
    """
    pr = replace(p, lambda_ratio=lambda_ratio)
    r = derive_rates(pr)
    t_max = 6.0 / min(r.gamma_a, r.gamma_b)
    _, xs = evolve_xstate(FAMILIES[family](f), r, pr, t_max, t_max / 1500)
    a, b, c, d = np.maximum(xs[:, :4], 0.0).T
    z, w = np.hypot(xs[:, 4], xs[:, 5]), np.hypot(xs[:, 6], xs[:, 7])
    root_ad, root_bc = np.sqrt(a * d), np.sqrt(b * c)
    dead_f = z - root_ad < -DEATH_RTOL * (z + root_ad)
    dead_g = w - root_bc < -DEATH_RTOL * (w + root_bc)
    return bool(np.any(dead_f & dead_g))


def hand_x_maps() -> tuple[np.ndarray, np.ndarray]:
    """(X_IN, X_OUT) from the unit X states and a hand-written vec(rho) index per coordinate."""
    x_in = x_matrix(np.eye(8)).reshape(8, 16).T
    x_out = np.zeros((8, 16), dtype=complex)
    x_out[range(8), [0, 5, 10, 15, 6, 6, 3, 3]] = [1, 1, 1, 1, 1, -1j, 1, -1j]
    return x_in, x_out


def dissipative_gate_unrestricted(rho: np.ndarray, h: np.ndarray, duration: float,
                                  gamma_nr: float) -> np.ndarray:
    """A dissipative gate of the preparation protocol under its full 64x64 generator."""
    gen = lindblad_generator(h, LOWERING_CBA, gamma_nr * np.eye(3))
    return propagate(gen, rho.reshape(-1), duration, 1)[-1].reshape(8, 8)
