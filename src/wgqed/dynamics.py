"""Exact time evolution of the master equation.

Every generator here is constant in time, so rho(t) = expm(L t) rho0
holds exactly: :func:`propagate` takes one matrix exponential of the
generator times the sample step and fills the samples by blocked powers of
it, one matrix product per doubling of the samples known.  The exponential
is :func:`wgqed.linalg.expm`, Padé scaling and squaring (Higham 2005;
Al-Mohy & Higham 2009) written in numpy alone.

Two paths are provided: ``evolve_full`` propagates the vectorized 4x4
density matrix under the full generator, ``evolve_xstate`` propagates the
eight real degrees of freedom of an X-shape state.  The reduced generator
is the full one restricted to the X manifold numerically, once per unit
coefficient (:func:`xstate_basis`), not transcribed from kinetic equations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import STRUCT_TOL, expm
from .model import DerivedRates, WaveguideParams, generator_at, generator_coefficients

#: most samples one whole_steps grid may hold (states.mixed_qubit: each segment's); admits the
#: longest wait ``states.wait_time_for_f`` returns (1e4 us) at the default 0.01 us step
MAX_SAMPLES = 10**6 + 1


class IntegrationError(RuntimeError):
    """Raised when propagation produces a non-finite state.

    ``last_time`` is the time of the last finite sample.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


class InvariantViolation(RuntimeError):
    """Raised when a computed state is not a density matrix to STRUCT_TOL."""


def off_x_leakage(m: np.ndarray) -> float:
    """Largest magnitude among elements outside the diagonal/anti-diagonal (X_IN's support)."""
    return float(np.max(np.abs(m[~X_IN.any(axis=1).reshape(4, 4)])))


def x_matrix(xs: np.ndarray) -> np.ndarray:
    """(..., 4, 4) complex matrices of an (..., 8) array of X vectors (a, b, c, d, Re z, Im z,
    Re w, Im w), written by index: the |00>, |01>, |10>, |11> populations a, b, c, d (qubit a is
    the fast index, so b is the a-excited one) on the diagonal, the inner coherence
    z = <01|rho|10> at [1, 2] and the outer one w = <00|rho|11> at [0, 3], their conjugates at
    [2, 1] and [3, 0], zero elsewhere.  Not X_IN @ xs, which would spread a NaN everywhere."""
    xs = np.asarray(xs, dtype=float)
    m = np.zeros((*xs.shape[:-1], 4, 4), dtype=complex)
    rows, cols = [0, 1, 2, 3, 1, 2, 0, 3], [0, 1, 2, 3, 2, 1, 3, 0]  # a, b, c, d, z, z*, w, w*
    m.real[..., rows, cols] = xs[..., [0, 1, 2, 3, 4, 4, 6, 6]]
    m.imag[..., rows[4:], cols[4:]] = xs[..., [5, 5, 7, 7]] * [1, -1, 1, -1]
    return m


def xstate_violation(xs: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first row of an (..., 8) X-state array that is not a density
    matrix to tol = STRUCT_TOL, or None: the first failing check of finite elements, unit trace,
    populations in [0, 1], |z|^2 <= bc, |w|^2 <= ad.  Whole-column reductions certify first (NaN
    and inf fail them; |z|^2 - bc in squares must be tol/2 - 1e-14 under the bound, room for its
    round-off against hypot's square); only an array they do not certify is diagnosed by row.
    """
    tol = STRUCT_TOL
    xs = np.reshape(xs, (-1, 8))
    a, b, c, d, zr, zi, wr, wi = xs.T  # xs.T[:4]: the populations as one (4, N) block
    with np.errstate(invalid="ignore", over="ignore"):  # sum(axis=0) adds a + b + c + d in turn
        if not len(xs) or (np.abs(xs.T[:4].sum(axis=0) - 1.0).max() <= tol
                           and xs.T[:4].min() >= -tol and xs.T[:4].max() <= 1 + tol
                           and np.max(zr * zr + zi * zi - b * c) <= tol / 2 - 1e-14
                           and np.max(wr * wr + wi * wi - a * d) <= tol / 2 - 1e-14):
            return None
        finite = np.isfinite(xs)
        bad = np.column_stack([
            ~finite[:, :4], ~(finite[:, 4] & finite[:, 5]), ~(finite[:, 6] & finite[:, 7]),
            np.abs(a + b + c + d - 1.0) > tol, (xs[:, :4] < -tol) | (xs[:, :4] > 1 + tol),
            np.hypot(zr, zi) ** 2 > b * c + tol, np.hypot(wr, wi) ** 2 > a * d + tol])
    rows = np.flatnonzero(bad.any(axis=1))
    if not len(rows):
        return None
    k = int(rows[0])
    row = xs[k].tolist()
    pops = row[:4]
    elements = [*pops, complex(row[4], row[5]), complex(row[6], row[7])]
    reasons = [f"element {n}={x} is not finite" for n, x in zip("abcdzw", elements)]
    reasons.append(f"populations sum to {sum(pops)}, not 1")
    reasons += [f"population {n}={v} outside [0, 1]" for n, v in zip("abcd", pops)]
    reasons += ["|z|^2 exceeds b*c: inner block not PSD",
                "|w|^2 exceeds a*d: outer block not PSD"]
    return k, reasons[int(np.argmax(bad[k]))]


#: X coordinates to vec(rho) (16x8): the unit X states of x_matrix, each coherence with its
#: conjugate; and vec(rho) to X coordinates as the real part (8x16, Im x = Re(-1j x)): the
#: conjugate transpose on the elements on or above the diagonal alone
X_IN = x_matrix(np.eye(8)).reshape(8, 16).T
X_OUT = X_IN.T.conj() * np.triu(np.ones((4, 4))).ravel()


def xstate_generator_matrix(gen: np.ndarray) -> np.ndarray:
    """Restrict a 16x16 generator to the X manifold as a real 8x8 matrix.

    Exact because the Hamiltonian and every jump term keep X-shape matrices X-shaped; each
    entry of (X_OUT @ gen @ X_IN).real sums the same two products as gen on a unit X state.
    """
    return (X_OUT @ gen @ X_IN).real


@functools.cache
def xstate_basis() -> np.ndarray:
    """(6, 64): row k is ``xstate_generator_matrix(generator_at(e_k))`` flattened, so the X
    generator at coefficients theta (model.generator_coefficients) is theta @ xstate_basis()."""
    return np.stack([xstate_generator_matrix(generator_at(e)).ravel() for e in np.eye(6)])


def whole_steps(start: float, stop: float, step: float, what: str) -> np.ndarray:
    """start + k * step for k = 0, 1, ... up to stop: every sample_times grid and every --range.

    A step short by under 1e-9 of itself counts: (1.0 - 0.3) / 0.05 = 13.999999999999998 is 14.
    Raises ValueError naming ``what``, before anything is allocated, past MAX_SAMPLES samples."""
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_SAMPLES:
        raise ValueError(f"{what} needs {steps + 1:.3g} samples; the limit is {MAX_SAMPLES}")
    return start + step * np.arange(int(steps) + 1)


def sample_times(t_max: float, sample_dt: float) -> np.ndarray:
    """The checked time grid ``whole_steps(0, t_max, sample_dt)``: sample k is exactly
    k * sample_dt, the time k steps of S = expm(M * sample_dt) reach, and none is past t_max by
    1e-9 of a step, up to round-off (``sample_times(0.7, 0.05)[-1]`` is 0.7000000000000001)."""
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if not (math.isfinite(sample_dt) and 0 < sample_dt <= t_max):
        raise ValueError(f"sample_dt must be finite and in (0, t_max], got {sample_dt}")
    return whole_steps(0.0, t_max, sample_dt, f"{t_max:.6g} us at sample_dt = {sample_dt:.6g} us")


def propagate(gen: np.ndarray, y0: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Samples expm(gen*dt)^k @ y0 for k = 0..n, as an (n + 1, *y0.shape) array.

    ``y0`` is one state (d,) or a stack (m, d) of them.  Exact for a time-independent
    generator: one matrix exponential gives S = expm(gen*dt) (:func:`wgqed.linalg.expm`: Padé
    scaling and squaring, Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, with the scaling of
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009); once samples 0..j-1 are known,
    samples j..2j-1 are those times S^j, and S^2j = S^j @ S^j is formed only while samples
    remain.  The samples are held component-major: each step multiplies columns of one
    (d, (n + 1) * m) buffer, and the result is a view of it, one contiguous plane per component.
    Raises :class:`IntegrationError` at the first non-finite sample.
    """
    y0 = np.asarray(y0)
    if not np.isfinite(y0).all():
        raise ValueError("initial state must be finite")
    d, m = y0.shape[-1], y0.size // y0.shape[-1]  # m states per sample
    cols = np.empty((d, (n + 1) * m), dtype=np.result_type(gen, y0, 1.0))
    cols[:, :m] = y0.reshape(m, d).T  # sample k is cols[:, k*m:(k+1)*m]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        power, j = expm(gen * dt), 1
        while j <= n:
            k = min(j, n + 1 - j)
            np.matmul(power, cols[:, :k * m], out=cols[:, j * m:(j + k) * m])
            j += k
            if j <= n:
                power = power @ power
    if not np.isfinite(cols).all():
        k = int(np.argmin(np.isfinite(cols).all(axis=0))) // m
        raise IntegrationError(f"non-finite state at t = {k * dt:.6g} us", (k - 1) * dt)
    return np.moveaxis(cols.reshape(d, n + 1, *y0.shape[:-1]), 0, -1)


def evolve_full(rho0: np.ndarray, gen: np.ndarray, t_max: float,
                sample_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, states): the density matrix propagated under the full generator, (n_t, 4, 4)."""
    times = sample_times(t_max, sample_dt)
    ys = propagate(gen, np.asarray(rho0, dtype=complex).reshape(-1), sample_dt, len(times) - 1)
    return times, ys.reshape(-1, 4, 4)


def evolve_xstate(x0: np.ndarray, r: DerivedRates, p: WaveguideParams, t_max: float,
                  sample_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) of the eight real X-manifold coordinates propagated (fast path).

    An X vector gives (n_t, 8) states; an (m, 8) stack is propagated as one and gives
    (n_t, m, 8).  The 8x8 generator is :func:`xstate_basis`'s: no 16x16 build.  One
    :func:`xstate_violation` certifies every sample returned: a bad sample 0, the input, raises
    ValueError, and a bad later sample :class:`InvariantViolation` naming its time.
    """
    y0 = np.asarray(x0, dtype=float)
    m = (generator_coefficients(r, p) @ xstate_basis()).reshape(8, 8)
    times = sample_times(t_max, sample_dt)
    states = propagate(m, y0, sample_dt, len(times) - 1)
    bad = xstate_violation(states)
    if bad is None:
        return times, states
    k = np.unravel_index(bad[0], states.shape[:-1])[0]  # the sample of the first bad row
    if not k:
        raise ValueError(bad[1])
    raise InvariantViolation(f"sample at t = {times[k]:.6g} us: {bad[1]}")
