"""Concurrence computation and sudden-death / revival event detection."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import SIGMA_Y, check_density_matrix, tensor
from .dynamics import SAMPLE_TOL, Trajectory, XState, evolve_xstate
from .model import WaveguideParams, derive_rates
from .states import FAMILIES

_YY = tensor(SIGMA_Y, SIGMA_Y)
#: detect_events: a death is C <= DEAD_EPS for at least DEATH_HOLD samples
DEAD_EPS = 1e-6
DEATH_HOLD = 5


class NonMonotoneError(RuntimeError):
    """ESD predicate is not monotone over the bisection bracket."""


@dataclass
class EsdReport:
    """Zero crossings of the concurrence along a trajectory."""

    death_times: list[float] = field(default_factory=list)
    revival_times: list[float] = field(default_factory=list)
    final_concurrence: float = 0.0


def margins(xs: np.ndarray) -> np.ndarray:
    """Entanglement margin 2*max(F, G) of every X state in an (..., 8) array.

    F = |z| - sqrt(a+ d+) and G = |w| - sqrt(b+ c+), with x+ = max(x, 0);
    hypot gives |z| and |w| rounded exactly like Python's ``abs(complex)``.
    Unclamped: strictly negative over an interval iff the concurrence is
    exactly zero there, which makes sudden death decidable at finite times
    even when the clamped concurrence merely decays asymptotically.
    """
    xs = np.asarray(xs)
    a, b, c, d = (np.maximum(xs[..., k], 0.0) for k in range(4))
    f = np.hypot(xs[..., 4], xs[..., 5]) - np.sqrt(a * d)
    g = np.hypot(xs[..., 6], xs[..., 7]) - np.sqrt(b * c)
    return 2.0 * np.maximum(f, g)


def concurrence_x(x: XState) -> float:
    """Closed-form concurrence of an X-shape state, in [0, 1].

    The state is validated to SAMPLE_TOL, so propagated samples, which
    carry accumulated round-off, still pass.
    """
    x.validate(tol=SAMPLE_TOL)
    return float(np.clip(margins(x.to_vector()), 0.0, 1.0))


def concurrence_wootters(rho: np.ndarray) -> float:
    """General two-qubit concurrence via the spin-flipped spectrum."""
    rho = check_density_matrix(rho)
    if rho.shape[0] != 4:
        raise ValueError("concurrence is defined for 4x4 density matrices")
    r = rho @ _YY @ rho.conj() @ _YY
    vals = np.sort(np.linalg.eigvals(r).real)[::-1]
    roots = np.sqrt(np.clip(vals, 0.0, None))
    c = roots[0] - roots[1] - roots[2] - roots[3]
    return float(min(max(c, 0.0), 1.0))


def pw_concurrence_closed(f: float) -> float:
    """Closed-form concurrence of the pseudo-Werner family."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"f must be in [0, 1], got {f}")
    big_f = np.sqrt(3.0) * (2 * f - np.sqrt(2 * f * (1 - f))) / 8.0
    big_g = -np.sqrt(3 * f * (1 + f) / 32.0)
    return float(2.0 * max(0.0, big_f, big_g))


def trajectory_concurrences(traj: Trajectory) -> np.ndarray:
    """Concurrence at every sample of an X-manifold trajectory (not validated)."""
    return np.clip(margins(traj.states), 0.0, 1.0)


def detect_events(times: np.ndarray, c: np.ndarray) -> EsdReport | list[EsdReport]:
    """Locate deaths (C <= DEAD_EPS for >= DEATH_HOLD samples) and revivals.

    ``c`` is the concurrence sampled at ``times``, or an (n_t, m) stack of m series, which
    gives m reports (a series that never crosses DEAD_EPS is not searched).  A death is a run
    of at least DEATH_HOLD dead samples that follows a live one; it revives at the first live
    sample after the run.  Event times are refined by linear interpolation of C between the
    bracketing samples.  A concurrence that only decays below DEAD_EPS counts as a death
    here: this is not the negative-margin sudden death of :func:`esd_threshold`.
    """
    if len(times) < 2:
        raise ValueError("trajectory needs at least 2 samples")
    t, c, n = np.asarray(times), np.asarray(c), len(c)
    if c.ndim == 2:
        return [detect_events(t, col) if crosses else EsdReport(final_concurrence=float(col[-1]))
                for col, crosses in zip(c.T, np.diff(c <= DEAD_EPS, axis=0).any(axis=0))]
    step = np.diff((c <= DEAD_EPS).astype(np.int8))
    starts = np.flatnonzero(step == 1) + 1  # first dead sample of a run
    ends = np.append(np.flatnonzero(step == -1) + 1, n)  # first live one after it
    stops = ends[np.searchsorted(ends, starts)]
    held = stops - starts >= DEATH_HOLD
    return EsdReport(
        death_times=[_cross_time(t, c, i - 1) for i in starts[held]],
        revival_times=[_cross_time(t, c, i - 1) for i in stops[held] if i < n],
        final_concurrence=float(c[-1]))


def _cross_time(t, c, i):
    """Linear interpolation of the DEAD_EPS crossing between samples i and i+1."""
    c0, c1 = c[i], c[i + 1]
    if c1 == c0:
        return float(t[i + 1])
    frac = (c0 - DEAD_EPS) / (c0 - c1)
    frac = min(max(frac, 0.0), 1.0)
    return float(t[i] + frac * (t[i + 1] - t[i]))


def esd_threshold(lambda_ratio: float, p: WaveguideParams, state_family: str,
                  tol: float = 0.005) -> float:
    """Boundary fidelity below which the trajectory exhibits sudden death.

    Sudden death: the unclamped margin (see :func:`margins`) falls below
    -1e-8 at one of the 1501 samples (1500 steps) over
    6 / min(gamma_a, gamma_b).  Both families are affine in f, so one
    propagation of the bracket's end states gives every trajectory as
    their interpolation.  Bisection over f, after a 9-point check of the
    bracket; raises NonMonotoneError where the predicate is not monotone
    there (Werner near lambda/x2 = 1.9 and 2.11).
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    floors = {"werner": 0.25, "pw": 1.0 / 3.0}  # lowest f of each family
    if state_family not in floors:
        raise ValueError(f"unknown state family {state_family!r}")
    make, lo, hi = FAMILIES[state_family], floors[state_family], 1.0

    pr = replace(p, lambda_ratio=lambda_ratio)
    r = derive_rates(pr)
    t_max = 6.0 / min(r.gamma_a, r.gamma_b)
    ends = evolve_xstate([make(lo), make(hi)], r, pr, t_max, t_max / 1500).states
    base, slope = ends[:, 0], (ends[:, 1] - ends[:, 0]) / (hi - lo)

    def has_esd(f: float) -> bool:
        return bool(margins(base + (f - lo) * slope).min() < -1e-8)

    grid = np.linspace(lo, hi, 9)
    flags = [has_esd(f) for f in grid]
    transitions = sum(1 for i in range(len(flags) - 1) if flags[i] != flags[i + 1])
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
