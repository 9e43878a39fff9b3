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
    even when the clamped concurrence merely decays asymptotically.  One state gives a scalar.
    """
    xs = np.asarray(xs)
    f, g, tmp = (np.empty(xs.shape[:-1]) for _ in range(3))  # the only columns allocated
    for res, (p, q, k) in ((f, (0, 3, 4)), (g, (1, 2, 6))):  # F from a, d, z; G from b, c, w
        np.multiply(np.maximum(xs[..., p], 0.0, out=res), np.maximum(xs[..., q], 0.0, out=tmp),
                    out=res)
        np.subtract(np.hypot(xs[..., k], xs[..., k + 1], out=tmp), np.sqrt(res, out=res), out=res)
    return np.multiply(np.maximum(f, g, out=f), 2.0, out=f)[()]


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
    c = margins(traj.states)
    return np.clip(c, 0.0, 1.0, out=c)


def detect_events(times: np.ndarray, c: np.ndarray) -> EsdReport | list[EsdReport]:
    """Locate deaths (C <= DEAD_EPS for >= DEATH_HOLD samples) and revivals.

    ``c`` is the concurrence sampled at ``times``, or an (n_t, m) stack of m series, which
    gives m reports, all found in one pass over the stack.  A death is a run of at least
    DEATH_HOLD dead samples that follows a live one; it revives at the first live sample after
    the run.  Event times are refined by linear interpolation of C between the bracketing
    samples.  A concurrence that only decays below DEAD_EPS counts as a death here: this is
    not the negative-margin sudden death of :func:`esd_threshold`.
    """
    if len(times) < 2:
        raise ValueError("trajectory needs at least 2 samples")
    t, c = np.asarray(times), np.asarray(c)
    if c.ndim == 1:
        return detect_events(t, c[:, None])[0]
    (n, m), cs = c.shape, c.T.ravel()  # series j's sample i at j*n + i
    # sample i + 1 against i at j*n + i; a live sample padded after the last ends every run
    step = np.diff(np.pad(c.T <= DEAD_EPS, ((0, 0), (0, 1))).astype(np.int8)).ravel()
    starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)  # last live, last dead
    stops = stops[np.searchsorted(stops, starts)]
    held = stops - starts >= DEATH_HOLD
    starts, stops = starts[held], stops[held][stops[held] % n < n - 1]  # none at the last sample
    k = np.r_[starts, stops]  # C crosses DEAD_EPS between entries k and k + 1 of cs
    i = k % n
    c0, c1, t0, t1 = cs[k], cs[k + 1], t[i], t[i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # where c1 == c0, t1 is taken
        frac = np.minimum(np.maximum((c0 - DEAD_EPS) / (c0 - c1), 0.0), 1.0)
    at = np.split(np.where(c1 == c0, t1, t0 + frac * (t1 - t0)), [len(starts)])
    deaths, revivals = (np.split(times, np.searchsorted(ends, np.arange(1, m) * n))
                        for times, ends in zip(at, (starts, stops)))
    return [EsdReport(d.tolist(), r.tolist(), final)
            for d, r, final in zip(deaths, revivals, c[-1].tolist())]


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
