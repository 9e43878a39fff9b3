"""Concurrence computation and sudden-death / revival event detection."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import SIGMA_Y, check_density_matrix, tensor
from .dynamics import SAMPLE_TOL, evolve_xstate, xstate_violation
from .model import WaveguideParams, derive_rates
from .states import FAMILIES

_YY = tensor(SIGMA_Y, SIGMA_Y)
#: detect_events: a death is C <= DEAD_EPS for at least DEATH_HOLD samples
DEAD_EPS = 1e-6
DEATH_HOLD = 5
#: death_set: relative round-off floor on the margins, and each family's lowest f (up to 1)
DEATH_RTOL = 1e-9
F_LO = {"werner": 0.25, "pw": 1.0 / 3.0}
#: each margin's X coordinates p, q, Re, Im: F from a, d, z and G from b, c, w
FG_PAIRING = ((0, 3, 4, 5), (1, 2, 6, 7))


class NonMonotoneError(RuntimeError):
    """The death set in f is not one interval from the family's lowest f."""


@dataclass
class EsdReport:
    """Zero crossings of the concurrence along a trajectory."""

    death_times: list[float] = field(default_factory=list)
    revival_times: list[float] = field(default_factory=list)
    final_concurrence: float = 0.0


def margins(xs: np.ndarray) -> np.ndarray:
    """Entanglement margin 2*max(F, G) of every X state in an (..., 8) array.

    F = |z| - sqrt(a+ d+) and G = |w| - sqrt(b+ c+), with x+ = max(x, 0); |z| and |w| round as
    Python's ``abs(complex)``: hypot where Im != 0, elsewhere |Re| = hypot(Re, +-0) (C99 Annex
    F.9.4.3), so a w plane of zeros costs one abs.  Unclamped: strictly negative over an interval
    iff the concurrence is exactly zero there, which makes sudden death decidable at finite
    times even when the clamped concurrence merely decays asymptotically.  One state: a scalar.
    """
    xs = np.asarray(xs)
    f, g, tmp = (np.empty(xs.shape[:-1]) for _ in range(3))  # the only columns allocated
    for res, (p, q, re, im) in zip((f, g), FG_PAIRING):
        np.multiply(np.maximum(xs[..., p], 0.0, out=res), np.maximum(xs[..., q], 0.0, out=tmp),
                    out=res)
        np.abs(xs[..., re], out=tmp)
        np.hypot(xs[..., re], xs[..., im], out=tmp, where=xs[..., im] != 0)
        np.subtract(tmp, np.sqrt(res, out=res), out=res)
    return np.multiply(np.maximum(f, g, out=f), 2.0, out=f)[()]


def concurrence_x(x: np.ndarray) -> float:
    """Closed-form concurrence of one X vector (a, b, c, d, Re z, Im z, Re w, Im w), in [0, 1].

    The state is validated to SAMPLE_TOL, so propagated samples, which
    carry accumulated round-off, still pass.
    """
    bad = xstate_violation(x, SAMPLE_TOL)
    if bad is not None:
        raise ValueError(bad[1])
    return float(np.clip(margins(x), 0.0, 1.0))


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


def trajectory_concurrences(states: np.ndarray) -> np.ndarray:
    """Concurrence at every sample of an (..., 8) array of X states (not validated)."""
    c = margins(states)
    return np.clip(c, 0.0, 1.0, out=c)


def detect_events(times: np.ndarray, c: np.ndarray) -> EsdReport | list[EsdReport]:
    """Locate deaths (C <= DEAD_EPS for >= DEATH_HOLD samples) and revivals.

    ``c`` is the concurrence sampled at ``times``, or an (n_t, m) stack of m series, which
    gives m reports, all found in one pass over the stack.  A death is a run of at least
    DEATH_HOLD dead samples that follows a live one; it revives at the first live sample after
    the run.  Event times are refined by linear interpolation of C between the bracketing
    samples.  A concurrence that only decays below DEAD_EPS counts as a death here: this is
    not the negative-margin sudden death of :func:`death_set`.
    """
    if len(times) < 2:
        raise ValueError("trajectory needs at least 2 samples")
    t, c = np.asarray(times), np.asarray(c)
    if c.ndim == 1:
        return detect_events(t, c[:, None])[0]
    (n, m), cs = c.shape, c.T.ravel()  # series j's sample i at j*n + i
    dead = np.zeros((m, n + 1), dtype=np.int8)  # a live sample after the last ends every run
    np.less_equal(c.T, DEAD_EPS, out=dead[:, :n])
    step = np.diff(dead).ravel()  # sample i + 1 against i at j*n + i
    starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)  # last live, last dead
    stops = stops[np.searchsorted(stops, starts)]
    held = stops - starts >= DEATH_HOLD
    starts, stops = starts[held], stops[held][stops[held] % n < n - 1]  # none at the last sample
    k = np.r_[starts, stops]  # C crosses DEAD_EPS between entries k and k + 1 of cs
    i = k % n
    c0, c1, t0, t1 = cs[k], cs[k + 1], t[i], t[i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # where c1 == c0, t1 is taken
        frac = np.minimum(np.maximum((c0 - DEAD_EPS) / (c0 - c1), 0.0), 1.0)
    at = np.where(c1 == c0, t1, t0 + frac * (t1 - t0)).tolist()  # deaths, then revivals
    cuts = np.arange(m + 1) * n  # series j holds entries cuts[j] to cuts[j + 1] - 1 of cs
    d = np.searchsorted(starts, cuts).tolist()
    r = (np.searchsorted(stops, cuts) + len(starts)).tolist()
    return [EsdReport(at[d[j]:d[j + 1]], at[r[j]:r[j + 1]], final)
            for j, final in enumerate(c[-1].tolist())]


def death_set(lambda_ratio: float, p: WaveguideParams, family: str) -> list[tuple[float, float]]:
    """Sorted, disjoint [start, stop] intervals of the f whose trajectory dies suddenly.

    A sample dies where both margins (:func:`margins`) fall below a relative floor
    e = DEATH_RTOL: |z| - sqrt(ad) < -e (|z| + sqrt(ad)), and alike in w, b, c; the samples
    are 1501 (1500 steps) over 6 / min(gamma_a, gamma_b).  The families keep w = 0, so at
    f < 1, where bc > |z|^2 holds, G = -sqrt(bc) is below its floor and F alone decides.  They
    are affine in f, so one propagation of the bracket's ends makes (1 + e)^2 |z|^2 - (1 - e)^2
    ad a quadratic in f at each sample; its two roots cut [lo, 1] into three segments, and the
    set is the union of those where it is negative.
    """
    if family not in F_LO:
        raise ValueError(f"unknown state family {family!r}")
    make, lo, hi = FAMILIES[family], F_LO[family], 1.0
    pr = replace(p, lambda_ratio=lambda_ratio)
    r = derive_rates(pr)
    t_max = 6.0 / min(r.gamma_a, r.gamma_b)
    _, ends = evolve_xstate(make(np.array([lo, hi])), r, pr, t_max, t_max / 1500)
    # a, d, Re z, Im z (FG_PAIRING[0]) per sample, at lo and hi; x = u + (f - lo) v
    x = np.moveaxis(ends, -1, 0)[list(FG_PAIRING[0])]
    (up, uq, ur, ui), (vp, vq, vr, vi) = x[..., 0], (x[..., 1] - x[..., 0]) / (hi - lo)
    grow, shrink = (1.0 + DEATH_RTOL) ** 2, (1.0 - DEATH_RTOL) ** 2
    # c_k: coefficient of (f - lo)^k in grow |z|^2 - shrink ad
    c2 = grow * (vr * vr + vi * vi) - shrink * (vp * vq)
    c1 = 2.0 * grow * (ur * vr + ui * vi) - shrink * (up * vq + uq * vp)
    c0 = grow * (ur * ur + ui * ui) - shrink * (up * uq)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN or inf where no root is finite
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        r0, r1 = np.minimum(np.fmax(lo + np.array([q / c2, c0 / q]), lo), hi)  # NaN: lo
    pts = np.array([np.full_like(q, lo), np.minimum(r0, r1), np.maximum(r0, r1),
                    np.full_like(q, hi)])  # per sample: lo, the two roots in order, hi
    s = 0.5 * (pts[1:] + pts[:-1]) - lo  # segment midpoints, as f - lo
    dead = (pts[1:] > pts[:-1]) & ((c2 * s + c1) * s + c0 < 0.0)
    # the union: sorted starts and sorted stops part where a stop precedes the next start
    starts, stops = np.sort(pts[:-1][dead]), np.sort(pts[1:][dead])
    gaps = np.flatnonzero(stops[:-1] < starts[1:])
    return list(zip(np.r_[starts[:1], starts[gaps + 1]].tolist(),
                    np.r_[stops[gaps], stops[-1:]].tolist()))


def esd_threshold(lambda_ratio: float, p: WaveguideParams, state_family: str,
                  tol: float = 0.005) -> float:
    """Fidelity below which the family dies suddenly: the stop of its :func:`death_set`.

    The family's lowest f when no f dies.  A set that is not one interval from there raises
    NonMonotoneError, naming its intervals.  The stop is exact on the grid: it meets any tol.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    spans, lo = death_set(lambda_ratio, p, state_family), F_LO[state_family]
    if len(spans) > 1 or spans and spans[0][0] != lo:
        raise NonMonotoneError(f"death set in f is not one interval from {lo}: "
                               + " U ".join(f"[{a:.7g}, {b:.7g}]" for a, b in spans))
    return spans[0][1] if spans else lo
