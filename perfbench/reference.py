"""Reference solutions and output checks, independent of the program's integrator.

Every generator here is constant in time, so rho(t) = expm(L t) rho(0)
exactly; the reference takes L from the public ``build_generator`` and
propagates with ``scipy.linalg.expm``.  Concurrence uses the general
Wootters formula on the full 4x4 matrix, not the X-state shortcut.
Basis: |b a> with qubit a the fast index; row-major vectorisation.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.linalg import expm

from workloads import GAMMA_MHZ, GAMMA_NR_MHZ

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)

#: emitted concurrence and matrix elements must match the reference to this
STATE_TOL = 1e-6
#: margins within this band of zero may be reported as either dead or alive
MARGIN_BAND = 1e-5
#: death must persist this many samples to count as clear
DEATH_HOLD = 5
#: program threshold against reference threshold (program reaches tol 5e-3)
THRESHOLD_TOL = 0.006
#: criterion 2 of the acceptance gate: Werner threshold at lambda/x2 = 2
WERNER_RATIO2 = (0.714, 0.005)
#: esd_threshold's ESD predicate: min unclamped margin below this
ESD_MARGIN = -1e-8
F_ACHIEVED_TOL = 0.005
MIN_FIDELITY = 0.999


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# --- states and concurrence ------------------------------------------------

def werner_rho(f: float) -> np.ndarray:
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    return (1 - f) / 3 * np.eye(4) + (4 * f - 1) / 3 * np.outer(singlet, singlet)


def pseudo_werner_rho(f: float) -> np.ndarray:
    rho = np.diag([f / 8, (1 + f) / 4, 3 * f / 8, 3 * (1 - f) / 4]).astype(complex)
    rho[1, 2] = 1j * np.sqrt(3) * f / 4
    rho[2, 1] = -1j * np.sqrt(3) * f / 4
    return rho


INITIAL = {"werner": werner_rho, "pw": pseudo_werner_rho}
#: lowest f of each family's esd_threshold bracket
FAMILY_F_LO = {"werner": 0.25, "pw": 1.0 / 3.0}


def wootters_margin(rhos: np.ndarray) -> np.ndarray:
    """Unclamped l1 - l2 - l3 - l4 for a stack of 4x4 density matrices."""
    r = rhos @ _YY @ rhos.conj() @ _YY
    lam = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lam = -np.sort(-lam, axis=-1)
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def concurrence(rhos: np.ndarray) -> np.ndarray:
    return np.clip(wootters_margin(rhos), 0.0, 1.0)


# --- propagation -------------------------------------------------------------

def generator(wgqed, ratio: float, delta_bare=0.0, g=0.0):
    p = wgqed.WaveguideParams(gamma=wgqed.mhz(GAMMA_MHZ), gamma_nr=wgqed.mhz(GAMMA_NR_MHZ),
                              lambda_ratio=ratio, delta_bare=wgqed.mhz(delta_bare),
                              g=wgqed.mhz(g))
    r = wgqed.derive_rates(p)
    return np.asarray(wgqed.build_generator(r, p)), r


def propagate_grid(gen: np.ndarray, rho0s: np.ndarray, dt: float, n: int) -> np.ndarray:
    """rho(k dt) for k = 0..n, for a stack of initial states: shape (n+1, m, 4, 4)."""
    step = expm(gen * dt)
    v = rho0s.reshape(len(rho0s), 16).T.astype(complex)
    out = np.empty((n + 1, 16, v.shape[1]), dtype=complex)
    out[0] = v
    for k in range(n):
        v = step @ v
        out[k + 1] = v
    return out.transpose(0, 2, 1).reshape(n + 1, -1, 4, 4)


# --- evolve --------------------------------------------------------------------

TRAJ_CHECK_POINTS = 5


def evolve_reference(wgqed, op: dict, t_max: float, sample_dt: float) -> dict:
    """Reference state at a few sample indices, from expm(L t) rho0 directly."""
    gen, _ = generator(wgqed, op["ratio"], op["delta_bare"], op["g"])
    n = int(round(t_max / sample_dt))
    idx = np.linspace(0, n, TRAJ_CHECK_POINTS).round().astype(int)
    rho0 = INITIAL[op["family"]](op["f"]).reshape(-1)
    rhos = np.array([(expm(gen * (k * sample_dt)) @ rho0).reshape(4, 4) for k in idx])
    return {"n": n, "dt": sample_dt, "idx": idx, "rho": rhos, "C": concurrence(rhos)}


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_evolve(text: str, fmt: str, ref: dict):
    if fmt == "json":
        payload = json.loads(text)
        columns, samples = payload["columns"], np.array(payload["samples"], dtype=float)
        final_c = payload["esd"]["final_concurrence"]
    else:
        columns, rows = parse_table(text)
        samples = np.array(rows, dtype=float)
        final_c = samples[-1, 1]
    require(columns[:2] == ["t_us", "C"], f"unexpected columns {columns}")
    require(samples.shape == (ref["n"] + 1, 10), f"got {samples.shape} samples")
    require(np.all(np.isfinite(samples)), "non-finite sample")
    require(abs(final_c - samples[-1, 1]) <= STATE_TOL, "final concurrence != last sample")
    for row, k, rho, c in zip(samples[ref["idx"]], ref["idx"], ref["rho"], ref["C"]):
        t, c_out, a, b, cc, d, zr, zi, wr, wi = row
        require(abs(t - k * ref["dt"]) <= 1e-9, f"sample {k} at t = {t}")
        require(abs(c_out - c) <= STATE_TOL, f"C({t:g}) = {c_out:.9g}, reference {c:.9g}")
        got = np.array([a, b, cc, d, zr + 1j * zi, wr + 1j * wi])
        want = np.array([rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3], rho[1, 2], rho[0, 3]])
        gap = float(np.max(np.abs(got - want)))
        require(gap <= STATE_TOL, f"state at t = {t:g} off the reference by {gap:.3g}")


# --- scan ------------------------------------------------------------------------

def scan_fs(spec: str) -> np.ndarray:
    start, stop, step = (float(s) for s in spec.split(":"))
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


def death_verdict(m: np.ndarray) -> tuple[int | None, list[int]]:
    """Expected died flag (None = either accepted) and indices of downward zero crossings.

    Died means: entangled (margin > band) and later dead (margin < -band for
    ``DEATH_HOLD`` samples).  No death means: margin never below +band once
    entangled, or never above -band at all.  Anything else lies in the band.
    """
    alive = np.flatnonzero(m > MARGIN_BAND)
    crossings = [i for i in range(len(m) - 1) if m[i] > 0 >= m[i + 1]]
    if len(alive) == 0:
        return (0 if m.max() < -MARGIN_BAND else None), crossings
    after = m[alive[0]:]
    dead = after < -MARGIN_BAND
    run = np.convolve(dead, np.ones(DEATH_HOLD, dtype=int), mode="valid")
    if np.any(run == DEATH_HOLD):
        return 1, crossings
    if after.min() > MARGIN_BAND:
        return 0, crossings
    return None, crossings


def scan_reference(wgqed, op: dict, fs: np.ndarray) -> dict:
    """Died verdict, zero crossings and final C per cell, on scan's default grid."""
    gen, _ = generator(wgqed, op["ratio"])
    t_max = 8.0 / wgqed.mhz(GAMMA_MHZ)
    dt, n = t_max / 1000.0, 1000
    rho0s = np.array([INITIAL[op["family"]](f) for f in fs])
    rhos = propagate_grid(gen, rho0s, dt, n)
    margins = wootters_margin(rhos.reshape(-1, 4, 4)).reshape(n + 1, len(fs))
    cells = []
    for j in range(len(fs)):
        died, crossings = death_verdict(margins[:, j])
        cells.append({"died": died, "cross_t": [dt * (i + 0.5) for i in crossings],
                      "C_final": float(max(margins[-1, j], 0.0))})
    return {"fs": fs, "dt": dt, "cells": cells}


def check_scan(text: str, op: dict, ref: dict):
    header, rows = parse_table(text)
    require(header == ["f", "lambda_ratio", "died", "revived", "t_death", "t_revival",
                       "C_final"], f"unexpected header {header}")
    require(len(rows) == len(ref["fs"]), f"{len(rows)} rows, expected {len(ref['fs'])}")
    for row, f, cell in zip(rows, ref["fs"], ref["cells"]):
        where = f"f={f:.2f}"
        require(abs(float(row[0]) - f) <= 1e-9 and abs(float(row[1]) - op["ratio"]) <= 1e-9,
                f"{where}: row labelled {row[:2]}")
        died = int(row[2])
        require(cell["died"] is None or died == cell["died"],
                f"{where}: died={died}, reference says {cell['died']}")
        if died and cell["died"] == 1:
            t_death = float(row[4])
            require(any(abs(t_death - t) <= 2 * ref["dt"] for t in cell["cross_t"]),
                    f"{where}: t_death {t_death:.6g} far from every reference crossing")
        require(abs(float(row[6]) - cell["C_final"]) <= STATE_TOL,
                f"{where}: C_final {row[6]}, reference {cell['C_final']:.9g}")


# --- esd_threshold --------------------------------------------------------------

def threshold_reference(wgqed, family: str, ratio: float, samples=1500, tol=1e-4) -> float:
    """Largest f showing ESD on esd_threshold's own sample grid, by bisection.

    The initial families are affine in f, so two propagations give rho(t; f)
    for every f on the grid.
    """
    gen, r = generator(wgqed, ratio)
    dt, n = 6.0 / min(r.gamma_a, r.gamma_b) / samples, samples
    make = INITIAL[family]
    base, slope = propagate_grid(gen, np.array([make(0.0), make(1.0) - make(0.0)]), dt, n
                                 ).transpose(1, 0, 2, 3)

    def has_esd(f):
        return wootters_margin(base + f * slope).min() < ESD_MARGIN

    lo = FAMILY_F_LO[family]
    grid = np.linspace(lo, 1.0, 21)
    flags = [has_esd(f) for f in grid]
    if all(flags):
        return 1.0
    if not any(flags):
        return lo
    k = len(flags) - 1 - flags[::-1].index(True)
    f_lo, f_hi = grid[k], grid[k + 1]
    while f_hi - f_lo > tol:
        mid = 0.5 * (f_lo + f_hi)
        f_lo, f_hi = (mid, f_hi) if has_esd(mid) else (f_lo, mid)
    return 0.5 * (f_lo + f_hi)


def check_threshold(value: float, op: dict, ref: float):
    require(np.isfinite(value), f"threshold {value}")
    require(abs(value - ref) <= THRESHOLD_TOL,
            f"threshold {value:.5f}, reference {ref:.5f}")
    if op["family"] == "werner" and op["ratio"] == 2.0:
        want, tol = WERNER_RATIO2
        require(abs(value - want) <= tol, f"Werner threshold at ratio 2: {value:.5f}")


# --- protocols ---------------------------------------------------------------------

def check_mix(payload: dict, op: dict, pulse: float):
    f = payload["f_achieved"]
    require(abs(f - op["f"]) <= F_ACHIEVED_TOL, f"f_achieved {f:.5f} for target {op['f']:.5f}")
    samples = np.array(payload["samples"], dtype=float)
    require(abs(samples[-1, 0] - (pulse + op["wait"])) <= 1e-6, "last sample time")
    require(np.max(np.abs(samples[:, 1] + samples[:, 2] - 1.0)) <= 1e-6, "trace drift")
    require(abs(samples[-1, 1] - f) <= 1e-9, "f_achieved != final rho_gg")


def check_prepare(payload: dict):
    fid = payload["fidelity_to_target"]
    require(fid >= MIN_FIDELITY, f"fidelity_to_target {fid:.6f}")
    rho = np.array(payload["rho_out"]["re"]) + 1j * np.array(payload["rho_out"]["im"])
    require(abs(np.trace(rho) - 1.0) <= 1e-6, "rho_out trace")
    require(np.max(np.abs(rho - rho.conj().T)) <= 1e-9, "rho_out not Hermitian")
    require(np.linalg.eigvalsh(rho).min() >= -1e-6, "rho_out not PSD")
