"""Host-speed probe: a fixed kernel doing the kinds of work the program does.

Other tenants of a shared host slow this one by up to ~2x, for stretches
that last minutes, longer than a run.  No repetition inside a run escapes
such a stretch, so op times are divided by the host's slowdown, read from
this kernel, which the worker times between every two ops (see
``stats.host_slowdown``).  The kernel belongs to the benchmark, not to the
program: nothing a change to ``wgqed`` does can alter it.  It uses only
numpy and the standard library, so it adds no import the program might
drop.

The mix follows the program's hot paths: explicit Runge-Kutta steps on a
small complex linear system (numpy calls with Python overhead around
them, as in ``dynamics``), a per-sample Python loop over floats (as in
``entangle``), and CSV/JSON formatting of the samples (as in ``cli``).
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

#: the kernel's time that defines reference host speed: about its fastest
#: on a 2-vCPU KVM guest on a Xeon (Sapphire Rapids) in a quiet stretch,
#: with Python 3.11.7 and numpy 2.4.6
REFERENCE_S = 0.010
STEPS = 450
DIM = 16


def _system() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2022)
    a = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    # anti-Hermitian part plus damping: a bounded, decaying trajectory
    gen = 0.5 * (a - a.conj().T) - 0.2 * np.eye(DIM)
    y0 = rng.standard_normal(DIM) + 0j
    return gen, y0 / np.linalg.norm(y0)


_GEN, _Y0 = _system()


def kernel() -> float:
    """One fixed unit of work; returns a number so that nothing is skipped."""
    h = 0.01
    y = _Y0
    samples = []
    for _ in range(STEPS):
        k1 = _GEN @ y
        k2 = _GEN @ (y + 0.5 * h * k1)
        k3 = _GEN @ (y + 0.5 * h * k2)
        k4 = _GEN @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        samples.append([float(v) for v in np.abs(y[:8]) ** 2])
    margin = 0.0
    for row in samples:
        a, b, c, d = row[0], row[1], row[2], row[3]
        margin = max(margin, 2.0 * max(0.0, abs(a - b) - (c * d) ** 0.5))
    text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in samples)
    text += json.dumps({"samples": samples})
    return margin + len(text)


def timed_kernel() -> float:
    t = perf_counter()
    kernel()
    return perf_counter() - t
