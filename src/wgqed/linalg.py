"""Dense complex linear algebra for 2-, 4- and 8-dimensional qubit spaces.

Conventions used throughout the package:

* basis ordering |0> = ground, |1> = excited;
* multi-qubit tensor products are row-major (left factor is the slow index),
  so for the a/b qubit pair the basis is |b a> with a varying fastest, and
  for the three-qubit register it is |c b a>;
* structural checks (trace, hermiticity, positivity) use ``STRUCT_TOL``.
"""

from __future__ import annotations

import numpy as np

STRUCT_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# |0> = ground, |1> = excited: sigma_minus lowers the excitation
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
# z-axis convention: excited state has eigenvalue +1, so a positive
# frequency coefficient raises the excited-state energy
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the slow index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_all(*ops: np.ndarray) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = tensor(out, op)
    return out


# two-qubit exchange operator on |left right>, swaps |01> and |10>
XY_EXCHANGE = tensor(SIGMA_MINUS, SIGMA_PLUS) + tensor(SIGMA_PLUS, SIGMA_MINUS)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def check_density_matrix(rho: np.ndarray, tol: float = STRUCT_TOL) -> np.ndarray:
    """Validate trace, hermiticity and positivity; returns the input."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} deviates from 1 beyond tolerance {tol}")
    defect = hermiticity_defect(rho)
    if defect > tol:
        raise ValueError(f"density matrix not Hermitian: max asymmetry {defect:.3e}")
    lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if lo < -tol:
        raise ValueError(f"density matrix not PSD: min eigenvalue {lo:.3e}")
    return rho


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace one qubit out of a 2- or 3-qubit density matrix.

    ``subsystem`` selects the traced qubit by tensor position: ``"first"``
    (slowest index), ``"middle"`` (3-qubit registers only) or ``"last"``.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    if 2**n != dim or n not in (2, 3):
        raise ValueError(f"partial_trace expects a 4- or 8-dimensional matrix, got dim {dim}")
    positions = {"first": 0, "middle": 1, "last": n - 1}
    if subsystem not in positions:
        raise ValueError(f"unknown subsystem {subsystem!r}")
    if subsystem == "middle" and n != 3:
        raise ValueError("'middle' requires a 3-qubit register")
    k = positions[subsystem]
    t = rho.reshape((2,) * (2 * n))
    out = np.trace(t, axis1=k, axis2=n + k)
    d = 2 ** (n - 1)
    return out.reshape(d, d)


def expm_skew(h: np.ndarray, theta: float, sign: int = +1) -> np.ndarray:
    """Unitary exp(i * sign * theta * h) for Hermitian h, by spectral decomposition."""
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > STRUCT_TOL:
        raise ValueError(f"generator is not Hermitian: max asymmetry {defect:.3e}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(1j * sign * theta * vals)
    return (vecs * phases) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)
