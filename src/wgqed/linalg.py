"""Dense complex linear algebra for 2-, 4- and 8-dimensional qubit spaces,
and the matrix exponential of the generators that act on them.

Conventions used throughout the package:

* basis ordering |0> = ground, |1> = excited;
* multi-qubit tensor products are row-major (left factor is the slow index),
  so for the a/b qubit pair the basis is |b a> with a varying fastest, and
  for the three-qubit register it is |c b a>;
* structural checks (trace, hermiticity, positivity) use ``STRUCT_TOL``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

STRUCT_TOL = 1e-9

I2 = np.eye(2, dtype=complex)

# |0> = ground, |1> = excited: sigma_minus lowers the excitation
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
# z-axis convention: excited state has eigenvalue +1, so a positive
# frequency coefficient raises the excited-state energy
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, left factor the slow index: np.kron's products."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def tensor_all(*ops: np.ndarray) -> np.ndarray:
    return functools.reduce(tensor, ops)


# two-qubit exchange operator on |left right>, swaps |01> and |10>
XY_EXCHANGE = tensor(SIGMA_MINUS, SIGMA_PLUS) + tensor(SIGMA_PLUS, SIGMA_MINUS)


def sector(n_qubits: int, q: int) -> np.ndarray:
    """Row-major vec(rho) indices of the |i><j| with n(i) - n(j) = q, n the excitation number.
    A Lindbladian whose H conserves n and whose jumps lower it by one keeps each sector q."""
    n = np.array([bin(i).count("1") for i in range(2**n_qubits)])
    return np.flatnonzero(np.subtract.outer(n, n) == q)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate finiteness, trace, hermiticity and positivity to STRUCT_TOL; returns the input."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():  # NaN would pass every tolerance test below
        raise ValueError("density matrix has non-finite elements")
    tr = np.trace(rho)
    if abs(tr - 1.0) > STRUCT_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond tolerance {STRUCT_TOL}")
    defect = hermiticity_defect(rho)
    if defect > STRUCT_TOL:
        raise ValueError(f"density matrix not Hermitian: max asymmetry {defect:.3e}")
    lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if lo < -STRUCT_TOL:
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
    out = np.trace(rho.reshape((2,) * (2 * n)), axis1=k, axis2=n + k)
    return out.reshape(2 ** (n - 1), -1)


def _pade_rows(m: int) -> np.ndarray:
    """Coefficients of the [m/m] Padé approximant p(A)/p(-A) to exp(A).

    Over the even powers I, A^2, A^4, ..., row 0 sums to u/A and row 1 to
    v, so that p(A) = v + u and p(-A) = v - u.  They are scaled to
    p(0) = 1, not to the textbook b_0 = (2m)!/m!, so v - u = I + O(A).
    """
    f = math.factorial
    b = [f(2 * m - k) * f(m) / (f(2 * m) * f(k) * f(m - k)) for k in range(m + 1)]
    return np.array([b[1::2], b[0::2]])


#: (m, theta_m, rows): the Padé degrees tried in turn, the largest ||A||_1 for
#: which each is accurate in double precision (Higham 2005, Table 2.3; for
#: degree 13 the bound on eta that a / 2^s meets, Al-Mohy & Higham 2009), and
#: its :func:`_pade_rows`
PADE = [(m, theta, _pade_rows(m)) for m, theta in (
    (3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 4.25))]
#: log2 of |c_27| / u: the leading coefficient of exp(x) - r_13(x) over the unit roundoff
LOG2_C27_OVER_U = 53 - math.log2(math.factorial(26) * math.factorial(27) / math.factorial(13) ** 2)


def _onenorm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _even_powers(a: np.ndarray, k: int) -> np.ndarray:
    """I, a^2, a^4, ..., a^(2k-2) as one (k, n, n) array."""
    n = len(a)
    p = np.empty((k, n, n), dtype=np.result_type(a, 1.0))
    p[0] = np.eye(n)
    np.matmul(a, a, out=p[1])
    for j in range(2, k):
        np.matmul(p[j - 1], p[1], out=p[j])
    return p


def _extra_squarings(a: np.ndarray, norm: float, s: int) -> int:
    """Al-Mohy & Higham's ell(a / 2^s, 13): the squarings to add where rounding
    in the degree-13 evaluation would exceed its truncation error.

    The 27th power is taken of |a| / ||a||_1, which has unit 1-norm, so it
    cannot overflow; the scale 2^-s cancels in that ratio.
    """
    power_norm = np.linalg.matrix_power(np.abs(a) / norm, 27).sum(axis=0).max()
    if power_norm == 0:
        return 0
    log2_ratio = math.log2(power_norm) + 26 * (math.log2(norm) - s) + LOG2_C27_OVER_U
    return max(math.ceil(log2_ratio / 26), 0)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square float or complex array, in numpy alone.

    Padé scaling and squaring: for every degree m, the even-power rows of the
    [m/m] approximant are evaluated at a / 2^s and the result squared s times.
    Degree m in 3, 5, 7, 9 is used with s = 0 when ||a||_1 <= theta_m (Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005).  Otherwise degree 13 only chooses
    s, from the exact 1-norms of a's unscaled powers plus ell (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31(3), 2009), so an a whose powers overflow
    gives an all-NaN result rather than an exception.

    The squarings act on e = r - I, not on the Padé value r itself, so
    their rounding scales with e: a column that a generator leaves fixed
    stays exact, and a slow mode of a stiff generator keeps its trace.
    """
    a = np.asarray(a)
    n, norm = len(a), _onenorm(a)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in NaN
        m, theta, rows = next((d for d in PADE if norm <= d[1]), PADE[-1])
        s = 0
        if m == 13:
            p = _even_powers(a, 4)
            d6, d8 = _onenorm(p[3]) ** (1 / 6), _onenorm(p[2] @ p[2]) ** (1 / 8)
            # eta = min(max(d6, d8), max(d8, d10)), below max(d6, d8) only if d8 < d6
            eta = max(d6, d8)
            if d8 < d6:
                eta = min(eta, max(d8, _onenorm(p[2] @ p[3]) ** (1 / 10)))
            if not math.isfinite(eta):
                return np.full(a.shape, np.nan, dtype=p.dtype)
            s = max(math.ceil(math.log2(eta / theta)), 0) if eta > 0 else 0
            s += _extra_squarings(a, norm, s)
            a = a * 2.0 ** -s
        p = _even_powers(a, rows.shape[1])
        u, v = (rows @ p.reshape(len(p), -1)).reshape(2, n, n)
        u = a @ u
        # r - I = (v - u)^-1 2u; (I + e)^2 - I = e (e + 2I)
        e, two = np.linalg.solve(v - u, u + u), 2 * p[0]
        for _ in range(s):
            e = e @ (e + two)
    return e + p[0]


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr |sqrt(rho) sqrt(sigma)|)^2, clipped to [0, 1]: the squared sum of
    the singular values of sqrt(rho) sqrt(sigma), whose round-off stays relative near F = 1, where
    the spectrum of sqrt(rho) sigma sqrt(rho), the square of theirs, loses u / (2 lambda_min)."""
    roots = []
    for m in (rho, sigma):
        m = np.asarray(m, dtype=complex)
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        roots.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)
    s = np.linalg.svd(roots[0] @ roots[1], compute_uv=False)
    return float(np.clip(np.sum(s) ** 2, 0.0, 1.0))
