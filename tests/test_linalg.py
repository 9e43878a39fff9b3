"""Unit tests for the qubit linear-algebra helpers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed.linalg import (
    I2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    XY_EXCHANGE,
    check_density_matrix,
    expm_skew,
    fidelity,
    partial_trace,
    tensor,
    tensor_all,
)

RNG = np.random.default_rng(1234)


def random_density(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestTensor:
    def test_matches_kron(self):
        a, b = RNG.normal(size=(2, 2)), RNG.normal(size=(4, 4))
        np.testing.assert_allclose(tensor(a, b), np.kron(a, b))

    def test_left_factor_is_slow_index(self):
        # |1><1| (x) I acts on the left (slow) qubit
        proj = np.diag([0.0, 1.0])
        out = tensor(proj, I2)
        np.testing.assert_allclose(out, np.diag([0, 0, 1, 1]))

    def test_tensor_all_three_factors(self):
        out = tensor_all(SIGMA_Z, I2, SIGMA_X)
        np.testing.assert_allclose(out, np.kron(np.kron(SIGMA_Z, I2), SIGMA_X))


class TestPauli:
    def test_ladder_operators(self):
        ground, excited = np.array([1, 0]), np.array([0, 1])
        np.testing.assert_allclose(SIGMA_MINUS @ excited, ground)
        np.testing.assert_allclose(SIGMA_PLUS @ ground, excited)

    def test_z_sign_convention(self):
        # excited state carries eigenvalue +1
        assert SIGMA_Z[1, 1] == 1 and SIGMA_Z[0, 0] == -1

    def test_xy_exchange_swaps_single_excitations(self):
        v01 = np.zeros(4)
        v01[1] = 1.0  # right qubit excited
        out = XY_EXCHANGE @ v01
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(out, expected)
        # doubly excited and ground states are annihilated
        for k in (0, 3):
            v = np.zeros(4)
            v[k] = 1.0
            np.testing.assert_allclose(XY_EXCHANGE @ v, 0 * v)


class TestCheckDensityMatrix:
    def test_accepts_valid(self):
        rho = random_density(4)
        assert check_density_matrix(rho) is rho

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            check_density_matrix(rho)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_density_matrix(np.ones((2, 3)))


class TestPartialTrace:
    def test_recovers_product_factors(self):
        left, right = random_density(2), random_density(2)
        rho = tensor(left, right)
        np.testing.assert_allclose(partial_trace(rho, "first"), right, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, "last"), left, atol=1e-12)

    def test_three_qubit_middle(self):
        a, b, c = (random_density(2) for _ in range(3))
        rho = tensor_all(a, b, c)
        np.testing.assert_allclose(partial_trace(rho, "middle"), tensor(a, c),
                                   atol=1e-12)

    def test_preserves_trace(self):
        rho = random_density(8)
        for sub in ("first", "middle", "last"):
            out = partial_trace(rho, sub)
            np.testing.assert_allclose(np.trace(out), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="4- or 8-dimensional"):
            partial_trace(np.eye(2), "first")
        with pytest.raises(ValueError, match="unknown subsystem"):
            partial_trace(np.eye(4), "top")
        with pytest.raises(ValueError, match="3-qubit"):
            partial_trace(np.eye(4), "middle")


class TestExpmSkew:
    def test_matches_scipy(self):
        h = random_density(4) * 3
        h = h + h.conj().T
        theta = 0.7
        for t in (theta, -theta):
            expected = scipy.linalg.expm(1j * t * h)
            np.testing.assert_allclose(expm_skew(h, t), expected, atol=1e-12)

    def test_unitary(self):
        u = expm_skew(XY_EXCHANGE, np.pi / 5)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            expm_skew(SIGMA_MINUS, 1.0)


class TestFidelity:
    def test_pure_state_overlap(self):
        psi = np.array([1, 0], dtype=complex)
        phi = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
        rho, sigma = np.outer(psi, psi.conj()), np.outer(phi, phi.conj())
        np.testing.assert_allclose(fidelity(rho, sigma),
                                   abs(psi.conj() @ phi) ** 2, atol=1e-12)

    def test_self_fidelity_is_one(self):
        rho = random_density(4)
        np.testing.assert_allclose(fidelity(rho, rho), 1.0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(4, rng), random_density(4, rng)
        f1, f2 = fidelity(rho, sigma), fidelity(sigma, rho)
        assert abs(f1 - f2) < 1e-9
        assert -1e-12 <= f1 <= 1 + 1e-9
