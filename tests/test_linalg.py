"""Unit tests for the qubit linear-algebra helpers."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed.dynamics import xstate_generator_matrix
from wgqed.linalg import (
    I2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    XY_EXCHANGE,
    check_density_matrix,
    expm,
    fidelity,
    partial_trace,
    tensor,
    tensor_all,
)
from wgqed.model import WaveguideParams, build_generator, derive_rates, lindblad_generator, mhz
from wgqed.states import LOWERING_CBA, XY_BA, XY_CB
from xstate_oracles import NON_FINITE

RNG = np.random.default_rng(1234)


def random_density(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestTensor:
    def test_matches_kron(self):
        a, b = RNG.normal(size=(2, 2)), RNG.normal(size=(4, 4))
        np.testing.assert_allclose(tensor(a, b), np.kron(a, b))

    @pytest.mark.parametrize("shape_a, shape_b", [((2, 2), (4, 4)), ((8, 8), (8, 8)),
                                                  ((2, 3), (4, 1)), ((1, 5), (3, 2))])
    def test_equals_kron_exactly(self, shape_a, shape_b):
        a = RNG.normal(size=shape_a) + 1j * RNG.normal(size=shape_a)
        b = RNG.normal(size=shape_b) + 1j * RNG.normal(size=shape_b)
        assert (tensor(a, b) == np.kron(a, b)).all()
        assert tensor(a, b).shape == np.kron(a, b).shape

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

    @pytest.mark.parametrize("rho", NON_FINITE.values(), ids=list(NON_FINITE))
    def test_rejects_non_finite(self, rho):
        # NaN passes every tolerance comparison, and eigvalsh does not converge on it
        with pytest.raises(ValueError, match="non-finite"):
            check_density_matrix(rho)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]),
           st.floats(0.0, 1e-6), st.floats(0.0, 1e-6))
    def test_near_pure_states_stay_in_unit_interval(self, seed, dim, mix_rho, mix_sigma):
        # nearly equal near-pure states, where the squared root sum rounds above 1
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        rho, sigma = ((1 - m) * pure + m * np.eye(dim) / dim for m in (mix_rho, mix_sigma))
        assert 0.0 <= fidelity(rho, sigma) <= 1.0


def log_uniform(lo, hi):
    """Floats spread evenly over the decades from lo to hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def waveguide_generator(ratio, gamma_mhz):
    """The 16x16 generator at gamma_nr = 0.03 MHz."""
    p = WaveguideParams(gamma=mhz(gamma_mhz), gamma_nr=mhz(0.03), lambda_ratio=ratio)
    return build_generator(derive_rates(p), p)


def x_generator(ratio, gamma_mhz):
    return xstate_generator_matrix(waveguide_generator(ratio, gamma_mhz))


def exact_expm(a):
    """exp(a) in 34-digit arithmetic, rounded to double."""
    with mpmath.workdps(34):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def trace_defect(x):
    """Largest deviation of an X propagator's population rows from trace
    preservation: they sum to 1 in the population columns, 0 in the coherence ones."""
    return np.abs(x[:4].sum(axis=0) - [1, 1, 1, 1, 0, 0, 0, 0]).max()


RATIO = st.floats(1.05, 3.0)
DT = log_uniform(2.5e-4, 0.5)
# scipy.linalg.expm is the oracle up to 10x the paper's 5 MHz coupling.  Beyond
# that it drifts itself near lambda/x2 = 2 (by 1.1e-13 at 100 MHz and 7.5e-13
# at 3.8 GHz), so larger rates are checked against mpmath instead.
GAMMA = log_uniform(0.1, 50.0)


class TestExpm:
    @settings(max_examples=40, deadline=None)
    @given(ratio=RATIO, gamma=GAMMA, dt=DT)
    def test_waveguide_generators_match_scipy(self, ratio, gamma, dt):
        gen = waveguide_generator(ratio, gamma)
        for a in (xstate_generator_matrix(gen) * dt, gen * dt):  # 8x8 real, 16x16 complex
            assert np.abs(expm(a) - scipy.linalg.expm(a)).max() < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(omega=log_uniform(0.1, 300.0), gamma_nr=log_uniform(1e-3, 10.0), dt=DT,
           driven=st.booleans())
    def test_mix_segments_match_scipy(self, omega, gamma_nr, dt, driven):
        h = mhz(omega) / 2 * SIGMA_X if driven else np.zeros((2, 2), dtype=complex)
        a = lindblad_generator(h, [SIGMA_MINUS], [[mhz(gamma_nr)]]) * dt
        assert np.abs(expm(a) - scipy.linalg.expm(a)).max() < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(g=log_uniform(1.0, 100.0), gamma_nr=st.floats(0.0, 1.0), second=st.booleans())
    def test_dissipative_gates_match_scipy(self, g, gamma_nr, second):
        # the 64x64 generators of prepare --dissipative, over one gate time
        xy, angle = (XY_CB, np.pi / 6) if second else (XY_BA, np.pi / 4)
        gen = lindblad_generator(-mhz(g) * xy, LOWERING_CBA, mhz(gamma_nr) * np.eye(3))
        a = gen * (angle / mhz(g))
        assert np.abs(expm(a) - scipy.linalg.expm(a)).max() < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(ratio=RATIO, gamma=log_uniform(0.1, 1e12), dt=DT)
    def test_matches_the_exact_exponential_up_to_stiff_rates(self, ratio, gamma, dt):
        # many squarings carry round-off from the fast modes into the slow
        # ones: the worst of 1300 draws with ||a||_1 > theta_9 was 4.3e-12
        # (scipy: 5.4e-12), and near lambda/x2 = 2 above 1e11 MHz the trace
        # lost reached 1.4e-11 in 1300 draws (scipy: 2.7e-11)
        a = x_generator(ratio, gamma) * dt
        assert np.abs(expm(a) - exact_expm(a)).max() < 1e-9

    def test_exact_where_scipy_drifts(self):
        a = x_generator(1.998, 3800.0) * 0.44
        assert np.abs(expm(a) - exact_expm(a)).max() < 1e-14  # scipy: 7.5e-13

    def test_stiff_generator_keeps_its_trace(self):
        # 42 squarings: squaring the Padé value with textbook coefficients
        # (b_0 = 26!/13!) loses 4.9e-4 of the trace here
        a = x_generator(1.5, 1e12) * 0.5
        x = expm(a)
        assert trace_defect(x) < 1e-14
        assert np.abs(x - scipy.linalg.expm(a)).max() < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(ratio=RATIO, gamma=GAMMA, dt=DT)
    def test_semigroup(self, ratio, gamma, dt):
        a = x_generator(ratio, gamma) * dt
        x = expm(a)
        assert np.abs(x @ x - expm(2 * a)).max() < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(ratio=RATIO, gamma=log_uniform(0.1, 10.0), dt=log_uniform(2.5e-4, 0.1))
    def test_population_columns_sum_to_one(self, ratio, gamma, dt):
        # each squaring adds about one unit of round-off: at 30 MHz x 0.5 us
        # the sums are off by up to 2.6e-14
        assert trace_defect(expm(x_generator(ratio, gamma) * dt)) < 1e-14

    def test_huge_generator_stays_finite(self):
        # ||a||_1 = 1.9e35: s comes from a's powers up to a^10, formed unscaled, which
        # stay finite; powers up to a^12 would overflow from ||a||_1 of about 4e25
        x = expm(x_generator(1.5, 1e34) * 0.5)
        assert np.isfinite(x).all() and trace_defect(x) < 1e-14

    def test_overflowing_powers_give_nan_without_raising(self):
        # the propagator reports this as a numerical failure (exit 3); with
        # warnings as errors this also checks that no RuntimeWarning escapes
        x = expm(x_generator(1.5, 1e300) * 0.5)
        assert x.shape == (8, 8) and not np.isfinite(x).any()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_and_diagonal(self, n):
        np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))
        d = np.linspace(-3.0, 2.0, n)
        np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14)
