"""Unit tests for the rate formulas, Hamiltonian and Lindblad generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgqed.dynamics import off_x_leakage, x_matrix
from wgqed.model import (
    SM_A,
    SM_B,
    TWO_PI,
    WaveguideParams,
    build_generator,
    derive_rates,
    generator_coefficients,
    hamiltonian_at,
    lindblad_generator,
    mhz,
)
from wgqed.linalg import SIGMA_MINUS, SIGMA_X, hermiticity_defect
from wgqed.states import LOWERING_CBA, XY_BA
from xstate_oracles import (
    apply_generator,
    channel_generator,
    hand_expanded_generator,
    kron_lindblad_generator,
    random_xstate,
)

GAMMA = mhz(5.0)
GAMMA_NR = mhz(0.03)


def params(ratio, **kw):
    return WaveguideParams(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=ratio, **kw)


class TestDeriveRates:
    def test_phase_definition(self):
        assert derive_rates(params(4.0)).phi == pytest.approx(np.pi / 2)

    def test_node_ratio_quenches_everything(self):
        # at ratio 2 both qubits sit at field nodes: only intrinsic decay
        r = derive_rates(params(2.0))
        assert r.gamma_a == pytest.approx(GAMMA_NR)
        assert r.gamma_b == pytest.approx(GAMMA_NR)
        assert r.gamma_col == pytest.approx(0.0, abs=1e-12)
        assert r.g_x == pytest.approx(0.0, abs=1e-12)
        assert r.d_omega1 == pytest.approx(0.0, abs=1e-12)
        assert r.d_omega2 == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_at_three_halves(self):
        r = derive_rates(params(1.5))
        assert r.gamma_a == pytest.approx(GAMMA / 2 + GAMMA_NR)
        assert r.gamma_b == pytest.approx(2 * GAMMA + GAMMA_NR)
        assert r.gamma_col == pytest.approx(-GAMMA)
        assert r.g_x == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_at_six_fifths(self):
        r = derive_rates(params(1.2))
        assert r.gamma_a == pytest.approx(1.5 * GAMMA + GAMMA_NR)
        assert r.gamma_b == pytest.approx(GAMMA_NR)
        assert r.gamma_col == pytest.approx(0.0, abs=1e-9)
        assert r.g_x == pytest.approx(-np.sqrt(3) / 2 * GAMMA)

    def test_shift_formulas(self):
        r = derive_rates(params(1.3))
        phi = TWO_PI / 1.3
        assert r.d_omega1 == pytest.approx(GAMMA / 2 * np.sin(phi))
        assert r.d_omega2 == pytest.approx(GAMMA / 2 * np.sin(3 * phi))


class TestParamsValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="gamma must"):
            WaveguideParams(gamma=-1.0, gamma_nr=0.0, lambda_ratio=2.0)
        with pytest.raises(ValueError, match="gamma_nr"):
            WaveguideParams(gamma=1.0, gamma_nr=-1.0, lambda_ratio=2.0)
        with pytest.raises(ValueError, match="lambda_ratio"):
            WaveguideParams(gamma=1.0, gamma_nr=0.0, lambda_ratio=0.0)

    @pytest.mark.parametrize("field", ["gamma", "gamma_nr", "lambda_ratio", "delta_bare", "g"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, bad):
        kw = dict(gamma=1.0, gamma_nr=0.0, lambda_ratio=2.0, delta_bare=0.0, g=0.0)
        kw[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WaveguideParams(**kw)

    def test_mhz_conversion(self):
        assert mhz(1.0) == pytest.approx(TWO_PI)


class TestHamiltonian:
    def test_hermitian(self):
        p = params(1.3, delta_bare=mhz(0.5), g=mhz(2.0))
        h = hamiltonian_at(generator_coefficients(derive_rates(p), p))
        assert hermiticity_defect(h) < 1e-12

    def test_exchange_couples_single_excitations_only(self):
        p = params(1.2)
        h = hamiltonian_at(generator_coefficients(derive_rates(p), p))
        assert h[1, 2] == pytest.approx(derive_rates(p).g_x)
        assert h[0, 3] == 0 and h[0, 1] == 0 and h[0, 2] == 0

    def test_bare_detuning_splits_symmetrically(self):
        delta = mhz(1.0)
        p = params(2.0, delta_bare=delta)
        h = hamiltonian_at(generator_coefficients(derive_rates(p), p))
        # at ratio 2 the induced shifts vanish, only the bare detuning remains
        assert h[1, 1] - h[2, 2] == pytest.approx(delta)
        assert h[0, 0] + h[3, 3] == pytest.approx(0.0, abs=1e-12)

    def test_direct_coupling_adds_to_induced(self):
        p0, p1 = params(1.2), params(1.2, g=mhz(3.0))
        h0 = hamiltonian_at(generator_coefficients(derive_rates(p0), p0))
        h1 = hamiltonian_at(generator_coefficients(derive_rates(p1), p1))
        assert (h1 - h0)[1, 2] == pytest.approx(mhz(3.0))


class TestGenerator:
    @pytest.mark.parametrize("ratio", [2.0, 1.5, 1.3, 1.2])
    def test_trace_preserving(self, ratio):
        gen = build_generator(derive_rates(params(ratio)), params(ratio))
        trace_row = np.eye(4, dtype=complex).reshape(-1) @ gen
        assert np.max(np.abs(trace_row)) < 1e-10

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(5)
        p = params(1.3)
        gen = build_generator(derive_rates(p), p)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = a + a.conj().T
        out = apply_generator(gen, herm)
        assert hermiticity_defect(out) < 1e-10

    @pytest.mark.parametrize("ratio", [2.0, 1.5, 1.3, 1.2])
    def test_x_manifold_closure(self, ratio):
        rng = np.random.default_rng(11)
        p = params(ratio)
        gen = build_generator(derive_rates(p), p)
        for _ in range(10):
            rho = x_matrix(random_xstate(rng))
            assert off_x_leakage(apply_generator(gen, rho)) < 1e-12

    def test_plain_damping_generator(self):
        # single-qubit amplitude damping: d/dt rho_ee = -rate * rho_ee
        rate = 2.0
        gen = lindblad_generator(np.zeros((2, 2), dtype=complex), [SIGMA_MINUS], [[rate]])
        rho = np.diag([0.25, 0.75]).astype(complex)
        out = apply_generator(gen, rho)
        assert out[1, 1] == pytest.approx(-rate * 0.75)
        assert out[0, 0] == pytest.approx(rate * 0.75)

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(mhz(0.1), mhz(10.0)), gamma_nr=st.floats(0.0, mhz(1.0)),
           ratio=st.one_of(st.just(2.0), st.floats(0.5, 10.0)),
           delta_bare=st.floats(-mhz(5.0), mhz(5.0)), g=st.floats(-mhz(5.0), mhz(5.0)))
    @example(gamma=GAMMA, gamma_nr=GAMMA_NR, ratio=2.0, delta_bare=mhz(1.0), g=mhz(-2.0))
    @example(gamma=GAMMA, gamma_nr=GAMMA_NR, ratio=1.5, delta_bare=mhz(0.5), g=mhz(3.0))
    def test_rate_matrix_form_matches_hand_expanded_channels(self, gamma, gamma_nr, ratio,
                                                              delta_bare, g):
        # one dissipator over [[G_a, G_col], [G_col, G_b]] against two single-channel
        # dissipators plus the collective term written out; at ratio 2 G_col is 0.0.
        # gamma starts at 0.1 MHz so that max|gen| is not a subnormal number, whose
        # 1e-13 part would round to zero
        p = WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio,
                            delta_bare=delta_bare, g=g)
        r = derive_rates(p)
        gen = build_generator(r, p)
        ref = hand_expanded_generator(r, p)
        assert np.max(np.abs(gen - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=100, deadline=None)
    @given(gamma=st.floats(0.0, mhz(10.0)), gamma_nr=st.floats(0.0, mhz(1.0)),
           ratio=st.floats(0.5, 10.0), delta_bare=st.floats(-mhz(5.0), mhz(5.0)),
           g=st.floats(-mhz(20.0), mhz(20.0)), omega=st.floats(0.0, mhz(50.0)))
    def test_broadcast_products_equal_np_kron_exactly(self, gamma, gamma_nr, ratio,
                                                       delta_bare, g, omega):
        # the 16x16 waveguide generator, the 4x4 Rabi one and the 64x64 gate one
        p = WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio,
                            delta_bare=delta_bare, g=g)
        r = derive_rates(p)
        rates = [[r.gamma_a, r.gamma_col], [r.gamma_col, r.gamma_b]]
        for h, ops, g_ij in [
            (hamiltonian_at(generator_coefficients(r, p)), [SM_A, SM_B], rates),
            (omega / 2 * SIGMA_X, [SIGMA_MINUS], [[gamma_nr]]),
            (-g * XY_BA + delta_bare * np.diag(np.arange(8.0)), LOWERING_CBA,
             gamma_nr * np.eye(3)),
        ]:
            gen = lindblad_generator(h, ops, g_ij)
            assert gen.shape == (len(h) ** 2,) * 2
            assert (gen == kron_lindblad_generator(h, ops, g_ij)).all()

    def test_diagonal_rates_match_independent_channels(self):
        # the three-qubit gate generator: XY on b-a, damping of every qubit
        h = -mhz(10.0) * XY_BA + mhz(0.7) * np.diag(np.arange(8.0))
        gen = lindblad_generator(h, LOWERING_CBA, GAMMA_NR * np.eye(3))
        ref = channel_generator(h, [(GAMMA_NR, op) for op in LOWERING_CBA])
        assert np.max(np.abs(gen - ref)) <= 1e-13 * np.max(np.abs(ref))


def min_rate_eigval(r):
    """Smallest eigenvalue of [[Gamma_a, Gamma_col], [Gamma_col, Gamma_b]]."""
    rates = np.array([[r.gamma_a, r.gamma_col], [r.gamma_col, r.gamma_b]])
    return np.linalg.eigvalsh(rates).min()


class TestDissipationDiagnostic:
    def test_positive_when_collective_vanishes(self):
        assert min_rate_eigval(derive_rates(params(2.0))) == pytest.approx(GAMMA_NR)

    def test_reports_near_singular_collective_point(self):
        # at ratio 1.5 the collective rate nearly saturates the bound
        v = min_rate_eigval(derive_rates(params(1.5)))
        assert 0 < v < GAMMA

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(mhz(0.1), mhz(10.0)), gamma_nr=st.floats(0.0, mhz(1.0)),
           ratio=st.floats(0.5, 10.0))
    def test_min_eigval_at_least_intrinsic_rate(self, gamma, gamma_nr, ratio):
        # the rate matrix stays PSD (the generator is completely positive)
        # with gamma_nr to spare.  gamma starts at 0.1 MHz so that
        # eigvalsh's round-off, ~1e-16 of the largest rate, stays far
        # inside the 1e-9 * gamma allowance.
        r = derive_rates(WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio))
        assert min_rate_eigval(r) >= gamma_nr - 1e-9 * gamma
