"""Unit tests for initial states and the preparation/mixing protocols."""

import json

import numpy as np
import pytest

from wgqed.cli import EXIT_OK, main
from wgqed.dynamics import MAX_SAMPLES, grid_steps, x_matrix
from wgqed.linalg import SIGMA_X, check_density_matrix, fidelity, partial_trace
from wgqed.model import mhz
from wgqed.states import (
    FAMILIES,
    WAIT_CAP_US,
    PrepConfig,
    RabiConfig,
    mixed_qubit,
    prepare_pw,
    pseudo_werner,
    pw_vector,
    wait_time_for_f,
    werner,
    werner_vector,
)
from xstate_oracles import x_from_matrix


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_is_affine_in_f(name):
    # death_set interpolates two propagations, so every family must be
    # the straight line through any two of its states
    make, lo, hi = FAMILIES[name], 0.4, 1.0
    ends = np.array([make(lo), make(hi)])
    for f in (1.0 / 3.0, 0.5, 0.6789, 0.9):
        line = ends[0] + (f - lo) * (ends[1] - ends[0]) / (hi - lo)
        np.testing.assert_allclose(make(f), line, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name, matrix, grid", [
    ("werner", werner, [0.25, 1.0 / 3.0, 0.5, 0.714, 1.0, np.arange(0.3, 1.001, 0.1)[-1]]),
    ("pw", pseudo_werner, [0.0, 0.25, 1.0 / 3.0, 0.5, 0.714, 1.0]),
])
def test_family_vectors_are_the_matrices_bit_for_bit(name, matrix, grid):
    # one array of f gives the rows that one scalar call per f gives, signed zeros included,
    # and each row is what the family's matrix holds at its X indices
    fs = np.r_[grid, np.arange(0.3, 1.0, 0.05), np.linspace(0.25, 1.0, 31)]
    rows = FAMILIES[name](fs)
    assert rows.shape == (len(fs), 8)
    assert rows.tobytes() == np.array([FAMILIES[name](f) for f in fs]).tobytes()
    for f, row in zip(fs, rows):
        assert FAMILIES[name](f).shape == (8,)
        assert row.tobytes() == x_from_matrix(matrix(f)).tobytes()


@pytest.mark.parametrize("name, bad, message", [
    ("werner", 0.2, r"werner fidelity must be in \[0.25, 1\], got 0.2$"),
    ("werner", 1.1, r"werner fidelity must be in \[0.25, 1\], got 1.1$"),
    ("werner", np.nan, r"werner fidelity must be in \[0.25, 1\], got nan$"),
    ("pw", -0.1, r"pseudo-Werner fidelity must be in \[0, 1\], got -0.1$"),
])
def test_out_of_range_f_anywhere_in_an_array_is_named(name, bad, message):
    # the first f out of range is named as a scalar call names it; a later one is not
    for at in (0, 3, 7):
        fs = np.linspace(0.4, 0.9, 8)
        fs[at], fs[at + 1:] = bad, 5.0
        with pytest.raises(ValueError, match=message):
            FAMILIES[name](fs)
        with pytest.raises(ValueError, match=message):
            FAMILIES[name](bad)


class TestWerner:
    def test_valid_density_matrix(self):
        for f in (0.25, 0.5, 0.714, 1.0):
            check_density_matrix(werner(f))

    def test_matches_xstate_form(self):
        for f in np.linspace(0.25, 1.0, 7):
            np.testing.assert_allclose(werner(f), x_matrix(werner_vector(f)), atol=1e-14)

    def test_singlet_limit(self):
        rho = werner(1.0)
        psi = np.zeros(4)
        psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        np.testing.assert_allclose(rho, np.outer(psi, psi), atol=1e-14)

    def test_domain(self):
        for make in (werner, werner_vector):
            for f in (0.2, 1.1, 5.0):
                with pytest.raises(ValueError, match=r"werner fidelity must be in \[0.25, 1\]"):
                    make(f)
            make(np.arange(0.3, 1.001, 0.1)[-1])  # 1 + 2e-16: grid round-off is admitted


class TestPseudoWerner:
    def test_valid_density_matrix(self):
        for f in np.linspace(0.0, 1.0, 11):
            check_density_matrix(pseudo_werner(f))

    def test_element_values(self):
        f = 0.8
        rho = pseudo_werner(f)
        assert rho[0, 0] == pytest.approx(f / 8)
        assert rho[1, 1] == pytest.approx((1 + f) / 4)
        assert rho[2, 2] == pytest.approx(3 * f / 8)
        assert rho[3, 3] == pytest.approx(3 * (1 - f) / 4)
        assert rho[1, 2] == pytest.approx(1j * np.sqrt(3) * f / 4)

    def test_xstate_round_trip(self):
        for f in (0.0, 0.4, 1.0):
            np.testing.assert_allclose(x_matrix(pw_vector(f)), pseudo_werner(f), atol=1e-14)

    def test_domain(self):
        for make in (pseudo_werner, pw_vector):
            for f in (-0.1, 1.1):
                with pytest.raises(ValueError, match=r"pseudo-Werner fidelity must be in \[0, 1\]"):
                    make(f)
            make(np.arange(0.3, 1.001, 0.1)[-1])  # 1 + 2e-16: grid round-off is admitted


class TestPreparation:
    def test_initial_register_layout(self):
        res = prepare_pw(PrepConfig(f=0.8))
        # c ground, b excited, a mixed with ground weight f
        np.testing.assert_allclose(np.diag(res.rho1).real,
                                   [0, 0, 0.8, 0.2, 0, 0, 0, 0], atol=1e-14)

    def test_exact_output_matches_target(self):
        for f in (0.0, 0.3, 0.8, 1.0):
            res = prepare_pw(PrepConfig(f=f))
            np.testing.assert_allclose(res.rho_out, pseudo_werner(f), atol=1e-12)
            assert res.gate_durations_us is None

    def test_exact_fidelity_is_one_to_rounding(self):
        # rho_out is within a few ulps of the target; the fidelity lost 1.4e-14 at f = 0.93
        # when it took square roots of the squared spectrum of sqrt(rho) sigma sqrt(rho)
        for f in [*np.linspace(0.5, 0.95, 46), 0.93]:
            res = prepare_pw(PrepConfig(f=float(f)))
            assert 1.0 - fidelity(res.rho_out, pseudo_werner(float(f))) <= 2e-15, f

    def test_intermediate_states_are_physical(self):
        res = prepare_pw(PrepConfig(f=0.6))
        for rho in (res.rho1, res.rho2, res.rho3):
            check_density_matrix(rho)

    def test_tracing_other_qubits(self):
        # the auxiliary qubit is entangled with the pair after the second gate
        res = prepare_pw(PrepConfig(f=0.8))
        aux = partial_trace(partial_trace(res.rho3, "last"), "last")
        check_density_matrix(aux)
        assert aux[0, 0].real == pytest.approx(0.8 / 8 + 3 / 4)

    def test_dissipative_mode_close_to_target(self):
        res = prepare_pw(PrepConfig(f=0.8, with_dissipation=True))
        assert res.gate_durations_us is not None
        t1, t2 = res.gate_durations_us
        assert t1 == pytest.approx((np.pi / 4) / mhz(10.0))
        assert t2 == pytest.approx((np.pi / 6) / mhz(10.0))
        assert fidelity(res.rho_out, pseudo_werner(0.8)) > 0.999

    def test_config_validation(self):
        with pytest.raises(ValueError, match="fidelity must"):
            PrepConfig(f=1.5)
        with pytest.raises(ValueError, match="coupling strengths"):
            PrepConfig(f=0.5, with_dissipation=True, g_strength=0.0)

    @pytest.mark.parametrize("f", [-1e-17, 1.0000000000000002])
    def test_config_admits_the_family_range(self, f):
        # the pseudo-Werner family's range: [0, 1] and STRUCT_TOL past either end
        assert PrepConfig(f=f).f == f

    @pytest.mark.parametrize("dissipative", [False, True])
    def test_config_rejects_negative_gamma_nr(self, dissipative):
        # a negative rate amplifies: rho_out had eigenvalue -0.356 and fidelity 1.409
        with pytest.raises(ValueError, match="gamma_nr must be >= 0"):
            PrepConfig(f=0.7, with_dissipation=dissipative, gamma_nr=mhz(-5.0))

    @pytest.mark.parametrize("field", ["g_strength", "g_bc_strength", "gamma_nr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PrepConfig(f=0.7, with_dissipation=True, **{field: value})


class TestMixedQubit:
    # a fast intrinsic rate keeps these tests quick; the acceptance suite
    # runs the slow-rate protocol end to end
    FAST_NR = mhz(3.0)

    def test_long_pulse_reaches_half_mixture(self):
        times, states = mixed_qubit(RabiConfig(gamma_nr=self.FAST_NR, pulse_duration=2.0,
                                               sample_dt=0.002))
        assert times.shape == (len(states),) and states.shape == (len(times), 2, 2)
        assert states[-1, 0, 0].real == pytest.approx(0.5, abs=0.01)
        # steady-state drive coherence scales like gamma_nr / omega
        assert abs(states[-1, 1, 0]) < self.FAST_NR / mhz(30.0)

    def test_wait_reaches_target_population(self):
        wait = wait_time_for_f(0.8, self.FAST_NR)
        times, states = mixed_qubit(RabiConfig(gamma_nr=self.FAST_NR, pulse_duration=2.0,
                                               wait_duration=wait, sample_dt=0.002))
        assert times.shape == (len(states),) and states.shape == (len(times), 2, 2)
        assert states[-1, 0, 0].real == pytest.approx(0.8, abs=0.005)

    def test_final_flip_inverts_population(self, tmp_path):
        # mix --flip reads f off the unflipped run as the exact pi-pulse sigma_x rho sigma_x
        out = tmp_path / "mix.json"
        for gamma_nr, pulse, f in ((3.0, 2.0, 0.8), (1.5, 3.0, 0.6), (5.0, 0.7, 0.9)):
            wait = wait_time_for_f(f, mhz(gamma_nr))
            args = ["--gamma-nr", repr(gamma_nr), "--pulse", repr(pulse), "--wait", repr(wait),
                    "--sample-dt", "0.002"]
            assert main(["mix", *args, "--flip", "--format", "json", "--out", str(out)]) == EXIT_OK
            flipped = json.loads(out.read_text())["f_achieved"]
            _, states = mixed_qubit(RabiConfig(gamma_nr=mhz(gamma_nr), pulse_duration=pulse,
                                               wait_duration=wait, sample_dt=0.002))
            assert flipped.hex() == (SIGMA_X @ states[-1] @ SIGMA_X)[0, 0].real.hex()
            assert flipped == pytest.approx(1 - f, abs=0.01)

    def test_short_pulse_warns(self):
        with pytest.warns(UserWarning, match="pulse shorter"):
            mixed_qubit(RabiConfig(gamma_nr=self.FAST_NR, pulse_duration=0.05,
                                   sample_dt=0.002))

    def test_times_monotone_across_segments(self):
        times, states = mixed_qubit(RabiConfig(gamma_nr=self.FAST_NR, pulse_duration=1.0,
                                               wait_duration=0.3, sample_dt=0.01))
        assert times.shape == (131,) and states.shape == (131, 2, 2)
        assert np.all(np.diff(times) > 0)
        # the wait's samples continue from the pulse's last one, which ends it exactly
        assert times[100] == 1.0 and times[-1] == 1.0 + 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            RabiConfig(pulse_duration=-1.0)
        with pytest.raises(ValueError, match="sample_dt must be > 0"):
            RabiConfig(sample_dt=0.0)

    @pytest.mark.parametrize("field", ["omega", "gamma_nr", "pulse_duration",
                                       "wait_duration", "sample_dt"])
    def test_config_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RabiConfig(**{field: float("nan")})

    def test_config_rejects_an_infinite_last_sample_time(self):
        # each duration is finite, their sum overflows: no run may end its grid at inf
        with pytest.raises(ValueError, match=r"pulse_duration \+ wait_duration must be finite"):
            RabiConfig(pulse_duration=1e308, wait_duration=1e308)

    def test_sample_cap(self):
        # the longest wait wait_time_for_f allows fits the cap at the default
        # step; ten times that is refused before anything is propagated
        assert grid_steps(WAIT_CAP_US, RabiConfig().sample_dt) + 1 <= MAX_SAMPLES
        # the cap is per segment: the default pulse then that wait holds more in all
        cfg = RabiConfig(wait_duration=WAIT_CAP_US)
        steps = [grid_steps(d, cfg.sample_dt) for d in (cfg.pulse_duration, cfg.wait_duration)]
        assert 1 + sum(steps) == 1_003_501 > MAX_SAMPLES
        with pytest.raises(ValueError, match=f"limit is {MAX_SAMPLES}"):
            mixed_qubit(RabiConfig(wait_duration=10 * WAIT_CAP_US))


class TestWaitTime:
    def test_analytic_inversion(self):
        gnr = mhz(0.03)
        t = wait_time_for_f(0.8, gnr)
        assert np.exp(-gnr * t) / 2 == pytest.approx(0.2, abs=1e-12)

    def test_half_needs_no_wait(self):
        assert wait_time_for_f(0.5, 1.0) == 0.0

    def test_domain_and_cap(self):
        with pytest.raises(ValueError, match="f must"):
            wait_time_for_f(0.4, 1.0)
        with pytest.raises(ValueError, match="gamma_nr"):
            wait_time_for_f(0.8, 0.0)
        with pytest.raises(ValueError, match="cap"):
            wait_time_for_f(1.0 - 1e-12, 1e-3)

    @pytest.mark.parametrize("gamma_nr", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, gamma_nr):
        # nan gave a nan wait, inf a wait of 0
        with pytest.raises(ValueError, match="gamma_nr must be finite"):
            wait_time_for_f(0.7, gamma_nr)
