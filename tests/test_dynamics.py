"""Unit tests for X vectors, their matrices and master-equation propagation."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wgqed
from wgqed.cli import EXIT_USAGE, parse_range
from wgqed.cli import main as cli_main
from wgqed.dynamics import (
    MAX_SAMPLES,
    IntegrationError,
    InvariantViolation,
    evolve_full,
    evolve_xstate,
    off_x_leakage,
    propagate,
    sample_times,
    x_matrix,
    xstate_basis,
    xstate_generator_matrix,
    xstate_violation,
)
from wgqed.entangle import margins
from wgqed.linalg import SIGMA_MINUS, SIGMA_X, STRUCT_TOL
from wgqed.model import (WaveguideParams, build_generator, derive_rates, generator_coefficients,
                         lindblad_generator, mhz)
from xstate_oracles import (
    apply_generator,
    kinetics_discrepancy,
    random_xstate,
    x_from_matrix,
    x_vector,
    xstate_generator_by_basis,
    xstate_rhs,
    xstate_violation_by_rows,
)

GAMMA = mhz(5.0)
GAMMA_NR = mhz(0.03)


def params(ratio, **kw):
    return WaveguideParams(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=ratio, **kw)


#: where a row sits against a bound: -offset, -offset/2, offset/2 or offset from it, plus
#: round-off; an offset of STRUCT_TOL puts it at the edge of what the checks admit
OFFSET_STEPS = (-1.0, -0.5, 0.5, 1.0)
#: the offsets: on the bound, at the checks' tolerance, and past it
OFFSETS = (0.0, STRUCT_TOL, 1e-8, 1e-3)
NUDGES = (-1e-15, -2e-16, 0.0, 2e-16, 1e-15)
EDGE_KINDS = ("valid", "trace", "low", "high", "z", "w")


def edge_row(kind, offset, step, nudge, k=0, cuts=(16, 32, 48), angle=0.7):
    """An X state that is valid, or has one condition (trace, population k low or high,
    |z|^2 - bc or |w|^2 - ad) at step * offset + nudge from its bound and the others kept.
    Populations from cuts are multiples of 1/64, so that their sum is exactly 1 and the
    trace check does not mask the others."""
    x = np.zeros(8)
    x[:4] = np.diff([0, *sorted(cuts), 64]) / 64
    at = step * offset + nudge
    if kind in ("low", "high"):  # the other populations keep the trace at 1
        x[:4] = 0.0
        x[k] = -offset + nudge if kind == "low" else 1.0 + offset + nudge
        x[[(k + 1) % 4, (k + 2) % 4]] = (1.0 - x[k]) / 2
        return x
    if kind == "trace":
        x[k] += at
    for name, i, j, re in (("z", 1, 2, 4), ("w", 0, 3, 6)):  # |z|^2 from bc, |w|^2 from ad
        square = x[i] * x[j] + at if kind == name else 0.81 * max(x[i] * x[j], 0.0)
        x[re], x[re + 1] = np.sqrt(max(square, 0.0)) * np.array([np.cos(angle), np.sin(angle)])
    return x


@st.composite
def edge_rows(draw, offset):
    """edge_row with drawn arguments, or with one element made NaN or infinite."""
    x = edge_row(draw(st.sampled_from(EDGE_KINDS)), offset, draw(st.sampled_from(OFFSET_STEPS)),
                 draw(st.sampled_from(NUDGES)), draw(st.integers(0, 3)),
                 draw(st.lists(st.integers(0, 64), min_size=3, max_size=3)),
                 draw(st.floats(0.0, 2 * np.pi)))
    if draw(st.booleans()):
        x[draw(st.integers(0, 7))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


def refusal(x) -> str | None:
    """The reason ``xstate_violation`` gives for one X vector, or None."""
    bad = xstate_violation(x)
    return None if bad is None else bad[1]


class TestXState:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        xs = np.array([random_xstate(rng) for _ in range(50)])
        for x in xs:
            assert np.array_equal(x_from_matrix(x_matrix(x)), x)
        assert np.array_equal(x_matrix(xs), [x_matrix(x) for x in xs])

    def test_matrix_layout(self):
        m = x_matrix(x_vector(0.4, 0.3, 0.2, 0.1, z=0.1j, w=0.05))
        assert m[1, 2] == 0.1j and m[2, 1] == -0.1j
        assert m[0, 3] == 0.05 and m[3, 0] == 0.05
        assert off_x_leakage(m) == 0.0
        # written by index: a NaN stays in its element and its conjugate's
        m = x_matrix(x_vector(0.4, 0.3, 0.2, 0.1, z=complex(np.nan, 0.1)))
        assert np.argwhere(np.isnan(m)).tolist() == [[1, 2], [2, 1]]

    def test_validate_accepts_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            assert refusal(random_xstate(rng)) is None

    def test_validate_rejects_bad_trace(self):
        assert re.search("sum to", refusal(x_vector(0.5, 0.5, 0.5, 0.5)))

    def test_validate_rejects_negative_population(self):
        assert re.search("outside", refusal(x_vector(-0.1, 0.6, 0.3, 0.2)))

    def test_validate_rejects_oversized_coherence(self):
        assert re.search("inner block", refusal(x_vector(0.25, 0.25, 0.25, 0.25, z=0.5)))
        assert re.search("outer block", refusal(x_vector(0.25, 0.25, 0.25, 0.25, w=0.5)))

    @pytest.mark.parametrize("field", ["a", "b", "c", "d", "z", "w"])
    def test_validate_rejects_non_finite(self, field):
        x = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
        x[field] = complex(float("nan"), 0.0) if field in "zw" else float("inf")
        assert re.search(f"element {field}=.* is not finite", refusal(x_vector(**x)))

    def test_violation_names_first_bad_row_and_condition(self):
        rng = np.random.default_rng(4)
        xs = np.array([random_xstate(rng) for _ in range(6)])
        assert xstate_violation(xs) is None
        xs[4, 1] += 0.5  # trace and population b; trace is checked first
        xs[2, 4] = np.inf
        assert xstate_violation(xs) == (2, f"element z={complex(np.inf, xs[2, 5])} is not finite")
        assert xstate_violation(xs[3:]) == (1, f"populations sum to {sum(xs[4, :4].tolist())}, "
                                               "not 1")

    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), offset=st.sampled_from(OFFSETS))
    def test_certificate_changes_no_verdict(self, data, offset):
        # the certificate, then the row-by-row diagnosis, give what the diagnosis alone
        # gives; rows sit at +-offset of every bound, NaN and inf included
        xs = np.array(data.draw(st.lists(edge_rows(offset), max_size=6)) or np.zeros((0, 8)))
        assert xstate_violation(xs) == xstate_violation_by_rows(xs)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_certificate_changes_no_verdict_at_any_bound(self, kind, offset):
        for step, nudge, k in itertools.product(OFFSET_STEPS, NUDGES, range(4)):
            x = edge_row(kind, offset, step, nudge, k)
            assert xstate_violation(x) == xstate_violation_by_rows(x)

    @pytest.mark.parametrize("offset", [0.0, STRUCT_TOL])
    def test_certificate_is_sound_on_the_psd_boundary(self, offset):
        # |z|^2 = bc + offset up to round-off: on the state space's boundary, and at the edge
        # of what the checks admit, where the sum of squares and hypot's square disagree in the
        # last bits in about one row in ten
        rng = np.random.default_rng(8)
        for _ in range(2000):
            x = np.zeros(8)
            x[:4] = np.diff([0, *sorted(rng.integers(0, 65, 3)), 64]) / 64
            angle = rng.uniform(0.0, 2 * np.pi)
            x[4:6] = np.sqrt(x[1] * x[2] + offset) * np.array([np.cos(angle), np.sin(angle)])
            assert xstate_violation(x) == xstate_violation_by_rows(x)

    def test_off_x_leakage_is_the_largest_element_off_the_x(self):
        m = x_matrix(x_vector(0.4, 0.3, 0.2, 0.1))
        m[0, 1], m[2, 3] = 1e-3, -2e-3j
        assert off_x_leakage(m) == 2e-3


class TestReducedGenerator:
    @pytest.mark.parametrize("ratio", [2.0, 1.5, 1.3, 1.2])
    def test_matches_full_generator_action(self, ratio):
        rng = np.random.default_rng(7)
        p = params(ratio, delta_bare=mhz(0.2), g=mhz(1.0))
        r = derive_rates(p)
        gen = build_generator(r, p)
        m = xstate_generator_matrix(gen)
        for _ in range(20):
            x = random_xstate(rng)
            direct = apply_generator(gen, x_matrix(x))
            reduced = x_matrix(m @ x)
            assert np.max(np.abs(direct - reduced)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(0.0, mhz(100.0)), gamma_nr=st.floats(0.0, mhz(1.0)),
           ratio=st.floats(0.5, 10.0), delta_bare=st.floats(-mhz(5.0), mhz(5.0)),
           g=st.floats(-mhz(5.0), mhz(5.0)), seed=st.integers(0, 2**32 - 1))
    def test_constant_maps_equal_the_basis_loop_exactly(self, gamma, gamma_nr, ratio,
                                                         delta_bare, g, seed):
        p = WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio,
                            delta_bare=delta_bare, g=g)
        gen = build_generator(derive_rates(p), p)
        assert (xstate_generator_matrix(gen) == xstate_generator_by_basis(gen)).all()
        # any 16x16 matrix: each entry is at most two nonzero products either way
        rng = np.random.default_rng(seed)
        gen = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        assert (xstate_generator_matrix(gen) == xstate_generator_by_basis(gen)).all()

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(0.5, 10.0), gamma=st.floats(mhz(0.1), mhz(1e12)),
           gamma_nr=st.floats(0.0, mhz(10.0), allow_subnormal=False),
           delta_bare=st.floats(-mhz(5.0), mhz(5.0)), g=st.floats(-mhz(5.0), mhz(5.0)))
    def test_basis_gives_the_restricted_generator_bit_for_bit(self, ratio, gamma, gamma_nr,
                                                               delta_bare, g):
        p = WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio,
                            delta_bare=delta_bare, g=g)
        r = derive_rates(p)
        got = (generator_coefficients(r, p) @ xstate_basis()).reshape(8, 8)
        assert got.tobytes() == xstate_generator_matrix(build_generator(r, p)).tobytes()

    def test_basis_keeps_the_last_bit_of_a_subnormal_rate(self):
        # at ratio 2, gamma_a is gamma_nr alone; where the 16x16 path halves it into H_eff and
        # doubles it back, an odd subnormal loses its last bit, which the basis, multiplying
        # it by -1, keeps
        p = WaveguideParams(gamma=GAMMA, gamma_nr=5e-324, lambda_ratio=2.0)
        r = derive_rates(p)
        got = (generator_coefficients(r, p) @ xstate_basis()).reshape(8, 8)
        assert np.abs(got - xstate_generator_matrix(build_generator(r, p))).max() == 5e-324

    def test_xstate_rhs_consistency(self):
        p = params(1.3)
        r = derive_rates(p)
        x = random_xstate(np.random.default_rng(1))
        m = xstate_generator_matrix(build_generator(r, p))
        got = xstate_rhs(x, r, p)
        assert np.allclose(got, m @ x, atol=1e-13)


class TestEvolution:
    def test_independent_decay_analytic(self):
        # at ratio 2 the qubits decay independently at the intrinsic rate:
        # every population and coherence follows the closed-form damping law
        p = params(2.0)
        r = derive_rates(p)
        a0, b0, c0, d0, z0, w0 = 0.1, 0.3, 0.2, 0.4, 0.1 - 0.05j, 0.08j
        times, states = evolve_xstate(x_vector(a0, b0, c0, d0, z0, w0), r, p, 5.0, 0.05)
        assert states.shape == (101, 8)
        ga, gb = r.gamma_a, r.gamma_b
        for t, got in zip(times, states):
            ea, eb = np.exp(-ga * t), np.exp(-gb * t)
            d = d0 * ea * eb
            b = b0 * ea + d0 * ea * (1 - eb)
            c = c0 * eb + d0 * eb * (1 - ea)
            a = 1.0 - b - c - d
            z = z0 * np.exp(-(ga + gb) * t / 2)
            w = w0 * np.exp(-(ga + gb) * t / 2)
            want = x_vector(a, b, c, d, z, w)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_pure_exchange_oscillation(self):
        # no dissipation, only a direct exchange coupling: full population
        # swap between the single-excitation states at the coupling period
        g0 = mhz(2.0)
        p = WaveguideParams(gamma=0.0, gamma_nr=0.0, lambda_ratio=2.0, g=g0)
        r = derive_rates(p)
        x0 = x_vector(0.0, 1.0, 0.0, 0.0)
        times, states = evolve_xstate(x0, r, p, 1.0, 0.01)
        for t, (b, c) in zip(times, states[:, 1:3]):
            assert b == pytest.approx(np.cos(g0 * t) ** 2, abs=1e-8)
            assert c == pytest.approx(np.sin(g0 * t) ** 2, abs=1e-8)

    def test_full_and_reduced_paths_agree(self):
        p = params(1.3)
        r = derive_rates(p)
        gen = build_generator(r, p)
        x0 = random_xstate(np.random.default_rng(42))
        times, fast = evolve_xstate(x0, r, p, 0.4, 0.004)
        full_times, full = evolve_full(x_matrix(x0), gen, 0.4, 0.004)
        assert np.array_equal(full_times, times)
        assert np.array_equal(times, sample_times(0.4, 0.004))
        assert full.shape == (101, 4, 4)
        assert np.max(np.abs(full - x_matrix(fast))) < 1e-9

    def test_sequence_gives_a_stack(self):
        p = params(1.5)
        r = derive_rates(p)
        x0s = [random_xstate(np.random.default_rng(k)) for k in range(3)]
        _, stack = evolve_xstate(x0s, r, p, 0.5, 0.01)
        assert stack.shape == (51, 3, 8)
        for i, x0 in enumerate(x0s):
            _, alone = evolve_xstate(x0, r, p, 0.5, 0.01)
            assert alone.shape == (51, 8)
            assert np.max(np.abs(stack[:, i] - alone)) < 1e-14
        with pytest.raises(ValueError, match="inner block"):
            evolve_xstate(x0s + [x_vector(0.25, 0.25, 0.25, 0.25, z=0.5)], r, p, 0.5, 0.01)

    @staticmethod
    def spoiled_message(monkeypatch, x0, row) -> str:
        """What evolve_xstate raises when a propagator fault spoils one row of its samples."""
        def faulty_propagate(*args):
            states = propagate(*args)
            states[row][:4] = [0.3, 1.2, -0.5, 0.0]  # unit trace, b and c out of range
            return states

        monkeypatch.setattr(wgqed.dynamics, "propagate", faulty_propagate)
        p = params(2.0)
        with pytest.raises(InvariantViolation) as got:
            evolve_xstate(x0, derive_rates(p), p, 0.9, 0.1)
        return str(got.value)

    def test_names_the_time_of_the_bad_row(self, monkeypatch):
        assert self.spoiled_message(monkeypatch, x_vector(0.4, 0.3, 0.2, 0.1), 6) == (
            "sample at t = 0.6 us: population b=1.2 outside [0, 1]")

    def test_names_the_time_of_the_bad_row_of_a_stack(self, monkeypatch):
        x0s = np.tile(x_vector(0.4, 0.3, 0.2, 0.1), (3, 1))
        assert self.spoiled_message(monkeypatch, x0s, (6, 2)) == (  # flat row 20, past sample 9
            "sample at t = 0.6 us: population b=1.2 outside [0, 1]")

    def test_rejects_bad_time_grid(self):
        p = params(2.0)
        r = derive_rates(p)
        x0 = x_vector(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="t_max"):
            evolve_xstate(x0, r, p, -1.0, 0.1)
        with pytest.raises(ValueError, match="sample_dt"):
            evolve_xstate(x0, r, p, 1.0, 2.0)
        for t_max, dt in ((float("inf"), 0.1), (float("nan"), 0.1), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="must be finite"):
                evolve_xstate(x0, r, p, t_max, dt)


class TestSampleTimes:
    def test_no_sample_past_t_max(self):
        # 1 / 0.6 rounds to 2 steps; whole steps stop at 0.6
        assert sample_times(1.0, 0.6).tolist() == [0.0, 0.6]
        assert sample_times(1.0, 0.3).tolist()[-1] == pytest.approx(0.9)

    def test_round_off_short_of_a_step_is_a_step(self):
        # 0.7 / 0.05 = 13.999999999999998: fourteen steps
        assert len(sample_times(0.7, 0.05)) == 15

    @staticmethod
    def assert_whole_steps(t_max, dt, n):
        # sample k is k * dt bit for bit, and the time grid is the --range 0:t_max:dt
        want = (dt * np.arange(n + 1)).tobytes()
        assert sample_times(t_max, dt).tobytes() == want
        assert parse_range(f"0:{t_max!r}:{dt!r}").tobytes() == want

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 1e6), st.integers(1, 5000))
    def test_one_whole_step_rule_for_times_and_ranges(self, t_max, n):
        self.assert_whole_steps(t_max, t_max / n, n)
        # past t_max by under 1e-9 of a step: sample_times(0.7, 0.05)[-1] is 0.7000000000000001
        assert sample_times(t_max, t_max / n)[-1] - t_max < 1e-9 * (t_max / n)

    def test_one_whole_step_rule_absorbs_round_off(self):
        # 0.7 / 0.05 and (1.0 - 0.3) / 0.05 are both 13.999999999999998: fourteen steps
        self.assert_whole_steps(0.7, 0.05, 14)
        assert parse_range("0.30:1.00:0.05").tobytes() == (0.3 + 0.05 * np.arange(15)).tobytes()

    @pytest.mark.parametrize("argv", [
        ["rates", "--range", "1:2:1e-13"],
        ["scan", "--f-range", "0.3:1.0:1e-12", "--lambda-ratios", "1.5"],
    ])
    def test_over_cap_range_is_named(self, argv, capsys):
        assert cli_main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: range {argv[2]!r} needs ")
        assert err.endswith(f" samples; the limit is {MAX_SAMPLES}\n")

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1e6), st.sampled_from([1000, 1500]))
    def test_windows_divided_into_n_keep_n_steps(self, t_max, n):
        # the default grid (8/gamma)/1000 and death_set's (6/min Gamma)/1500
        assert len(sample_times(t_max, t_max / n)) == n + 1

    def test_benchmark_grids_keep_their_counts(self):
        assert len(sample_times(2.0, 0.001)) == 2001
        t_max = 8.0 / mhz(5.0)
        assert len(sample_times(t_max, t_max / 1000.0)) == 1001
        for ratio in (1.2, 1.3, 1.5, 2.0):
            r = derive_rates(params(ratio))
            t_max = 6.0 / min(r.gamma_a, r.gamma_b)
            assert len(sample_times(t_max, t_max / 1500)) == 1501


class TestPropagate:
    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.0, mhz(10.0)), gamma_nr=st.floats(0.0, mhz(1.0)),
           ratio=st.floats(0.5, 10.0), delta_bare=st.floats(-mhz(5.0), mhz(5.0)),
           g=st.floats(-mhz(5.0), mhz(5.0)), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(1e-3, 0.05), n=st.integers(1, 40))
    def test_exact_semigroup_and_physical(self, gamma, gamma_nr, ratio, delta_bare, g,
                                          seed, dt, n):
        p = WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio,
                            delta_bare=delta_bare, g=g)
        m = xstate_generator_matrix(build_generator(derive_rates(p), p))
        x0 = random_xstate(np.random.default_rng(seed))
        ys = propagate(m, x0, dt, n)
        assert ys.shape == (n + 1, 8)
        for k in range(n + 1):
            want = scipy.linalg.expm(m * (k * dt)) @ x0
            assert np.max(np.abs(ys[k] - want)) < 1e-10
        one_step = propagate(m, x0, n * dt, 1)
        assert np.max(np.abs(one_step[-1] - ys[-1])) < 1e-10
        assert xstate_violation(ys) is None

    @settings(max_examples=25, deadline=None)
    @given(ratio=st.floats(0.5, 10.0), seed=st.integers(0, 2**32 - 1),
           m=st.integers(1, 12), n=st.integers(1, 300))
    def test_stack_equals_each_state_alone(self, ratio, seed, m, n):
        p = params(ratio, delta_bare=mhz(0.3), g=mhz(0.5))
        gen = xstate_generator_matrix(build_generator(derive_rates(p), p))
        rng = np.random.default_rng(seed)
        x0s = np.array([random_xstate(rng) for _ in range(m)])
        ys = propagate(gen, x0s, 0.01, n)
        assert ys.shape == (n + 1, m, 8)
        for i in range(m):
            assert np.max(np.abs(ys[:, i] - propagate(gen, x0s[i], 0.01, n))) < 1e-14

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 64), (3, 7), (15, 300)])
    def test_samples_are_component_planes(self, m, n):
        # each component's samples of every state are one contiguous plane of the buffer, and
        # what reads the stack finds the same values there as in a C-contiguous copy
        p = params(1.3, delta_bare=mhz(0.3), g=mhz(0.5))
        gen = xstate_generator_matrix(build_generator(derive_rates(p), p))
        rabi = lindblad_generator(mhz(15.0) * SIGMA_X, [SIGMA_MINUS], [[GAMMA_NR]])
        rng = np.random.default_rng(m * n)
        x0s = np.array([random_xstate(rng) for _ in range(m)])
        rho0s = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
        for mat, y0 in (gen, x0s), (gen, x0s[0]), (rabi, rho0s), (rabi, rho0s[0]):
            ys = propagate(mat, y0, 0.01, n)
            assert ys.shape == (n + 1, *y0.shape)
            assert np.moveaxis(ys, -1, 0).flags.c_contiguous
        ys = propagate(gen, x0s, 0.01, n)
        broken = ys.copy(order="K")  # the same layout
        broken[n // 2, m - 1, 4] += 1.0  # |z|^2 > bc at one sample of the last state
        for xs in ys, broken:
            copy = np.ascontiguousarray(xs)
            assert xstate_violation(xs) == xstate_violation(copy)
            assert np.array_equal(margins(xs), margins(copy))
        assert xstate_violation(broken)[0] == n // 2 * m + m - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 1000, 1023, 1024, 1500, 2000])
    def test_blocked_powers_match_expm_at_every_doubling(self, n):
        p = params(1.3, delta_bare=mhz(0.2), g=mhz(1.0))
        m = xstate_generator_matrix(build_generator(derive_rates(p), p))
        x0 = random_xstate(np.random.default_rng(n))
        dt = 2.0 / n
        ys = propagate(m, x0, dt, n)
        assert ys.shape == (n + 1, 8)
        ks = {n} | {k for j in range(12) for k in (2**j - 1, 2**j, 2**j + 1) if k <= n}
        for k in sorted(ks):
            want = scipy.linalg.expm(m * (k * dt)) @ x0
            assert np.max(np.abs(ys[k] - want)) < 1e-10, k

    @pytest.mark.parametrize("gen, y0, n, last_time", [
        (400.0, [[1.0], [0.5]], 3, 1.0),
        # e^19 * 1e300 is finite, e^20 * 1e300 is not; the first state stays finite
        (1.0, [[1e-300], [1e300]], 30, 19.0),
    ])
    def test_non_finite_stack_raises_with_last_finite_time(self, gen, y0, n, last_time):
        with pytest.raises(IntegrationError) as exc:
            propagate(np.array([[gen]]), np.array(y0), 1.0, n)
        assert exc.value.last_time == last_time

    @pytest.mark.parametrize("ratio", [1.2, 1.3, 2.0])
    def test_blocked_powers_match_the_step_by_step_loop(self, ratio):
        # one matrix-vector product per sample is the reference: blocked
        # powers reorder the round-off but stay far inside 1e-12
        p = params(ratio)
        m = xstate_generator_matrix(build_generator(derive_rates(p), p))
        x0 = random_xstate(np.random.default_rng(5))
        step = scipy.linalg.expm(m * 0.001)
        loop = [x0]
        for _ in range(2000):
            loop.append(step @ loop[-1])
        assert np.max(np.abs(propagate(m, x0, 0.001, 2000) - np.array(loop))) < 1e-13

    def test_non_finite_sample_raises_with_last_finite_time(self):
        # exp(400) is finite, exp(800) overflows: sample 2 is the first bad one
        with pytest.raises(IntegrationError) as exc:
            propagate(np.array([[400.0]]), np.array([1.0]), 1.0, 3)
        assert exc.value.last_time == 1.0

    def test_rejects_non_finite_initial_state(self):
        with pytest.raises(ValueError, match="finite"):
            propagate(np.zeros((2, 2)), np.array([1.0, np.nan]), 0.1, 2)


# Runs every subcommand with `import scipy` made to fail, then checks that no
# scipy module was loaded: the program runs on numpy alone.
NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from wgqed.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_cli_runs_without_scipy(tmp_path):
    out = ["--out", str(tmp_path / "out")]
    runs = [["rates", "--range", "1.2:2.0:0.4", *out],
            ["evolve", "--f", "0.8", "--lambda-ratio", "1.3", "--t-max", "1", *out],
            ["scan", "--f-range", "0.6:0.9:0.1", "--lambda-ratios", "1.3,2.0",
             "--t-max", "1", *out],
            ["prepare", "--f", "0.8", "--dissipative", *out],
            ["mix", "--pulse", "35", "--wait", "2", *out],
            ["cpw", "--width", "20", "--gap", "8", "--freq", "7", *out]]
    env = dict(os.environ, PYTHONPATH=str(Path(wgqed.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestKineticsCrossCheck:
    def test_population_equations_agree_everywhere(self):
        for ratio in (2.0, 1.5, 1.3, 1.2):
            p = params(ratio)
            gaps = kinetics_discrepancy(derive_rates(p), p, n=25)
            for name in ("a", "b", "c", "d"):
                assert gaps[name] < 1e-12, (ratio, name, gaps)

    def test_full_agreement_at_node_ratio(self):
        # all convention-sensitive terms vanish when the induced shifts do
        p = params(2.0)
        gaps = kinetics_discrepancy(derive_rates(p), p, n=25)
        assert max(gaps.values()) < 1e-12

    def test_coherence_gap_tracks_shift_sign_convention(self):
        # the transcribed coherence equations assume the opposite z-axis
        # sign; the gap is nonzero exactly when the induced shifts are
        gaps = kinetics_discrepancy(derive_rates(params(1.3)), params(1.3), n=25)
        assert gaps["z"] > 1.0 and gaps["w"] > 0.1
