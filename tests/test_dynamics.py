"""Unit tests for X-state containers and master-equation propagation."""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wgqed
from wgqed.dynamics import (
    SAMPLE_TOL,
    IntegrationError,
    Trajectory,
    XState,
    evolve_full,
    evolve_xstate,
    off_x_leakage,
    propagate,
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
    xstate_generator_by_basis,
    xstate_rhs,
    xstate_violation_by_rows,
)

GAMMA = mhz(5.0)
GAMMA_NR = mhz(0.03)


def params(ratio, **kw):
    return WaveguideParams(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=ratio, **kw)


#: where a row sits against a bound: -tol, -tol/2, tol/2 or tol from it, plus round-off
TOL_STEPS = (-1.0, -0.5, 0.5, 1.0)
NUDGES = (-1e-15, -2e-16, 0.0, 2e-16, 1e-15)
EDGE_KINDS = ("valid", "trace", "low", "high", "z", "w")


def edge_row(kind, tol, step, nudge, k=0, cuts=(16, 32, 48), angle=0.7):
    """An X state that is valid, or has one condition (trace, population k low or high,
    |z|^2 - bc or |w|^2 - ad) at step * tol + nudge from its bound and the others kept.
    Populations from cuts are multiples of 1/64, so that their sum is exactly 1 and the
    trace check does not mask the others even at tol = 0."""
    x = np.zeros(8)
    x[:4] = np.diff([0, *sorted(cuts), 64]) / 64
    at = step * tol + nudge
    if kind in ("low", "high"):  # the other populations keep the trace at 1
        x[:4] = 0.0
        x[k] = -tol + nudge if kind == "low" else 1.0 + tol + nudge
        x[[(k + 1) % 4, (k + 2) % 4]] = (1.0 - x[k]) / 2
        return x
    if kind == "trace":
        x[k] += at
    for name, i, j, re in (("z", 1, 2, 4), ("w", 0, 3, 6)):  # |z|^2 from bc, |w|^2 from ad
        square = x[i] * x[j] + at if kind == name else 0.81 * max(x[i] * x[j], 0.0)
        x[re], x[re + 1] = np.sqrt(max(square, 0.0)) * np.array([np.cos(angle), np.sin(angle)])
    return x


@st.composite
def edge_rows(draw, tol):
    """edge_row with drawn arguments, or with one element made NaN or infinite."""
    x = edge_row(draw(st.sampled_from(EDGE_KINDS)), tol, draw(st.sampled_from(TOL_STEPS)),
                 draw(st.sampled_from(NUDGES)), draw(st.integers(0, 3)),
                 draw(st.lists(st.integers(0, 64), min_size=3, max_size=3)),
                 draw(st.floats(0.0, 2 * np.pi)))
    if draw(st.booleans()):
        x[draw(st.integers(0, 7))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


class TestXState:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_xstate(rng)
            y = XState.from_matrix(x.to_matrix())
            assert np.allclose(x.to_vector(), y.to_vector(), atol=1e-15)

    def test_vector_round_trip(self):
        x = XState(a=0.1, b=0.2, c=0.3, d=0.4, z=0.1 + 0.05j, w=-0.02j)
        assert XState.from_vector(x.to_vector()) == x

    def test_matrix_layout(self):
        x = XState(a=0.4, b=0.3, c=0.2, d=0.1, z=0.1j, w=0.05)
        m = x.to_matrix()
        assert m[1, 2] == 0.1j and m[2, 1] == -0.1j
        assert m[0, 3] == 0.05 and m[3, 0] == 0.05
        assert off_x_leakage(m) == 0.0

    def test_validate_accepts_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            random_xstate(rng).validate()

    def test_validate_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="sum to"):
            XState(a=0.5, b=0.5, c=0.5, d=0.5).validate()

    def test_validate_rejects_negative_population(self):
        with pytest.raises(ValueError, match="outside"):
            XState(a=-0.1, b=0.6, c=0.3, d=0.2).validate()

    def test_validate_rejects_oversized_coherence(self):
        with pytest.raises(ValueError, match="inner block"):
            XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.5).validate()
        with pytest.raises(ValueError, match="outer block"):
            XState(a=0.25, b=0.25, c=0.25, d=0.25, w=0.5).validate()

    @pytest.mark.parametrize("field", ["a", "b", "c", "d", "z", "w"])
    def test_validate_rejects_non_finite(self, field):
        x = XState(a=0.4, b=0.3, c=0.2, d=0.1)
        bad = complex(float("nan"), 0.0) if field in "zw" else float("inf")
        with pytest.raises(ValueError, match=f"element {field}=.* is not finite"):
            replace(x, **{field: bad}).validate()

    def test_violation_names_first_bad_row_and_condition(self):
        rng = np.random.default_rng(4)
        xs = np.array([random_xstate(rng).to_vector() for _ in range(6)])
        assert xstate_violation(xs) is None
        xs[4, 1] += 0.5  # trace and population b; trace is checked first
        xs[2, 4] = np.inf
        assert xstate_violation(xs) == (2, f"element z={complex(np.inf, xs[2, 5])} is not finite")
        assert xstate_violation(xs[3:]) == (1, f"populations sum to {sum(xs[4, :4].tolist())}, "
                                               "not 1")

    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([0.0, STRUCT_TOL, SAMPLE_TOL, 1e-3]))
    def test_certificate_changes_no_verdict(self, data, tol):
        # the certificate, then the row-by-row diagnosis, give what the diagnosis alone
        # gives; rows sit at +-tol of every bound, NaN and inf included
        xs = np.array(data.draw(st.lists(edge_rows(tol), max_size=6)) or np.zeros((0, 8)))
        assert xstate_violation(xs, tol) == xstate_violation_by_rows(xs, tol)

    @pytest.mark.parametrize("tol", [0.0, STRUCT_TOL, SAMPLE_TOL, 1e-3])
    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_certificate_changes_no_verdict_at_any_bound(self, kind, tol):
        for step, nudge, k in itertools.product(TOL_STEPS, NUDGES, range(4)):
            x = edge_row(kind, tol, step, nudge, k)
            assert xstate_violation(x, tol) == xstate_violation_by_rows(x, tol)

    @pytest.mark.parametrize("tol", [0.0, STRUCT_TOL])
    def test_certificate_is_sound_on_the_psd_boundary(self, tol):
        # |z|^2 = bc + tol up to round-off, where the sum of squares and hypot's square
        # disagree in the last bits in about one row in ten
        rng = np.random.default_rng(8)
        for _ in range(2000):
            x = np.zeros(8)
            x[:4] = np.diff([0, *sorted(rng.integers(0, 65, 3)), 64]) / 64
            angle = rng.uniform(0.0, 2 * np.pi)
            x[4:6] = np.sqrt(x[1] * x[2] + tol) * np.array([np.cos(angle), np.sin(angle)])
            assert xstate_violation(x, tol) == xstate_violation_by_rows(x, tol)

    def test_from_matrix_leakage_guard(self):
        m = XState(a=0.4, b=0.3, c=0.2, d=0.1).to_matrix()
        m[0, 1] = 1e-3
        with pytest.raises(ValueError, match="leakage"):
            XState.from_matrix(m, leak_tol=1e-10)


class TestTrajectory:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((0, 8)), rates=None)

    def test_non_monotone_times(self):
        x = XState(a=1.0, b=0.0, c=0.0, d=0.0).to_vector()
        with pytest.raises(ValueError, match="ascending"):
            Trajectory(times=np.array([0.0, 0.0]), states=np.array([x, x]), rates=None)


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
            direct = apply_generator(gen, x.to_matrix())
            reduced = XState.from_vector(m @ x.to_vector()).to_matrix()
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
        got = xstate_rhs(x, r, p).to_vector()
        assert np.allclose(got, m @ x.to_vector(), atol=1e-13)


class TestEvolution:
    def test_independent_decay_analytic(self):
        # at ratio 2 the qubits decay independently at the intrinsic rate:
        # every population and coherence follows the closed-form damping law
        p = params(2.0)
        r = derive_rates(p)
        x0 = XState(a=0.1, b=0.3, c=0.2, d=0.4, z=0.1 - 0.05j, w=0.08j)
        traj = evolve_xstate(x0, r, p, 5.0, 0.05)
        assert traj.states.shape == (101, 8)
        ga, gb = r.gamma_a, r.gamma_b
        for t, got in zip(traj.times, traj.states):
            ea, eb = np.exp(-ga * t), np.exp(-gb * t)
            d = x0.d * ea * eb
            b = x0.b * ea + x0.d * ea * (1 - eb)
            c = x0.c * eb + x0.d * eb * (1 - ea)
            a = 1.0 - b - c - d
            z = x0.z * np.exp(-(ga + gb) * t / 2)
            w = x0.w * np.exp(-(ga + gb) * t / 2)
            want = XState(a=a, b=b, c=c, d=d, z=z, w=w).to_vector()
            assert np.max(np.abs(got - want)) < 1e-9

    def test_pure_exchange_oscillation(self):
        # no dissipation, only a direct exchange coupling: full population
        # swap between the single-excitation states at the coupling period
        g0 = mhz(2.0)
        p = WaveguideParams(gamma=0.0, gamma_nr=0.0, lambda_ratio=2.0, g=g0)
        r = derive_rates(p)
        x0 = XState(a=0.0, b=1.0, c=0.0, d=0.0)
        traj = evolve_xstate(x0, r, p, 1.0, 0.01)
        for t, (b, c) in zip(traj.times, traj.states[:, 1:3]):
            assert b == pytest.approx(np.cos(g0 * t) ** 2, abs=1e-8)
            assert c == pytest.approx(np.sin(g0 * t) ** 2, abs=1e-8)

    def test_full_and_reduced_paths_agree(self):
        p = params(1.3)
        r = derive_rates(p)
        gen = build_generator(r, p)
        x0 = random_xstate(np.random.default_rng(42))
        fast = evolve_xstate(x0, r, p, 0.4, 0.004)
        full = evolve_full(x0.to_matrix(), gen, 0.4, 0.004, rates=r)
        assert full.states.shape == (101, 4, 4)
        gap = max(np.max(np.abs(m - XState.from_vector(x).to_matrix()))
                  for m, x in zip(full.states, fast.states))
        assert gap < 1e-9

    def test_sequence_gives_a_stack(self):
        p = params(1.5)
        r = derive_rates(p)
        x0s = [random_xstate(np.random.default_rng(k)) for k in range(3)]
        stack = evolve_xstate(x0s, r, p, 0.5, 0.01)
        assert stack.states.shape == (51, 3, 8)
        for i, x0 in enumerate(x0s):
            alone = evolve_xstate(x0, r, p, 0.5, 0.01)
            assert alone.states.shape == (51, 8)
            assert np.max(np.abs(stack.states[:, i] - alone.states)) < 1e-14
        with pytest.raises(ValueError, match="inner block"):
            evolve_xstate(x0s + [XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.5)], r, p,
                          0.5, 0.01)

    def test_rejects_bad_time_grid(self):
        p = params(2.0)
        r = derive_rates(p)
        x0 = XState(a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(ValueError, match="t_max"):
            evolve_xstate(x0, r, p, -1.0, 0.1)
        with pytest.raises(ValueError, match="sample_dt"):
            evolve_xstate(x0, r, p, 1.0, 2.0)
        for t_max, dt in ((float("inf"), 0.1), (float("nan"), 0.1), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="must be finite"):
                evolve_xstate(x0, r, p, t_max, dt)


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
        x0 = random_xstate(np.random.default_rng(seed)).to_vector()
        ys = propagate(m, x0, dt, n)
        assert ys.shape == (n + 1, 8)
        for k in range(n + 1):
            want = scipy.linalg.expm(m * (k * dt)) @ x0
            assert np.max(np.abs(ys[k] - want)) < 1e-10
        one_step = propagate(m, x0, n * dt, 1)
        assert np.max(np.abs(one_step[-1] - ys[-1])) < 1e-10
        for y in ys:
            XState.from_vector(y).validate()

    @settings(max_examples=25, deadline=None)
    @given(ratio=st.floats(0.5, 10.0), seed=st.integers(0, 2**32 - 1),
           m=st.integers(1, 12), n=st.integers(1, 300))
    def test_stack_equals_each_state_alone(self, ratio, seed, m, n):
        p = params(ratio, delta_bare=mhz(0.3), g=mhz(0.5))
        gen = xstate_generator_matrix(build_generator(derive_rates(p), p))
        rng = np.random.default_rng(seed)
        x0s = np.array([random_xstate(rng).to_vector() for _ in range(m)])
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
        x0s = np.array([random_xstate(rng).to_vector() for _ in range(m)])
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
            assert xstate_violation(xs, SAMPLE_TOL) == xstate_violation(copy, SAMPLE_TOL)
            assert np.array_equal(margins(xs), margins(copy))
        assert xstate_violation(broken, SAMPLE_TOL)[0] == n // 2 * m + m - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 1000, 1023, 1024, 1500, 2000])
    def test_blocked_powers_match_expm_at_every_doubling(self, n):
        p = params(1.3, delta_bare=mhz(0.2), g=mhz(1.0))
        m = xstate_generator_matrix(build_generator(derive_rates(p), p))
        x0 = random_xstate(np.random.default_rng(n)).to_vector()
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
        x0 = random_xstate(np.random.default_rng(5)).to_vector()
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
