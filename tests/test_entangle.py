"""Unit tests for concurrence formulas and sudden-death detection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wgqed.entangle
from wgqed.dynamics import evolve_xstate, x_matrix, xstate_basis
from wgqed.entangle import (
    DEAD_EPS,
    DEATH_HOLD,
    NonMonotoneError,
    concurrence_wootters,
    concurrence_x,
    death_set,
    detect_events,
    esd_threshold,
    margins,
    pw_concurrence_closed,
    trajectory_concurrences,
)
from wgqed.model import WaveguideParams, derive_rates, mhz
from wgqed.states import FAMILIES, pw_vector, werner_vector
from xstate_oracles import dies_by_repropagation, random_xstate, x_vector

PARAMS = WaveguideParams(gamma=mhz(5.0), gamma_nr=mhz(0.03), lambda_ratio=2.0)

# analytic sudden-death boundary for the singlet mixture when both qubits
# decay independently: the inner coherence must stay above sqrt(a*d)
WERNER_THRESHOLD_ANALYTIC = (np.sqrt(720.0) - 4.0) / 32.0


class TestConcurrenceX:
    def test_maximally_entangled(self):
        bell = x_vector(0.0, 0.5, 0.5, 0.0, z=-0.5)
        assert concurrence_x(bell) == pytest.approx(1.0)

    def test_separable_diagonal(self):
        assert concurrence_x(x_vector(0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_werner_closed_form(self):
        # singlet mixture: concurrence max(0, 2f - 1)
        for f in np.linspace(0.25, 1.0, 16):
            expected = max(0.0, 2 * f - 1)
            assert concurrence_x(werner_vector(f)) == pytest.approx(expected, abs=1e-12)

    def test_branches_and_margin(self):
        # F = |z| - sqrt(ad) = 0.25 - sqrt(0.03) beats G = |w| - sqrt(bc) = -0.3
        x = x_vector(0.1, 0.3, 0.3, 0.3, z=0.25j)
        assert margins(x) == pytest.approx(2 * (0.25 - np.sqrt(0.03)))
        # the mirror state swaps the branches: G = 0.25 - sqrt(0.03) beats F = -0.3
        x = x_vector(0.3, 0.1, 0.3, 0.3, w=0.25j)
        assert margins(x) == pytest.approx(2 * (0.25 - np.sqrt(0.03)))

    def test_margin_unclamped_for_separable(self):
        x = x_vector(0.25, 0.25, 0.25, 0.25)
        assert margins(x) < 0
        assert concurrence_x(x) == 0.0

    def test_validates_input(self):
        with pytest.raises(ValueError):
            concurrence_x(x_vector(0.5, 0.5, 0.5, 0.5))


class TestMargins:
    @staticmethod
    def _margin_loop(x):
        # closed form, one row at a time with Python scalars
        f = abs(complex(x[4], x[5])) - math.sqrt(max(x[0], 0.0) * max(x[3], 0.0))
        g = abs(complex(x[6], x[7])) - math.sqrt(max(x[1], 0.0) * max(x[2], 0.0))
        return 2.0 * max(f, g)

    def test_matches_scalar_loop_exactly(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.normal(size=(5000, 8)),
                             np.array([random_xstate(rng) for _ in range(5000)])])
        # Re or Im of z and w at +0.0 or -0.0, where hypot is skipped for |Re|
        signed = np.concatenate([xs[:800], xs[5000:5800]])
        for k, zero in enumerate((0.0, -0.0, 0.0, -0.0)):
            signed[k::4, [5, 7] if k < 2 else [4, 6]] = zero
        signed[::16, 4:] = np.array([0.0, -0.0])[rng.integers(2, size=(100, 4))]
        xs = np.concatenate([xs, signed])
        got = margins(xs)
        assert got.shape == (11600,)
        want = np.array([self._margin_loop(x.tolist()) for x in xs])
        assert np.array_equal(got, want)

    def test_leading_axes(self):
        xs = np.random.default_rng(5).normal(size=(3, 4, 8))
        assert np.array_equal(margins(xs), margins(xs.reshape(12, 8)).reshape(3, 4))

    def test_one_state_gives_a_scalar(self):
        x = random_xstate(np.random.default_rng(2))
        assert np.ndim(margins(x)) == 0 and margins(x) == self._margin_loop(x.tolist())

    def test_peak_memory_is_three_result_columns(self):
        # F, G and one operand: the operands were eight columns at once before
        xs = np.random.default_rng(3).normal(size=(100_001, 8))
        tracemalloc.start()
        try:
            got = margins(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * got.nbytes
        tracemalloc.start()
        try:
            c = trajectory_concurrences(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * c.nbytes


class TestConcurrenceWootters:
    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert concurrence_wootters(np.outer(psi, psi.conj())) == pytest.approx(1.0)

    def test_matches_x_formula(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            x = random_xstate(rng)
            assert concurrence_wootters(x_matrix(x)) == pytest.approx(
                concurrence_x(x), abs=1e-10)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence_wootters(np.eye(2, dtype=complex) / 2)


class TestPwClosedForm:
    def test_peak_value(self):
        assert pw_concurrence_closed(1.0) == pytest.approx(np.sqrt(3) / 2, abs=1e-14)

    def test_separable_region(self):
        for f in np.linspace(0.0, 1.0 / 3.0, 50):
            assert pw_concurrence_closed(f) == 0.0

    def test_matches_state_construction(self):
        for f in np.linspace(0.0, 1.0, 33):
            assert pw_concurrence_closed(f) == pytest.approx(
                concurrence_x(pw_vector(f)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            pw_concurrence_closed(1.5)


class TestDetectEvents:
    @staticmethod
    def _werner_events(f_of_t, times):
        # Werner X vectors in closed form; f may leave the family's domain
        f = np.broadcast_to(f_of_t(times), times.shape)
        pop_a, pop_b = (1 - f) / 3, (1 + 2 * f) / 6
        zero = np.zeros_like(f)
        states = np.column_stack([pop_a, pop_b, pop_b, pop_a, (1 - 4 * f) / 6,
                                  zero, zero, zero])
        return detect_events(times, trajectory_concurrences(states))

    def test_death_and_revival_times(self):
        # concurrence max(0, 0.6 cos(2 pi t)): dead on (0.25, 0.75)
        times = np.linspace(0.0, 1.0, 401)
        rep = self._werner_events(lambda t: 0.5 + 0.3 * np.cos(2 * np.pi * t), times)
        assert len(rep.death_times) == 1 and len(rep.revival_times) == 1
        assert rep.death_times[0] == pytest.approx(0.25, abs=0.01)
        assert rep.revival_times[0] == pytest.approx(0.75, abs=0.01)
        assert rep.final_concurrence == pytest.approx(0.6, abs=1e-9)

    def test_monotone_decay_has_no_revival(self):
        times = np.linspace(0.0, 1.0, 201)
        rep = self._werner_events(lambda t: 0.9 - 0.5 * t, times)
        assert len(rep.death_times) == 1 and not rep.revival_times

    def test_never_entangled_reports_nothing(self):
        times = np.linspace(0.0, 1.0, 101)
        rep = self._werner_events(lambda t: 0.4, times)
        assert not rep.death_times and not rep.revival_times

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            detect_events(np.array([0.0]), np.array([0.8]))

    def test_trajectory_concurrences_shape(self):
        cs = trajectory_concurrences(np.tile(werner_vector(0.9), (11, 1)))
        assert cs.shape == (11,)
        assert np.allclose(cs, 0.8)

    @staticmethod
    def _events_loop(t, c, eps=1e-6, hold=5):
        # sample-by-sample state machine: deaths need a live sample before
        # and hold dead samples from the drop on; revival at the next live one
        def cross(i):
            c0, c1 = c[i], c[i + 1]
            if c1 == c0:
                return float(t[i + 1])
            return float(t[i] + min(max((c0 - eps) / (c0 - c1), 0.0), 1.0) * (t[i + 1] - t[i]))

        deaths, revivals = [], []
        dead = c <= eps
        alive_seen, in_death, n = not dead[0], False, len(c)
        for i in range(1, n):
            if not in_death:
                if (alive_seen and dead[i] and not dead[i - 1]
                        and np.all(dead[i:min(i + hold, n)]) and n - i >= hold):
                    deaths.append(cross(i - 1))
                    in_death = True
                alive_seen = alive_seen or not dead[i]
            elif not dead[i]:
                revivals.append(cross(i - 1))
                in_death = False
        return deaths, revivals

    @settings(max_examples=200, deadline=None)
    @given(pattern=st.lists(st.tuples(st.booleans(), st.integers(1, 8)), min_size=1,
                            max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sample_loop(self, pattern, seed):
        # runs of live (C > eps) and dead (C <= eps, exactly eps included) samples
        rng = np.random.default_rng(seed)
        c = np.concatenate([rng.uniform(2e-6, 1.0, n) if live
                            else rng.choice([0.0, 1e-6, 5e-7], n) for live, n in pattern])
        if len(c) < 2:
            c = np.append(c, 0.5)
        t = np.cumsum(rng.uniform(0.01, 0.1, len(c)))
        rep = detect_events(t, c)
        assert (rep.death_times, rep.revival_times) == self._events_loop(t, c)
        assert rep.final_concurrence == c[-1]

    @settings(max_examples=150, deadline=None)
    @given(n_t=st.integers(2, 4 * DEATH_HOLD),
           columns=st.lists(st.lists(st.tuples(st.booleans(), st.sampled_from(
               [1, 2, DEATH_HOLD - 1, DEATH_HOLD, DEATH_HOLD + 1])), min_size=1, max_size=10),
               max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_each_column_alone(self, n_t, columns, seed):
        # drawn runs of live and dead samples cut to n_t, next to the edge columns:
        # DEATH_HOLD dead samples at sample 0 and at the end, all dead, all live
        rng = np.random.default_rng(seed)
        hold = min(DEATH_HOLD, n_t)
        masks = [[False] * hold + [True] * (n_t - hold), [True] * (n_t - hold) + [False] * hold,
                 [False] * n_t, [True] * n_t]
        masks += [([live for live, n in runs for _ in range(n)] * n_t)[:n_t] for runs in columns]
        live = np.array(masks).T
        c = np.where(live, rng.uniform(2e-6, 1.0, live.shape),
                     rng.choice([0.0, DEAD_EPS, 5e-7], live.shape))
        t = np.cumsum(rng.uniform(0.01, 0.1, n_t))
        stacked = detect_events(t, c)
        assert [(r.death_times, r.revival_times, r.final_concurrence) for r in stacked] == [
            (*self._events_loop(t, c[:, j]), c[-1, j]) for j in range(c.shape[1])]
        assert detect_events(t, c[:, :0]) == []


def werner_stop_at_ratio_2() -> float:
    """The death set's stop at lambda/x2 = 2, in closed form.

    Both qubits decay on their own at g = gamma_nr there, and the grid ends at T = 6/g:
    z = z0 e^(-g t), d = d0 e^(-2 g t) and a = a0 + (b0 + c0) p + d0 p^2 with
    p = 1 - e^(-g t), so the Werner state dies iff |z0|^2 < d0 a(T) (Yu & Eberly, PRL 93,
    140404, 2004).  With a0 = d0 = (1 - f)/3, b0 + c0 = (1 + 2f)/3 and z0 = (1 - 4f)/6 that
    is the quadratic (16 + 4B) f^2 + 4(A - B - 2) f + 1 - 4A < 0, A = 1 + p + p^2 and
    B = 2p - 1 - p^2.
    """
    p = -math.expm1(-6.0)
    big_a, big_b = 1 + p + p * p, 2 * p - 1 - p * p
    qa, qb, qc = 16 + 4 * big_b, 4 * (big_a - big_b - 2), 1 - 4 * big_a
    return (-qb + math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)


#: death-set stops on the default grid, to 7 digits
DEATH_SET_STOPS = {(1.2, "werner"): 0.5668431, (1.3, "pw"): 0.9775066, (1.5, "pw"): 0.6742059,
                   (2.0, "werner"): 0.7132076, (2.5, "werner"): 0.8489417,
                   (2.5, "pw"): 0.7562034, (3.0, "werner"): 0.9489446, (1.2, "pw"): 0.9769012}
#: the two-interval death sets of the Werner family, to 6 digits
WERNER_TWO_INTERVALS = {1.9: [(0.25, 0.678307), (0.825402, 0.992188)],
                        2.11: [(0.25, 0.681298), (0.805256, 0.995355)]}


class TestEsdThreshold:
    def test_matches_analytic_boundary(self):
        thr = esd_threshold(2.0, PARAMS, "werner", tol=0.005)
        assert thr == pytest.approx(WERNER_THRESHOLD_ANALYTIC, abs=0.005)

    def test_pw_family_runs(self):
        thr = esd_threshold(1.5, PARAMS, "pw", tol=0.01)
        assert 1.0 / 3.0 <= thr <= 1.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="tol"):
            esd_threshold(2.0, PARAMS, "werner", tol=0.0)
        with pytest.raises(ValueError, match="state family"):
            esd_threshold(2.0, PARAMS, "ghz")
        with pytest.raises(ValueError, match="state family"):
            death_set(2.0, PARAMS, "ghz")

    @pytest.mark.parametrize("ratio, family, bisected", [
        (1.2, "werner", 0.56787109375),
        (1.3, "pw", 0.9778645833333334),
        (1.5, "pw", 0.6731770833333334),
        (2.0, "werner", 0.71435546875),
        (2.5, "werner", 0.84912109375),
        (2.5, "pw", 0.7565104166666666),
        (3.0, "werner", 0.94873046875),
        (1.2, "pw", 0.9778645833333334),
    ])
    def test_equals_one_propagation_per_fidelity(self, ratio, family, bisected):
        # the stop splits what one propagation per fidelity decides: f just below it dies
        got = esd_threshold(ratio, PARAMS, family, tol=0.005)
        assert got == pytest.approx(DEATH_SET_STOPS[ratio, family], abs=1e-7)
        assert dies_by_repropagation(ratio, PARAMS, family, got - 1e-6)
        assert not dies_by_repropagation(ratio, PARAMS, family, got + 1e-6)
        # the bisection it replaces returned the midpoint of a bracket of width <= tol
        assert abs(got - bisected) <= 0.0025

    def test_stop_at_ratio_2_is_the_closed_form(self):
        assert werner_stop_at_ratio_2() == pytest.approx(0.71320759, abs=1e-8)
        assert death_set(2.0, PARAMS, "werner") == [
            (0.25, pytest.approx(werner_stop_at_ratio_2(), abs=1e-8))]

    @settings(max_examples=30, deadline=None)
    @given(ratio=st.one_of(st.sampled_from([1.2, 1.9, 2.0, 2.11]), st.floats(1.05, 3.0)),
           family=st.sampled_from(["werner", "pw"]), u=st.floats(0.0, 1.0))
    def test_membership_is_the_repropagated_verdict(self, ratio, family, u):
        lo = 0.25 if family == "werner" else 1.0 / 3.0
        f = min(lo + u * (1.0 - lo), 1.0)
        spans = death_set(ratio, PARAMS, family)
        assume(all(abs(f - end) > 1e-7 for span in spans for end in span) or f in (lo, 1.0))
        inside = any(start <= f <= stop for start, stop in spans)
        assert inside == dies_by_repropagation(ratio, PARAMS, family, f)

    def test_w_is_zero_on_every_family_trajectory(self):
        # death_set decides from the F margin alone, which needs w = 0 along each trajectory:
        # every family row starts with Re w = Im w = 0 exactly, and the X generator couples
        # (Re w, Im w) to no other coordinate, in either direction
        for make in FAMILIES.values():
            assert not make(np.linspace(0.25, 1.0, 76))[:, 6:].any()
        basis = xstate_basis().reshape(6, 8, 8)
        assert not basis[:, 6:, :6].any()
        assert not basis[:, :6, 6:].any()

    def test_one_propagation_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return evolve_xstate(*args)

        monkeypatch.setattr(wgqed.entangle, "evolve_xstate", counted)
        esd_threshold(1.3, PARAMS, "pw")
        assert len(calls) == 1
        assert np.array_equal(calls[0], [pw_vector(1.0 / 3.0), pw_vector(1.0)])

    @pytest.mark.parametrize("ratio", [1.9, 2.11])
    def test_non_monotone_flags_match_the_oracle(self, ratio):
        # inside each interval f dies, between them and above the last it does not
        spans = death_set(ratio, PARAMS, "werner")
        np.testing.assert_allclose(spans, WERNER_TWO_INTERVALS[ratio], rtol=0, atol=1e-5)
        assert spans[0][0] == 0.25
        (_, stop0), (start1, stop1) = spans
        for f, dies in [(0.25, True), (stop0 - 1e-6, True), (stop0 + 1e-6, False),
                        ((stop0 + start1) / 2, False), (start1 - 1e-6, False),
                        (start1 + 1e-6, True), (stop1 - 1e-6, True), (stop1 + 1e-6, False),
                        (1.0, False)]:
            assert dies_by_repropagation(ratio, PARAMS, "werner", f) == dies
        with pytest.raises(NonMonotoneError) as got:
            esd_threshold(ratio, PARAMS, "werner")
        assert str(got.value).endswith(" U ".join(f"[{a:.7g}, {b:.7g}]" for a, b in spans))

    def test_non_monotone_predicate_is_refused(self):
        # at lambda/x2 = 1.9, f <= 0.678 and f in 0.826-0.992 die; 0.68-0.82 and 1.0 do not
        spans = r"\[0\.25, 0\.678306\d\] U \[0\.825401\d, 0\.992187\d\]$"
        with pytest.raises(NonMonotoneError, match=spans):
            esd_threshold(1.9, PARAMS, "werner")

    @pytest.mark.parametrize("spans, expected", [
        ([], 0.25), ([(0.25, 0.6)], 0.6), ([(0.25, 1.0)], 1.0),
        ([(0.3, 0.6)], NonMonotoneError), ([(0.25, 0.5), (0.6, 0.7)], NonMonotoneError)])
    def test_return_rules(self, monkeypatch, spans, expected):
        monkeypatch.setattr(wgqed.entangle, "death_set", lambda *args: spans)
        for tol in (1e-12, 0.005, 0.5):
            if expected is NonMonotoneError:
                with pytest.raises(NonMonotoneError, match="not one interval from 0.25"):
                    esd_threshold(2.0, PARAMS, "werner", tol=tol)
            else:
                assert esd_threshold(2.0, PARAMS, "werner", tol=tol) == expected
