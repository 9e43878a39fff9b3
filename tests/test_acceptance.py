"""End-to-end acceptance gate.

Each test covers one numbered criterion and records a single PASS/FAIL
verdict (printed in the terminal summary, see conftest).  Trajectories
integrated here are registered so the final structural-invariant sweep
runs over exactly the states the other criteria relied on.
"""

import numpy as np
import pytest

from wgqed import (
    WaveguideParams,
    concurrence_wootters,
    concurrence_x,
    derive_rates,
    detect_events,
    esd_threshold,
    evolve_full,
    evolve_xstate,
    mhz,
    mixed_qubit,
    prepare_pw,
    off_x_leakage,
    pseudo_werner,
    pw_concurrence_closed,
    pw_vector,
    wait_time_for_f,
    werner_vector,
    x_matrix,
)
from wgqed.cpw import CpwGeometry, cpw_derive, lambda_ratio_for_freq, wavelength
from wgqed.entangle import trajectory_concurrences
from wgqed.model import TWO_PI, build_generator
from wgqed.states import PrepConfig, RabiConfig
from xstate_oracles import random_xstate

PARAMS = WaveguideParams(gamma=mhz(5.0), gamma_nr=mhz(0.03), lambda_ratio=2.0)

# trajectories accumulated for the final invariant sweep
X_TRAJS: list = []
FULL_TRAJS: list = []


def _verdict(criterion_log, num, desc, ok, detail=""):
    criterion_log[num] = (desc, bool(ok))
    line = f"CRITERION {num} [{'PASS' if ok else 'FAIL'}] {desc}"
    print(line)
    assert ok, f"{line}\n{detail}"


def _with_ratio(lambda_ratio):
    return WaveguideParams(gamma=PARAMS.gamma, gamma_nr=PARAMS.gamma_nr,
                           lambda_ratio=lambda_ratio)


def test_criterion_01_rate_table(criterion_log):
    # quoted values in linear MHz (gamma = 5, gamma_nr = 0.03), rounded
    # to two decimals in the source text -> 0.01 MHz absolute tolerance
    quoted = {
        2.0: (0.03, 0.03, 0.0, 0.0),
        1.5: (2.53, 10.03, -5.0, 0.0),
        1.2: (7.53, 0.03, 0.0, -4.33),
        1.3: (5.63, 3.26, -4.25, -3.08),
    }
    worst = 0.0
    for ratio, (ga, gb, gcol, gx) in quoted.items():
        r = derive_rates(_with_ratio(ratio))
        got = (r.gamma_a / TWO_PI, r.gamma_b / TWO_PI,
               r.gamma_col / TWO_PI, r.g_x / TWO_PI)
        worst = max(worst, *(abs(g - q) for g, q in zip(got, (ga, gb, gcol, gx))))
    _verdict(criterion_log, 1,
             "derived rates reproduce all quoted values within 0.01 MHz",
             worst <= 0.01, f"worst absolute error {worst:.4g} MHz")


def test_criterion_02_werner_esd_threshold(criterion_log):
    thr = esd_threshold(2.0, PARAMS, "werner", tol=0.005)
    _verdict(criterion_log, 2,
             "Werner sudden-death threshold at ratio 2 is 0.714 +/- 0.005",
             abs(thr - 0.714) <= 0.005, f"got {thr:.5f}")


def test_criterion_03_pw_closed_form(criterion_log):
    checks = []
    checks.append(abs(pw_concurrence_closed(1.0) - np.sqrt(3) / 2) <= 1e-12)
    low = np.linspace(0.0, 1.0 / 3.0, 100)
    checks.append(all(pw_concurrence_closed(f) == 0.0 for f in low))
    grid = np.linspace(0.0, 1.0, 101)
    gap = max(abs(pw_concurrence_closed(f) - concurrence_x(pw_vector(f)))
              for f in grid)
    checks.append(gap <= 1e-12)
    _verdict(criterion_log, 3,
             "pseudo-Werner closed-form concurrence (peak, zero region, "
             "agreement with the X-state formula)",
             all(checks), f"sub-checks {checks}, max gap {gap:.3g}")


def _printed_rho2(f):
    m = np.zeros((8, 8), dtype=complex)
    m[1, 1] = m[2, 2] = f / 2
    m[1, 2] = 1j * f / 2
    m[3, 3] = 1 - f
    return m + np.triu(m, 1).conj().T


def _printed_rho3(f):
    s3 = np.sqrt(3)
    m = np.zeros((8, 8), dtype=complex)
    m[1, 1] = f / 2
    m[1, 2] = 1j * s3 * f / 4
    m[1, 4] = f / 4
    m[2, 2] = 3 * f / 8
    m[2, 4] = -1j * s3 * f / 8
    m[3, 3] = 3 * (1 - f) / 4
    m[3, 5] = -1j * s3 * (1 - f) / 4
    m[4, 4] = f / 8
    m[5, 5] = (1 - f) / 4
    return m + np.triu(m, 1).conj().T


def test_criterion_04_preparation_chain(criterion_log):
    res = prepare_pw(PrepConfig(f=0.8))
    gap2 = np.max(np.abs(res.rho2 - _printed_rho2(0.8)))
    gap3 = np.max(np.abs(res.rho3 - _printed_rho3(0.8)))
    worst_out = 0.0
    for f in np.linspace(0.0, 1.0, 50):
        out = prepare_pw(PrepConfig(f=float(f))).rho_out
        worst_out = max(worst_out, float(np.max(np.abs(out - pseudo_werner(f)))))
    ok = gap2 <= 1e-12 and gap3 <= 1e-12 and worst_out <= 1e-10
    _verdict(criterion_log, 4,
             "exact preparation chain reproduces the printed intermediate "
             "and output states",
             ok, f"gap2 {gap2:.3g}, gap3 {gap3:.3g}, worst output {worst_out:.3g}")


def test_criterion_05_fast_path_equivalence(criterion_log):
    rng = np.random.default_rng(20250823)
    worst = 0.0
    for ratio in (2.0, 1.5, 1.2, 1.3):
        p = _with_ratio(ratio)
        r = derive_rates(p)
        gen = build_generator(r, p)
        for _ in range(20):
            x0 = random_xstate(rng)
            _, fast = evolve_xstate(x0, r, p, 0.5, 0.005)
            _, full = evolve_full(x_matrix(x0), gen, 0.5, 0.005)
            X_TRAJS.append(fast)
            FULL_TRAJS.append(full)
            gap = max(np.max(np.abs(m - x_matrix(x))) for m, x in zip(full, fast))
            worst = max(worst, float(gap))
    _verdict(criterion_log, 5,
             "reduced X-manifold integration matches the full master "
             "equation within 1e-8 (20 random states x 4 ratios)",
             worst <= 1e-8, f"worst max-norm gap {worst:.3g}")


def _events(times, states):
    return detect_events(times, trajectory_concurrences(states))


def test_criterion_06_esd_revival_pattern(criterion_log):
    failures = []

    # ratio 2: no trajectory ever revives
    p2 = _with_ratio(2.0)
    r2 = derive_rates(p2)
    t_max = 6.0 / min(r2.gamma_a, r2.gamma_b)
    for f in np.arange(0.3, 1.001, 0.1):
        times, states = evolve_xstate(werner_vector(float(f)), r2, p2, t_max, t_max / 1500)
        X_TRAJS.append(states)
        if _events(times, states).revival_times:
            failures.append(f"revival at ratio 2, f={f:.1f}")

    # ratios 1.5 and 1.3: Werner f = 0.9 dies and then revives
    for ratio in (1.5, 1.3):
        p = _with_ratio(ratio)
        r = derive_rates(p)
        times, states = evolve_xstate(werner_vector(0.9), r, p, 2.0, 2.0 / 2000)
        X_TRAJS.append(states)
        rep = _events(times, states)
        if not (rep.death_times and rep.revival_times
                and rep.revival_times[0] > rep.death_times[0]):
            failures.append(f"no death-then-revival at ratio {ratio}: {rep}")

    # ratio 1.2: death-then-revival with fast decay of the revived
    # concurrence (pseudo-Werner initial state)
    p = _with_ratio(1.2)
    r = derive_rates(p)
    times, states = evolve_xstate(pw_vector(0.9), r, p, 2.0, 2.0 / 2000)
    X_TRAJS.append(states)
    rep = _events(times, states)
    if not (rep.death_times and rep.revival_times
            and rep.revival_times[0] > rep.death_times[0]
            and len(rep.death_times) >= 2
            and rep.final_concurrence <= 1e-6):
        failures.append(f"ratio 1.2 pattern not observed: {rep}")

    _verdict(criterion_log, 6,
             "qualitative sudden-death/revival pattern across wavelength "
             "ratios", not failures, "; ".join(failures))


def test_criterion_07_concurrence_oracle_equivalence(criterion_log):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        x = random_xstate(rng)
        worst = max(worst, abs(concurrence_x(x) - concurrence_wootters(x_matrix(x))))
    _verdict(criterion_log, 7,
             "closed-form X-state concurrence equals the general spin-flip "
             "formula within 1e-10 on 1000 random states",
             worst <= 1e-10, f"worst gap {worst:.3g}")


def test_criterion_08_mixed_state_generation(criterion_log):
    failures = []
    pulse = mixed_qubit(RabiConfig())
    end_gap = abs(pulse.rho_gg[-1] - 0.5)
    coh = abs(pulse.abs_rho_eg[-1])
    if end_gap > 0.01:
        failures.append(f"|rho_gg - 1/2| = {end_gap:.4f} after the pulse")
    if coh > 0.01:
        failures.append(f"|rho_eg| = {coh:.4f} after the pulse")

    wait = wait_time_for_f(0.8, mhz(0.03))
    if abs(wait - 4.86) > 0.01:
        failures.append(f"wait time {wait:.4f} us, expected 4.86 +/- 0.01")

    full = mixed_qubit(RabiConfig(wait_duration=wait))
    if abs(full.f_achieved - 0.8) > 0.005:
        failures.append(f"f_achieved = {full.f_achieved:.4f}, expected 0.8 +/- 0.005")

    _verdict(criterion_log, 8,
             "driven-then-wait protocol reaches the half mixture and the "
             "target ground population", not failures, "; ".join(failures))


def test_criterion_09_cpw_numbers(criterion_log):
    geom = CpwGeometry(center_width=20.0, gap_width=8.0, eps_r=9.8)
    derived = cpw_derive(geom)
    failures = []
    if abs(derived.v_ph - 1.29017e8) / 1.29017e8 > 0.001:
        failures.append(f"v_ph = {derived.v_ph:.6g}")
    lam7 = wavelength(2 * np.pi * 7e9, derived.v_ph) * 1e3
    if abs(lam7 - 18.4) > 0.1:
        failures.append(f"lambda(7 GHz) = {lam7:.3f} mm")
    x2_mm = 18.4
    r23 = lambda_ratio_for_freq(2.3, geom, x2_mm=x2_mm)
    if abs(r23 - 3.0) / 3.0 > 0.02:
        failures.append(f"ratio at 2.3 GHz = {r23:.4f}, expected 3.0 +/- 2%")
    # The quoted figure here was 2.4.  On a non-dispersive line ratio * f is
    # one constant C = v_ph / x2, and this criterion's own pins bound it:
    # lambda(7 GHz) = 18.4 +/- 0.1 mm gives C in [6.962, 7.038] GHz and
    # 3.0 +/- 2 % at 2.3 GHz gives [6.762, 7.038] GHz, while 2.4 +/- 2 % at
    # 3.0 GHz would need [7.056, 7.344] GHz, disjoint from both.  The
    # expectation is therefore the ratio implied by the 7 GHz pin.
    r30_expected = (7.0 / 3.0) * (18.4 / x2_mm)
    r30 = lambda_ratio_for_freq(3.0, geom, x2_mm=x2_mm)
    if abs(r30 - r30_expected) / r30_expected > 0.02:
        failures.append(f"ratio at 3.0 GHz = {r30:.4f}, "
                        f"expected {r30_expected:.4f} +/- 2%")
    if abs(derived.z0 - 50.0) / 50.0 > 0.05:
        failures.append(f"Z0 = {derived.z0:.3f} ohm")
    _verdict(criterion_log, 9,
             "coplanar-waveguide design numbers (phase velocity, "
             "wavelengths, impedance)", not failures, "; ".join(failures))


def test_criterion_10_structural_invariants(criterion_log):
    assert X_TRAJS and FULL_TRAJS, "earlier criteria must register trajectories"
    worst_trace, worst_eig, worst_leak = 0.0, 0.0, 0.0
    for states in X_TRAJS:
        for x in states:
            m = x_matrix(x)
            worst_trace = max(worst_trace, abs(float(np.trace(m).real) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m).min()))
    for states in FULL_TRAJS:
        for m in states:
            worst_trace = max(worst_trace, abs(float(np.trace(m).real) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m).min()))
            worst_leak = max(worst_leak, off_x_leakage(m))
    ok = worst_trace <= 1e-9 and worst_eig >= -1e-8 and worst_leak <= 1e-10
    _verdict(criterion_log, 10,
             "trace, positivity and X-shape closure hold along every "
             "acceptance trajectory", ok,
             f"trace drift {worst_trace:.3g}, min eigenvalue {worst_eig:.3g}, "
             f"leakage {worst_leak:.3g}")
