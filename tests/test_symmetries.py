"""The map's exact symmetries: the rates as one mirror Green's function, equal bit for bit to the
paper's cos/sin closed forms and of rank one, whose dark mode decays at gamma_nr alone once the
detuning and the direct coupling compensate the shifts and g_x, and three maps of the parameters
that leave every death set and every concurrence curve in place.

Every rate is a multiple of the phase phi = 2 pi x2 / lambda.  S1: r and r / (1 + r) have phases
phi and phi + 2 pi.  S2: r and r / (r - 1) have phases phi and 2 pi - phi, which conjugates the
generator, and concurrence is invariant under rho -> rho*, so a real family (Werner) keeps its
death set and its curves; pseudo-Werner, whose coherence z is imaginary, maps to its conjugate
family (Im z -> -Im z).  S3: scaling gamma and gamma_nr together scales the generator and its time
window inversely.  Draws are on the grid lambda/x2 = 1.05 + 0.005 k, k = 0..390, where each holds
on the death sets to within 2.4e-14 and on the curves (f = 0.35..1, over 8 / gamma in 1000
steps) to within 5.8e-14.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgqed.dynamics import evolve_xstate
from wgqed.entangle import F_LO, death_set, trajectory_concurrences
from wgqed.model import WaveguideParams, derive_rates, generator_coefficients, mhz
from wgqed.states import FAMILIES

GAMMA, GAMMA_NR = mhz(5.0), mhz(0.03)
PARAMS = WaveguideParams(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=2.0)
GRID = 1.05 + 0.005 * np.arange(391)
ratios = st.sampled_from(GRID.tolist())
families = st.sampled_from(sorted(F_LO))
few = settings(max_examples=6, deadline=None)
FS = np.linspace(0.35, 1.0, 14)
#: X vector signs that conjugate a state: Im z -> -Im z, Im w -> -Im w
CONJUGATE = np.array([1, 1, 1, 1, 1, -1, 1, -1])


def assert_same_set(got, want):
    assert len(got) == len(want), f"{got} against {want}"
    np.testing.assert_allclose(np.reshape(got, (-1, 2)), np.reshape(want, (-1, 2)),
                               rtol=0, atol=1e-13)


def test_rates_are_one_mirror_greens_function():
    # G_ij = e^(ik|x_i - x_j|) + e^(ik(x_i + x_j)) at k x_a = phi/2, k x_b = 3 phi/2:
    # Gamma_ij - gamma_nr delta_ij = gamma Re G_ij, shifts (gamma/2) Im G_ii, g_x (gamma/2) Im G_ab
    r = derive_rates(SimpleNamespace(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=GRID))
    kx = np.stack([r.phi / 2, 3 * r.phi / 2], axis=-1)[:, :, None]
    g = np.exp(1j * np.abs(kx - kx.swapaxes(1, 2))) + np.exp(1j * (kx + kx.swapaxes(1, 2)))
    for got, want in [(r.gamma_a - GAMMA_NR, GAMMA * g[:, 0, 0].real),
                      (r.gamma_b - GAMMA_NR, GAMMA * g[:, 1, 1].real),
                      (r.gamma_col, GAMMA * g[:, 0, 1].real),
                      (r.d_omega1, GAMMA / 2 * g[:, 0, 0].imag),
                      (r.d_omega2, GAMMA / 2 * g[:, 1, 1].imag),
                      (r.g_x, GAMMA / 2 * g[:, 0, 1].imag)]:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * GAMMA)


def closed_forms(gamma, gamma_nr, ratio):
    """Gamma_a, Gamma_b, Gamma_col, g_x, d_omega1 and d_omega2 as cos and sin of phi."""
    phi = 2 * np.pi / ratio
    c1, c2, c3 = np.cos(phi), np.cos(2 * phi), np.cos(3 * phi)
    s1, s2, s3 = np.sin(phi), np.sin(2 * phi), np.sin(3 * phi)
    return (gamma * (1 + c1) + gamma_nr, gamma * (1 + c3) + gamma_nr, gamma * (c1 + c2),
            gamma * (s1 + s2) / 2, gamma / 2 * s1, gamma / 2 * s3)


@pytest.mark.parametrize("gamma", [mhz(1e-3), GAMMA, mhz(1e3), mhz(1e12)])
def test_rates_equal_the_closed_forms_bit_for_bit(gamma):
    # the array path over the grid and the scalar path at the pinned ratios
    runs = [(SimpleNamespace(gamma=gamma, gamma_nr=GAMMA_NR, lambda_ratio=GRID), GRID)]
    runs += [(WaveguideParams(gamma=gamma, gamma_nr=GAMMA_NR, lambda_ratio=x), x)
             for x in (1.2, 4 / 3, 1.5, 2.0, 3.0)]
    for p, ratio in runs:
        r = derive_rates(p)
        got = (r.gamma_a, r.gamma_b, r.gamma_col, r.g_x, r.d_omega1, r.d_omega2)
        for field, want in zip(got, closed_forms(gamma, GAMMA_NR, ratio)):
            assert np.array_equal(field, want), "grid" if np.ndim(ratio) else f"ratio {ratio}"


def test_the_rate_matrix_is_rank_one_with_a_dark_mode():
    # Gamma - gamma_nr I = 2 gamma u u^T with u = (cos phi/2, cos 3 phi/2), so v = (u_b, -u_a)
    # never radiates
    r = derive_rates(SimpleNamespace(gamma=GAMMA, gamma_nr=GAMMA_NR,
                                     lambda_ratio=1.05 + 0.005 * np.arange(991)))
    rates = np.array([[r.gamma_a - GAMMA_NR, r.gamma_col],
                      [r.gamma_col, r.gamma_b - GAMMA_NR]]).transpose(2, 0, 1)
    u = np.stack([np.cos(r.phi / 2), np.cos(3 * r.phi / 2)], axis=-1)
    np.testing.assert_allclose(rates, 2 * GAMMA * u[:, :, None] * u[:, None, :],
                               rtol=0, atol=2e-15 * GAMMA)
    v = np.stack([u[:, 1], -u[:, 0]], axis=-1)
    np.testing.assert_allclose(np.einsum("nij,nj->ni", rates, v), 0, rtol=0, atol=2e-15 * GAMMA)


def test_full_compensation_leaves_the_dark_mode_at_gamma_nr():
    # Lalumiere et al., PRA 88, 043806 (2013): delta_bare = d_omega2 - d_omega1 and g = -g_x make
    # H_1 = 0, so the one-excitation decay rates kappa = -2 Im eig(H_1 - (i/2) Gamma) are gamma_nr
    # (the dark mode) and gamma_nr + 2 gamma |u|^2
    r = derive_rates(SimpleNamespace(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=GRID))
    p = SimpleNamespace(delta_bare=r.d_omega2 - r.d_omega1, g=-r.g_x)
    th = generator_coefficients(r, p)
    h1 = np.array([[(th[0] - th[1]) / 2, th[2]], [th[2], (th[1] - th[0]) / 2]])
    np.testing.assert_allclose(h1, 0, rtol=0, atol=1e-15 * GAMMA)
    rates = np.array([[th[3], th[4]], [th[4], th[5]]])
    h_eff = (h1 - 0.5j * rates).transpose(2, 0, 1)
    kappa = np.sort(-2 * np.linalg.eigvals(h_eff).imag, axis=-1)
    np.testing.assert_allclose(kappa[:, 0], GAMMA_NR, rtol=1e-12)


@few
@given(ratios)
@example(4 / 3)  # C(t) tends to exp(-gamma_nr t) / 2: entanglement trapped in the dark mode
def test_compensated_single_excitation_concurrence_is_closed_form(ratio):
    # psi(t) = exp(-gamma_nr t/2) [(I - P) + exp(-gamma |u|^2 t) P] (1, 0), P = u u^T / |u|^2,
    # over (a excited, b excited) from one excitation on qubit a, so C(t) = 2 |psi_a psi_b|
    r = derive_rates(WaveguideParams(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=ratio))
    p = WaveguideParams(gamma=GAMMA, gamma_nr=GAMMA_NR, lambda_ratio=ratio,
                        delta_bare=r.d_omega2 - r.d_omega1, g=-r.g_x)
    x0 = np.eye(8)[1]  # b = 1: the population of |01>, qubit a excited
    times, states = evolve_xstate(x0, derive_rates(p), p, 2.0, 0.005)
    u = np.array([np.cos(r.phi / 2), np.cos(3 * r.phi / 2)])
    p1 = u[0] * u / (u @ u)  # P (1, 0)
    decay = np.exp(-GAMMA * (u @ u) * times)[:, None]
    psi = np.exp(-GAMMA_NR * times / 2)[:, None] * (np.array([1.0, 0.0]) - p1 + decay * p1)
    assert len(times) == 401
    np.testing.assert_allclose(trajectory_concurrences(states), 2 * np.abs(psi[:, 0] * psi[:, 1]),
                               rtol=0, atol=1e-13)


@few
@given(ratios, families)
@example(1.2, "werner")
@example(1.9, "pw")
def test_s1_one_period_of_the_phase_keeps_the_death_set(r, family):
    assert_same_set(death_set(r / (1 + r), PARAMS, family), death_set(r, PARAMS, family))


@few
@given(ratios)
@example(1.2)  # and 6
@example(1.9)  # and 2.11
@example(2.5)  # and 1.667
def test_s2_the_reflected_phase_keeps_the_werner_death_set(r):
    assert_same_set(death_set(r / (r - 1), PARAMS, "werner"), death_set(r, PARAMS, "werner"))


@few
@given(ratios, families, st.sampled_from([1e-3, 10.0, 1e3]))
def test_s3_scaling_both_rates_keeps_the_death_set(r, family, scale):
    scaled = WaveguideParams(gamma=GAMMA * scale, gamma_nr=GAMMA_NR * scale, lambda_ratio=2.0)
    assert_same_set(death_set(r, scaled, family), death_set(r, PARAMS, family))


def concurrences(r, x0s, scale=1.0):
    """Concurrence curves of a stack of X states at lambda/x2 = r, over 8 / gamma in 1000 steps,
    with gamma and gamma_nr scaled by scale."""
    p = WaveguideParams(gamma=GAMMA * scale, gamma_nr=GAMMA_NR * scale, lambda_ratio=r)
    t_max = 8.0 / p.gamma
    return trajectory_concurrences(evolve_xstate(x0s, derive_rates(p), p, t_max, t_max / 1000)[1])


def assert_same_curves(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@few
@given(ratios, families)
def test_s1_one_period_of_the_phase_keeps_the_concurrence(r, family):
    x0s = FAMILIES[family](FS)
    assert_same_curves(concurrences(r / (1 + r), x0s), concurrences(r, x0s))


@few
@given(ratios)
@example(1.2)
def test_s2_the_reflected_phase_keeps_the_werner_concurrence(r):
    x0s = FAMILIES["werner"](FS)
    assert_same_curves(concurrences(r / (r - 1), x0s), concurrences(r, x0s))


@few
@given(ratios)
@example(1.2)
def test_s2_the_reflected_phase_maps_pseudo_werner_to_its_conjugate(r):
    x0s = FAMILIES["pw"](FS)
    assert_same_curves(concurrences(r / (r - 1), x0s * CONJUGATE), concurrences(r, x0s))


def test_s2_does_not_keep_the_pseudo_werner_concurrence():
    # the negative control: unconjugated, the curves differ by 0.46 at 1.2 (0.55 at 1.275)
    x0s = FAMILIES["pw"](FS)
    assert np.abs(concurrences(1.2 / (1.2 - 1), x0s) - concurrences(1.2, x0s)).max() > 0.4


@few
@given(ratios, families, st.sampled_from([1e-3, 10.0, 1e3]))
def test_s3_scaling_both_rates_keeps_the_concurrence(r, family, scale):
    x0s = FAMILIES[family](FS)
    assert_same_curves(concurrences(r, x0s, scale), concurrences(r, x0s))
