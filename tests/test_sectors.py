"""Excitation-number sectors: every generator the package builds maps each sector
q = n(i) - n(j) of vec(rho) into itself, and the X maps and the preparation gates
are built on them."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgqed.states
from wgqed.dynamics import X_IN, X_OUT
from wgqed.linalg import SIGMA_MINUS, SIGMA_PLUS, I2, sector, tensor_all
from wgqed.model import WaveguideParams, build_generator, derive_rates, lindblad_generator, mhz
from wgqed.states import XY_BA, XY_CB, PrepConfig, RabiConfig, mixed_qubit, prepare_pw
from xstate_oracles import dissipative_gate_unrestricted, hand_x_maps


def charges(n_qubits: int) -> np.ndarray:
    """q of every row-major vec(rho) index, from the diagonal of the number operator."""
    number = sum(tensor_all(*[SIGMA_PLUS @ SIGMA_MINUS if k == j else I2
                              for k in range(n_qubits)]) for j in range(n_qubits))
    n = number.diagonal().real
    return np.subtract.outer(n, n).ravel()


def leaves_sectors(gen: np.ndarray, n_qubits: int) -> bool:
    """Whether gen has a nonzero entry between two different sectors."""
    q = charges(n_qubits)
    return bool(np.any(gen[q[:, None] != q[None, :]] != 0))


def built_generators(run) -> list[np.ndarray]:
    """Every generator wgqed.states builds with lindblad_generator while run() runs."""
    built = []

    def record(*args):
        built.append(lindblad_generator(*args))
        return built[-1]

    with mock.patch.object(wgqed.states, "lindblad_generator", record):
        run()
    return built


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_sectors_partition_vec_rho_by_charge(n_qubits):
    q = charges(n_qubits)
    parts = [sector(n_qubits, k) for k in range(-n_qubits, n_qubits + 1)]
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(4**n_qubits))
    for k, part in zip(range(-n_qubits, n_qubits + 1), parts):
        assert (q[part] == k).all() and np.all(np.diff(part) > 0)
    assert sector(n_qubits, n_qubits + 1).size == 0


def test_sector_sizes_of_the_x_support_and_the_register():
    assert sector(2, 0).tolist() == [0, 5, 6, 9, 10, 15]
    assert sector(2, -2).tolist() == [3] and sector(2, 2).tolist() == [12]
    assert sector(3, 0).size == 20


def test_x_maps_equal_the_hand_written_ones():
    hand_in, hand_out = hand_x_maps()
    assert (X_IN == hand_in).all() and (X_OUT == hand_out).all()


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.0, mhz(100.0)), gamma_nr=st.floats(0.0, mhz(1.0)),
       ratio=st.floats(0.5, 10.0), delta_bare=st.floats(-mhz(5.0), mhz(5.0)),
       g=st.floats(-mhz(5.0), mhz(5.0)))
def test_two_qubit_generator_keeps_sectors(gamma, gamma_nr, ratio, delta_bare, g):
    p = WaveguideParams(gamma=gamma, gamma_nr=gamma_nr, lambda_ratio=ratio,
                        delta_bare=delta_bare, g=g)
    assert not leaves_sectors(build_generator(derive_rates(p), p), 2)


MHZ = st.floats(0.5, 50.0)


@settings(max_examples=40, deadline=None)
@given(f=st.floats(0.0, 1.0), g=MHZ, g_bc=MHZ, gamma_nr=st.floats(0.0, 5.0))
def test_dissipative_gates_keep_sectors_and_match_the_full_propagation(f, g, g_bc, gamma_nr):
    cfg = PrepConfig(f=f, with_dissipation=True, g_strength=mhz(g), g_bc_strength=mhz(g_bc),
                     gamma_nr=mhz(gamma_nr))
    exact_cfg = replace(cfg, with_dissipation=False)  # ignores g, g_bc and gamma_nr
    gens = built_generators(lambda: (prepare_pw(cfg), prepare_pw(exact_cfg)))
    assert len(gens) == 4 and not any(leaves_sectors(gen, 3) for gen in gens)
    res, exact = prepare_pw(cfg), prepare_pw(exact_cfg)
    lossless = prepare_pw(replace(cfg, gamma_nr=0.0))
    t1, t2 = res.gate_durations_us
    rho2 = dissipative_gate_unrestricted(res.rho1, -mhz(g) * XY_BA, t1, mhz(gamma_nr))
    rho3 = dissipative_gate_unrestricted(rho2, -mhz(g_bc) * XY_CB, t2, mhz(gamma_nr))
    off = charges(3) != 0
    for got, full in ((res.rho2, rho2), (res.rho3, rho3), (exact.rho2, lossless.rho2),
                      (exact.rho3, lossless.rho3)):
        assert (got.reshape(-1)[off] == 0.0).all()
        assert np.abs(got - full).max() <= 1e-15


@settings(max_examples=20, deadline=None)
@given(omega=st.floats(0.1, 50.0), gamma_nr=st.floats(1.0, 10.0), wait=st.floats(0.1, 1.0))
def test_mix_wait_segment_keeps_sectors_and_the_drive_does_not(omega, gamma_nr, wait):
    cfg = RabiConfig(omega=mhz(omega), gamma_nr=mhz(gamma_nr), pulse_duration=1.0,
                     wait_duration=wait, sample_dt=0.05)
    driven, free = built_generators(lambda: mixed_qubit(cfg))
    assert not leaves_sectors(free, 1)
    assert leaves_sectors(driven, 1)  # the drive mixes |0> and |1>: no symmetry to use
