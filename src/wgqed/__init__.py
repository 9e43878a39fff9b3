"""Entanglement dynamics of two qubits coupled to a shorted transmission line."""

from .linalg import (
    fidelity,
    partial_trace,
    tensor,
)
from .model import (
    DerivedRates,
    WaveguideParams,
    build_generator,
    build_hamiltonian,
    derive_rates,
    mhz,
)
from .dynamics import (
    IntegrationError,
    evolve_full,
    evolve_xstate,
    off_x_leakage,
    x_matrix,
)
from .entangle import (
    EsdReport,
    concurrence_wootters,
    concurrence_x,
    detect_events,
    esd_threshold,
    pw_concurrence_closed,
)
from .states import (
    MixResult,
    PrepConfig,
    PrepResult,
    RabiConfig,
    mixed_qubit,
    prepare_pw,
    pseudo_werner,
    pw_vector,
    wait_time_for_f,
    werner,
    werner_vector,
)
from .cpw import CpwDerived, CpwGeometry, cpw_derive, lambda_ratio_for_freq, wavelength

__version__ = "0.1.0"
