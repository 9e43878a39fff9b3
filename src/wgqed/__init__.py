"""Entanglement dynamics of two qubits coupled to a shorted transmission line."""

from .linalg import (
    fidelity,
    tensor,
)
from .model import (
    DerivedRates,
    WaveguideParams,
    build_generator,
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
    PrepConfig,
    PrepResult,
    RabiConfig,
    mixed_qubit,
    prepare_pw,
    pseudo_werner,
    pw_vector,
    wait_time_for_f,
    werner_vector,
)
from .cpw import CpwDerived, CpwGeometry, cpw_derive, lambda_ratio_for_freq, wavelength

__version__ = "0.1.0"
