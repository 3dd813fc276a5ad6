"""Cavity-mediated streaming photonic QFT: simulator and error-budget toolkit."""

from .cavity import (
    CavityParams,
    OperatingPoint,
    ReflectionResult,
    ZeemanConfig,
    controlled_phase,
    default_operating_point,
    quantum_dot_params,
    reflection,
    solve_stark_shift,
    zeeman_splitting,
)
from .circuit import (
    H_ATOM,
    H_PHOTON,
    STEP,
    QuantumState,
    apply_gate,
    build_qft_program,
    ideal_qft_unitary,
    run_steps,
    simulate_program,
)
from .scheduler import TimingConfig, compile_timeline, timeline_to_program, validate_timeline
from .analysis import (
    DistanceReport,
    MeasurementDiag,
    NoiseBudget,
    brute_force_postselection_distance,
    max_photons,
    postselection_distance,
    sweep_success,
    total_distance,
    validate_bound_small_n,
)

__version__ = "0.1.0"
