"""Digital simulation of gravitationally induced optomechanical entanglement.

Two bosonic modes, truncated to their lowest two levels and dual-rail
encoded on four qubits, evolve under a bilinear coupling whose exponential
factors exactly into four commuting Pauli rotations. The package builds that
circuit, transpiles it to a CNOT-limited device basis, computes its exact
outcome distribution under depolarising and readout noise, samples from it,
and estimates entanglement fidelity from five tomography settings with readout
mitigation and post-selection.
"""

__version__ = "0.1.0"

from .analysis import (
    FidelityReport,
    LogicalState,
    concurrence,
    concurrence_theory,
    exact_state,
    exact_traces,
    fidelity_error,
    fidelity_exact,
    fidelity_from_traces,
    perturbative_state,
    perturbative_traces,
    trace_uncertainty,
)
from .bosonmap import (
    CouplingParameters,
    ModeEncoding,
    PHYSICAL_BITSTRINGS,
    ground_state_prep,
    mapped_hamiltonian,
    physical_subspace,
)
from .circuit import Circuit, Gate, phase_distance, unitary_of
from .digitizer import build_evolution_circuit, compile_pauli_exponential, decompose_term
from .errors import CapacityError, ConfigError, RoutingError
from .experiment import (
    DEFAULT_EPSILONS,
    ExperimentConfig,
    NOISE_PRESETS,
    emit_outputs,
    run_point,
    run_sweep,
)
from .pauli import PauliString, PauliSum
from .qasm import emit as qasm_emit
from .qasm import parse as qasm_parse
from .simulator import (
    CountsHistogram,
    NoiseModel,
    align_global_phase,
    born_probabilities,
    noisy_probabilities,
    outcome_distributions,
    run_ideal,
    run_noisy,
    sample_counts,
)
from .tomography import (
    ConfusionMatrix,
    MeasurementSetting,
    SETTING_LABELS,
    TomographyResult,
    calibrate_confusion,
    estimate_traces,
    measurement_circuits,
    mitigate,
    postselect,
)
from .transpiler import (
    Layout,
    RoutedCircuit,
    Topology,
    hub_layout,
    lower_to_basis,
    route,
    simplify,
    transpile,
)

__all__ = [
    "CapacityError",
    "Circuit",
    "ConfigError",
    "ConfusionMatrix",
    "CountsHistogram",
    "CouplingParameters",
    "DEFAULT_EPSILONS",
    "ExperimentConfig",
    "FidelityReport",
    "Gate",
    "Layout",
    "LogicalState",
    "MeasurementSetting",
    "ModeEncoding",
    "NOISE_PRESETS",
    "NoiseModel",
    "PHYSICAL_BITSTRINGS",
    "PauliString",
    "PauliSum",
    "RoutedCircuit",
    "RoutingError",
    "SETTING_LABELS",
    "TomographyResult",
    "Topology",
    "align_global_phase",
    "born_probabilities",
    "build_evolution_circuit",
    "calibrate_confusion",
    "compile_pauli_exponential",
    "concurrence",
    "concurrence_theory",
    "decompose_term",
    "emit_outputs",
    "estimate_traces",
    "exact_state",
    "exact_traces",
    "fidelity_error",
    "fidelity_exact",
    "fidelity_from_traces",
    "ground_state_prep",
    "hub_layout",
    "lower_to_basis",
    "mapped_hamiltonian",
    "measurement_circuits",
    "mitigate",
    "noisy_probabilities",
    "outcome_distributions",
    "perturbative_state",
    "perturbative_traces",
    "phase_distance",
    "physical_subspace",
    "postselect",
    "qasm_emit",
    "qasm_parse",
    "route",
    "run_ideal",
    "run_noisy",
    "run_point",
    "run_sweep",
    "sample_counts",
    "simplify",
    "trace_uncertainty",
    "transpile",
    "unitary_of",
]
