"""qcorr: multi-time output correlators of continuously measured qubits.

Simulates simultaneous continuous measurement of several qubit observables
as stochastic signal records and evaluates their multi-time correlators
three independent ways: Monte Carlo estimation from records, exact
evaluation (a linear-time transfer product over quantum Bayesian event maps,
checked against a brute-force collapse sum), and the pair-product
factorization valid for unital evolution without phase backaction.
"""

from .analytic import (
    BRUTE_FORCE_MAX_EVENTS,
    CorrelatorSpec,
    brute_force_correlator,
    chain_correlator,
    factorized_correlator,
    mean_signal,
    two_time_correlator,
    window_mean_state,
)
from .bloch import (
    EnsembleModel,
    MeasurementChannel,
    build_ensemble_model,
    measurement_dephasing_generator,
    ordered_propagator,
    propagate_ensemble,
)
from .config import RunSetup, load_config, parse_config
from .empirical import (
    CorrelatorEstimate,
    Window,
    estimate_correlator,
    merge_estimates,
    trajectory_window_means,
    window_means,
)
from .errors import (
    ConfigError,
    EstimateMismatchError,
    FactorizationInapplicableError,
    IntegrationDivergedError,
    MagicMismatchError,
    QcorrError,
    RecordFormatError,
    SpecSizeError,
    TruncatedRecordError,
    ValidationError,
    VersionMismatchError,
)
from .noise import trajectory_draws, trajectory_generator
from .recordio import read_header, read_records, simulate_records, write_records
from .replica import (
    FourTimeSummary,
    ReplicaConfig,
    ScanRow,
    four_time_scan,
    replica_model,
    three_time_scan,
)
from .trajectory import (
    RecordSet,
    SimConfig,
    TimestepWarning,
    simulate_ensemble,
    simulate_range,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_EVENTS",
    "ConfigError",
    "CorrelatorEstimate",
    "CorrelatorSpec",
    "EnsembleModel",
    "EstimateMismatchError",
    "FactorizationInapplicableError",
    "FourTimeSummary",
    "IntegrationDivergedError",
    "MagicMismatchError",
    "MeasurementChannel",
    "QcorrError",
    "RecordFormatError",
    "RecordSet",
    "ReplicaConfig",
    "RunSetup",
    "ScanRow",
    "SimConfig",
    "SpecSizeError",
    "TimestepWarning",
    "TruncatedRecordError",
    "ValidationError",
    "VersionMismatchError",
    "Window",
    "brute_force_correlator",
    "build_ensemble_model",
    "chain_correlator",
    "estimate_correlator",
    "factorized_correlator",
    "four_time_scan",
    "load_config",
    "mean_signal",
    "measurement_dephasing_generator",
    "merge_estimates",
    "ordered_propagator",
    "parse_config",
    "propagate_ensemble",
    "read_header",
    "read_records",
    "replica_model",
    "simulate_ensemble",
    "simulate_range",
    "simulate_records",
    "three_time_scan",
    "trajectory_draws",
    "trajectory_generator",
    "trajectory_window_means",
    "two_time_correlator",
    "window_mean_state",
    "window_means",
    "write_records",
]
