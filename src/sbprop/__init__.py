"""Spin-boson dynamics with intensity-dressed couplings.

Builds the truncated transfer matrix for a two-level system coupled to a
single field mode, steps states with a certified Taylor-series propagator,
and cross-checks against an exact eigendecomposition reference.
"""

from .cache import (
    CacheCorruptError,
    CacheEntry,
    PropagatorCache,
    canonical_blob,
    default_cache_dir,
    propagator_fingerprint,
)
from .config import ConfigError, RunConfig, load_run_config, parse_p_values
from .model import (
    ModelParams,
    TransferMatrix,
    Truncation,
    build_transfer_matrix,
)
from .propagator import (
    NonFiniteState,
    NotConverged,
    NotUnitary,
    PropagatorConfig,
    StepPropagator,
    advance,
    build_step_propagator,
    evolve,
    evolve_reusing,
    suggest_step,
)
from .spectral import (
    GsScanResult,
    NonHermitianInput,
    SpectralDecomposition,
    diagonalize,
    gs_scan,
    lowest_energies,
    teee_evolve,
)
from .states import (
    CoherentSpec,
    SpinorFockState,
    TailMassTooLarge,
    coherent_state,
    fock_state,
)
from .trajectory import CSV_COLUMNS, Trajectory, csv_lines, observe

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "CacheCorruptError",
    "CacheEntry",
    "CoherentSpec",
    "ConfigError",
    "GsScanResult",
    "ModelParams",
    "NonFiniteState",
    "NonHermitianInput",
    "NotConverged",
    "NotUnitary",
    "PropagatorCache",
    "PropagatorConfig",
    "RunConfig",
    "SpectralDecomposition",
    "SpinorFockState",
    "StepPropagator",
    "TailMassTooLarge",
    "Trajectory",
    "TransferMatrix",
    "Truncation",
    "advance",
    "build_step_propagator",
    "build_transfer_matrix",
    "canonical_blob",
    "coherent_state",
    "csv_lines",
    "default_cache_dir",
    "diagonalize",
    "evolve",
    "evolve_reusing",
    "fock_state",
    "gs_scan",
    "load_run_config",
    "lowest_energies",
    "observe",
    "parse_p_values",
    "propagator_fingerprint",
    "suggest_step",
    "teee_evolve",
    "__version__",
]
