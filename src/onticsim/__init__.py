"""Finite-dimensional quantum states from bit vectors: Hilbert-space
factorization, subsystem entropies, and permutation evolutions."""

__version__ = "0.24.0"

from .bitstate import (
    OnticVector,
    complement,
    inner_ontic,
    overlap_standard,
    popcount,
    random_ontic,
)
from .entropy import (
    Spectrum,
    collision_entropy,
    renyi_entropy,
    spectrum_of,
    von_neumann_entropy,
)
from .errors import (
    AlphaOne,
    ConfigError,
    DegenerateState,
    DimensionCap,
    DomainError,
    EmptyInput,
    InvalidCycle,
    LengthMismatch,
    NotHermitian,
    NumericViolation,
    OnticsimError,
    SizeMismatch,
    TrivialSubsystem,
)
from .experiment import (
    CycleCensus,
    CycleCountStat,
    SizeSummary,
    SweepConfig,
    SweepResult,
    SweepSummary,
    run_cycle_census,
    run_sweep,
    run_time_series,
    summarize_by_size,
    sweep_csv,
)
from .indexing import (
    FactorizationShape,
    SubsystemMask,
    natural_state_lower_bound,
    orthant_sphere_area,
)
from .permrep import (
    EnergyBasis,
    Permutation,
    energy_basis,
    random_permutation,
)
from .reduction import (
    purity,
    reduced_density,
)
from .states import (
    DensityMatrix,
    PureState,
    project_standard,
    state_from_ontic,
)
