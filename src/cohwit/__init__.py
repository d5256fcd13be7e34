"""Coherence witnesses for d-dimensional quantum states.

Build Hermitian witnesses whose expectation on every diagonal state stays
inside the interval spanned by their own diagonal; a measured value outside
that interval certifies off-diagonal content (coherence).  The package covers
witness constructors (including the d(d-1)-member family that jointly detects
every coherent state), validated density matrices, deterministic samplers, an
l1-norm coherence oracle, ensemble verification sweeps, and a CLI.
"""

from .errors import (
    CohwitError,
    DegenerateFamilyError,
    DimensionMismatchError,
    DocumentError,
    IndexOutOfRangeError,
    InvalidIntervalError,
    InvalidParameterError,
    InvalidStateError,
    LengthMismatchError,
    NonFiniteError,
    NotCoherentError,
    NotHermitianError,
    NumericallyMarginalWarning,
    OutOfIntervalError,
    ZeroCoefficientError,
    ZeroOperatorError,
)
from .generators import bloch_vector, generator, state_from_bloch
from .linalg import DETECT_EPS, is_hermitian, min_eigenvalue
from .states import (
    DensityMatrix,
    canonical_coherent,
    incoherent_with_value,
    l1_coherence,
    l1_coherence_batch,
    qubit_state,
    sample_ensemble,
    sample_ginibre,
    sample_hermitian,
    sample_incoherent,
    validate_states,
)
from .verify import (
    COHERENCE_THRESHOLD,
    CoverageReport,
    GeometryReport,
    qubit_geometry_check,
    verify_coverage,
)
from .witness import (
    DetectionReport,
    Verdict,
    Witness,
    WitnessFamily,
    canonical_witness,
    finite_family,
    generator_witness,
    is_effective_qubit,
    qubit_pair_family,
    qubit_witness,
    tailored_witness,
    witness_for_state,
)

__version__ = "0.1.0"

__all__ = [
    "CohwitError",
    "DegenerateFamilyError",
    "DimensionMismatchError",
    "DocumentError",
    "IndexOutOfRangeError",
    "InvalidIntervalError",
    "InvalidParameterError",
    "InvalidStateError",
    "LengthMismatchError",
    "NonFiniteError",
    "NotCoherentError",
    "NotHermitianError",
    "NumericallyMarginalWarning",
    "OutOfIntervalError",
    "ZeroCoefficientError",
    "ZeroOperatorError",
    "bloch_vector",
    "generator",
    "state_from_bloch",
    "DETECT_EPS",
    "is_hermitian",
    "min_eigenvalue",
    "DensityMatrix",
    "canonical_coherent",
    "incoherent_with_value",
    "l1_coherence",
    "l1_coherence_batch",
    "qubit_state",
    "sample_ensemble",
    "sample_ginibre",
    "sample_hermitian",
    "sample_incoherent",
    "validate_states",
    "COHERENCE_THRESHOLD",
    "CoverageReport",
    "GeometryReport",
    "qubit_geometry_check",
    "verify_coverage",
    "DetectionReport",
    "Verdict",
    "Witness",
    "WitnessFamily",
    "canonical_witness",
    "finite_family",
    "generator_witness",
    "is_effective_qubit",
    "qubit_pair_family",
    "qubit_witness",
    "tailored_witness",
    "witness_for_state",
    "__version__",
]
