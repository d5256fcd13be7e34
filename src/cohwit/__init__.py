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
from .generators import (
    OFFDIAG_TOL,
    GeneratorBasis,
    bloch_vector,
    generator,
    generator_basis,
    offdiag_support,
    state_from_bloch,
)
from .linalg import DETECT_EPS, ComplexMatrix, is_hermitian, min_eigenvalue, trace_product
from .rng import Seed, SplitMix64
from .states import (
    DensityMatrix,
    IncoherentState,
    canonical_coherent,
    incoherent_with_value,
    l1_coherence,
    qubit_state,
    sample_ginibre,
    sample_hermitian,
    sample_incoherent,
)
from .verify import (
    COHERENCE_THRESHOLD,
    ContainmentReport,
    CoverageReport,
    GeometryReport,
    mixed_ensemble,
    qubit_geometry_check,
    verify_coverage,
    verify_incoherent_containment,
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
    "OFFDIAG_TOL",
    "GeneratorBasis",
    "bloch_vector",
    "generator",
    "generator_basis",
    "offdiag_support",
    "state_from_bloch",
    "DETECT_EPS",
    "ComplexMatrix",
    "is_hermitian",
    "min_eigenvalue",
    "trace_product",
    "Seed",
    "SplitMix64",
    "DensityMatrix",
    "IncoherentState",
    "canonical_coherent",
    "incoherent_with_value",
    "l1_coherence",
    "qubit_state",
    "sample_ginibre",
    "sample_hermitian",
    "sample_incoherent",
    "COHERENCE_THRESHOLD",
    "ContainmentReport",
    "CoverageReport",
    "GeometryReport",
    "mixed_ensemble",
    "qubit_geometry_check",
    "verify_coverage",
    "verify_incoherent_containment",
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
