"""Dense complex-Hermitian matrix primitives shared by the rest of the package.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  This module
adds only the validation and trace helpers everything else is built on; the
dimensions stay small (d <= a few hundred), so dense O(d**3) eigensolves are
fine.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotHermitianError

# Alias for readability in signatures; any square complex128 array qualifies.
ComplexMatrix = np.ndarray


# Fixed numeric slack.  Validation accepts a deviation from Hermiticity up to
# HERMITICITY_TOL, eigenvalues down to -PSD_FLOOR (clamped to 0 for reporting)
# and a trace within TRACE_DEV of 1.  DETECT_EPS is the default margin a
# witness value must clear beyond its interval before a state counts as
# detected; a witness carries its own margin (``Witness.with_eps``).
HERMITICITY_TOL = 1e-10
PSD_FLOOR = 1e-9
TRACE_DEV = 1e-9
DETECT_EPS = 1e-9


def as_complex_matrix(matrix, *, what: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex128 array with dim >= 2 and finite entries."""
    out = np.asarray(matrix, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {out.shape}")
    if out.shape[0] < 2:
        raise DimensionMismatchError(f"{what} must have dim >= 2, got {out.shape[0]}")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise NonFiniteError(f"{what} contains non-finite entries")
    return out


def _deviation(A: ComplexMatrix) -> float:
    # max_ij |A_ij - conj(A_ji)| of an already coerced matrix.
    return float(np.max(np.abs(A - A.conj().T)))


def _require_hermitian(A: ComplexMatrix, what: str) -> None:
    # For an already coerced matrix.
    dev = _deviation(A)
    if not dev <= HERMITICITY_TOL:
        raise NotHermitianError(f"{what} is not Hermitian within {HERMITICITY_TOL}: deviation {dev}")


def _min_eig(A: ComplexMatrix) -> float:
    # Smallest eigenvalue of the Hermitian part of an already coerced matrix.
    return float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])


def hermitian_deviation(matrix: ComplexMatrix) -> float:
    """max_ij |A_ij - conj(A_ji)|."""
    return _deviation(as_complex_matrix(matrix))


def is_hermitian(matrix: ComplexMatrix, tol: float = HERMITICITY_TOL) -> bool:
    """True iff the matrix equals its conjugate transpose within ``tol``."""
    return hermitian_deviation(matrix) <= tol


def trace_product(a: ComplexMatrix, b: ComplexMatrix) -> complex:
    """Tr(a @ b) as sum_ij a_ij b_ji, without forming the product matrix."""
    A = as_complex_matrix(a, what="left operand")
    B = as_complex_matrix(b, what="right operand")
    if A.shape != B.shape:
        raise DimensionMismatchError(f"trace_product dims differ: {A.shape} vs {B.shape}")
    return complex(np.einsum("ij,ji->", A, B))


def min_eigenvalue(matrix: ComplexMatrix) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A†)/2.

    Raises NotHermitianError when the input is not Hermitian within
    ``HERMITICITY_TOL``;
    the symmetrization only absorbs roundoff, never a genuinely skew part.
    """
    A = as_complex_matrix(matrix)
    _require_hermitian(A, "matrix")
    return _min_eig(A)
