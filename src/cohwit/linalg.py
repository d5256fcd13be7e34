"""Dense complex-Hermitian matrix primitives shared by the rest of the package.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  This module
adds only the validation and trace helpers everything else is built on; the
dimensions stay small (d <= a few hundred), so dense O(d**3) eigensolves are
fine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NonFiniteError, NotHermitianError

# Alias for readability in signatures; any square complex128 array qualifies.
ComplexMatrix = np.ndarray


@dataclass(frozen=True)
class Tolerance:
    """Numeric slack used in validation and detection.

    ``psd_floor`` accepts eigenvalues down to ``-psd_floor`` (they are clamped
    to 0 for reporting); ``detect_eps`` is the margin a witness value must
    clear beyond its interval before a state counts as detected.
    """

    hermiticity: float = 1e-10
    psd_floor: float = 1e-9
    trace_dev: float = 1e-9
    detect_eps: float = 1e-9

    def __post_init__(self):
        for name in ("hermiticity", "psd_floor", "trace_dev", "detect_eps"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"tolerance {name} must be nonnegative")


DEFAULT_TOLERANCE = Tolerance()


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


def _require_hermitian(A: ComplexMatrix, tol: float, what: str) -> None:
    # For an already coerced matrix; a NaN tolerance accepts nothing.
    dev = _deviation(A)
    if not dev <= tol:
        raise NotHermitianError(f"{what} is not Hermitian within {tol}: deviation {dev}")


def _min_eig(A: ComplexMatrix) -> float:
    # Smallest eigenvalue of the Hermitian part of an already coerced matrix.
    return float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])


def hermitian_deviation(matrix: ComplexMatrix) -> float:
    """max_ij |A_ij - conj(A_ji)|."""
    return _deviation(as_complex_matrix(matrix))


def is_hermitian(matrix: ComplexMatrix, tol: float = DEFAULT_TOLERANCE.hermiticity) -> bool:
    """True iff the matrix equals its conjugate transpose within ``tol``."""
    return hermitian_deviation(matrix) <= tol


def trace_product(a: ComplexMatrix, b: ComplexMatrix) -> complex:
    """Tr(a @ b) as sum_ij a_ij b_ji, without forming the product matrix."""
    A = as_complex_matrix(a, what="left operand")
    B = as_complex_matrix(b, what="right operand")
    if A.shape != B.shape:
        raise DimensionMismatchError(f"trace_product dims differ: {A.shape} vs {B.shape}")
    return complex(np.einsum("ij,ji->", A, B))


def min_eigenvalue(matrix: ComplexMatrix, tol: float = DEFAULT_TOLERANCE.hermiticity) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A†)/2.

    Raises NotHermitianError when the input is not Hermitian within ``tol``;
    the symmetrization only absorbs roundoff, never a genuinely skew part.
    """
    A = as_complex_matrix(matrix)
    _require_hermitian(A, tol, "matrix")
    return _min_eig(A)
