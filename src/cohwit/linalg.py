"""Dense complex-Hermitian matrix primitives shared by the rest of the package.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  This module
holds the matrix checks everything else is built on, each written once for an
(n, d, d) stack S: a check names S's first failing matrix t as
``what.format(t=start + t)``, and a single matrix M is checked as ``M[None]``.
The dimensions stay small (d <= a few hundred), so dense O(d**3) eigensolves
are fine.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NonFiniteError, NotHermitianError

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

# Largest memory estimate (coverage_bytes, bloch_bytes, the CLI's
# document_bytes, generator_bytes, finite_family_bytes) a task may have; a
# larger one is refused before anything is allocated.
MAX_COVERAGE_BYTES = 1 << 30


def _require_bytes(need: int, task: str) -> None:
    if need > MAX_COVERAGE_BYTES:
        raise InvalidParameterError(
            f"{task} needs about {need} bytes, more than the {MAX_COVERAGE_BYTES} allowed"
        )


def _dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _first(bad: np.ndarray, what: str, start: int = 0) -> tuple[int, str]:
    t = int(np.argmax(bad))
    return t, what.format(t=start + t)


def _as_stack(a, one: str | None = None) -> np.ndarray:
    # a as a complex128 stack with d >= 2; with `one`, a is the matrix so named.
    S = np.asarray(a, dtype=np.complex128)
    S = S if one is None else S[None]
    if S.ndim == 3 and S.shape[1] == S.shape[2] and S.shape[1] >= 2:
        return S
    if one is None:
        raise DimensionMismatchError(f"state stack must have shape (n, d, d), d >= 2, got {S.shape}")
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise DimensionMismatchError(f"{one} must be square, got shape {S.shape[1:]}")
    raise DimensionMismatchError(f"{one} must have dim >= 2, got {S.shape[1]}")


def _require_finite(S: np.ndarray, what: str, start: int = 0) -> None:
    bad = ~np.isfinite(S).all(axis=(1, 2))
    if bad.any():
        raise NonFiniteError(f"{_first(bad, what, start)[1]} contains non-finite entries")


def _deviations(S: np.ndarray) -> np.ndarray:
    return np.abs(S - _dagger(S)).max(axis=(1, 2))


def _require_hermitian(S: np.ndarray, what: str, start: int = 0) -> None:
    # Finite entries, then a deviation within HERMITICITY_TOL.
    _require_finite(S, what, start)
    dev = _deviations(S)
    bad = ~(dev <= HERMITICITY_TOL)
    if bad.any():
        t, who = _first(bad, what, start)
        raise NotHermitianError(f"{who} is not Hermitian within {HERMITICITY_TOL}: deviation {float(dev[t])}")


def _min_eigenvalues(S: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((S + _dagger(S)) / 2.0)[:, 0]


def as_complex_matrix(matrix, *, what: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex128 array with dim >= 2 and finite entries."""
    S = _as_stack(matrix, what)
    _require_finite(S, what)
    return S[0]


def hermitian_deviation(matrix: ComplexMatrix) -> float:
    """max_ij |A_ij - conj(A_ji)|."""
    return float(_deviations(as_complex_matrix(matrix)[None])[0])


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
    ``HERMITICITY_TOL``; the symmetrization only absorbs roundoff, never a
    genuinely skew part.
    """
    S = _as_stack(matrix, "matrix")
    _require_hermitian(S, "matrix")
    return float(_min_eigenvalues(S)[0])
