"""Dense complex-Hermitian matrix primitives shared by the rest of the package.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  This module
holds the matrix checks everything else is built on, each written once for an
(n, d, d) stack S: a check names S's first failing matrix t as
``what.format(t=start + t)``, and a single matrix M is checked as ``M[None]``.

Positive semidefiniteness is decided by ``eigvalsh`` of the Hermitian part,
``-PSD_FLOOR`` being the lowest eigenvalue accepted.  Every state check
first tries ``_psd_certified``, a Cholesky factorization of the Hermitian
part shifted by ``PSD_FLOOR / 2``; its success proves that ``eigvalsh`` would
accept, so ``eigvalsh`` runs only where the factorization fails or the
smallest eigenvalue is asked for (:func:`min_eigenvalue`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NonFiniteError, NotHermitianError

# Fixed numeric slack.  Validation accepts a deviation from Hermiticity up to
# HERMITICITY_TOL, eigenvalues down to -PSD_FLOOR (clamped to 0 for reporting)
# and a trace within TRACE_DEV of 1.  DETECT_EPS is the default margin a
# witness value must clear beyond its interval before a state counts as
# detected; a witness carries its own margin (``Witness(matrix, detect_eps)``).
HERMITICITY_TOL = 1e-10
PSD_FLOOR = 1e-9
TRACE_DEV = 1e-9
DETECT_EPS = 1e-9

# Largest memory estimate (sweep_bytes, bloch_bytes, the CLI's
# document_bytes, generator_bytes, finite_family_bytes) a task may have; a
# larger one is refused before anything is allocated.  A sweep holds one
# chunk of states at a time, so its estimate takes no state count.
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


def _hermitian_part(S: np.ndarray) -> np.ndarray:
    # Exactly Hermitian: entry (j, k) and the conjugate of entry (k, j) are
    # the same two roundings, and the diagonal is real.
    return (S + _dagger(S)) / 2.0


def _min_eigenvalues(H: np.ndarray) -> np.ndarray:
    # Smallest eigenvalue of each matrix of an exactly Hermitian stack.
    return np.linalg.eigvalsh(H)[:, 0]


def _psd_certified(H: np.ndarray) -> bool:
    """Whether a Cholesky factorization of every ``H + sigma*I``, sigma =
    ``PSD_FLOOR / 2``, runs to completion, which proves that every matrix of
    H passes ``eigvalsh``'s PSD test.  H is an exactly Hermitian (n, d, d)
    stack whose traces are within ``TRACE_DEV`` of 1.  False says nothing
    about H; ask ``eigvalsh``.

    The proof.  Let A be the computed H + sigma*I; it differs from the exact
    sum on the diagonal only, by at most u(|h_ii| + sigma), u = 2**-53.  A
    completed factorization A = R^H R - dA has |dA| <= g |R^H| |R| with
    g = c(d+1)u / (1 - c(d+1)u), c = 1 for real arithmetic and a small
    constant (c <= 4) for complex (Demmel, LAPACK Working Note 14, 1989;
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 10.3 and Sec. 3.6).  So ||dA||_2 <= g ||R||_F^2 = g tr(A + dA), which
    gives ||dA||_2 <= g tr(A) / (1 - g), and R^H R >= 0 gives
    lambda_min(H) >= -sigma - g tr(A) / (1 - g) - u max_i(|h_ii| + sigma).
    The diagonal of A + dA is >= 0 and tr(H) is within ``TRACE_DEV`` of 1, so
    tr(A) and every |h_ii| are at most 1 + 2d*sigma.  ``eigvalsh`` (zheevd)
    returns the eigenvalues of H + E with ||E||_2 <= p(d) u ||H||_2, p(d) a
    modest function of d (about d; LAPACK Users' Guide, Sec. 4.7), and
    ||H||_2 <= 1 + 2d*sigma here.  These terms, g tr(A) / (1 - g) +
    u max_i(|h_ii| + sigma) + p(d) u ||H||_2, add up to about
    5(d+1) u (1 + 2d*sigma): less than 5e-12 at d = 8192, and less than
    ``PSD_FLOOR`` - sigma = 5e-10 for every d <= 8e5, where one matrix takes
    10 TB.  So eigvalsh's smallest eigenvalue of a certified matrix is more
    than -PSD_FLOOR.
    """
    try:
        np.linalg.cholesky(H + (PSD_FLOOR / 2) * np.eye(H.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def is_hermitian(matrix) -> bool:
    """True iff the matrix equals its conjugate transpose within ``HERMITICITY_TOL``."""
    S = _as_stack(matrix, "matrix")
    _require_finite(S, "matrix")
    return bool(_deviations(S)[0] <= HERMITICITY_TOL)


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A†)/2.

    Raises NotHermitianError when the input is not Hermitian within
    ``HERMITICITY_TOL``; the symmetrization only absorbs roundoff, never a
    genuinely skew part.
    """
    S = _as_stack(matrix, "matrix")
    _require_hermitian(S, "matrix")
    return float(_min_eigenvalues(_hermitian_part(S))[0])
