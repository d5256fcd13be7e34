"""Traceless Hermitian generator basis (generalized Gell-Mann matrices) and
the coefficient-vector maps between states and real vectors.

This module is the single place the index convention is defined, and the
index map exists in code once: ``_diagonal_weights`` for the diagonal
generators and ``np.triu_indices(d, 1)``, which lists the pairs in the order
above, for U and V.  ``_operator`` builds ``sum_i v_i g_i`` through them and
``bloch_vector`` reads a state's entries through them.  There is no
materialized basis: ``generator(d, i)`` builds one generator matrix through
``_operator``.  Reports and coefficient vectors elsewhere refer back to this
convention.

For dimension d the basis has d**2 - 1 members, indexed 1-based:

- ``i`` in ``1..d-1``: diagonal generators ``D_l`` with ``l = i - 1``,
  ``D_l = sqrt(2 / ((l+1)(l+2))) * (sum_{a<=l} |a><a| - (l+1) |l+1><l+1|)``.
- ``i`` in ``d..(d-1)(d+2)/2``: symmetric off-diagonal
  ``U_jk = |j><k| + |k><j|``, pairs ``0 <= j < k <= d-1`` enumerated
  lexicographically ((0,1), (0,2), ..., (1,2), ...).
- ``i`` in ``d(d+1)/2..d**2-1``: antisymmetric off-diagonal
  ``V_jk = -i (|j><k| - |k><j|)``, same pair order.

Basis kets are 0-indexed ``|0>..|d-1>``.  Every generator is Hermitian,
traceless, and normalized to ``Tr(g_i g_j) = 2 delta_ij``.  For d = 2 the
indices (1, 2, 3) give (sigma_z, sigma_x, sigma_y).

A density matrix expands as ``rho = (I + sum_i r_i g_i) / d`` with real
coefficients ``r_i = (d/2) Tr(rho g_i)``; off-diagonal entries of rho load
only the indices >= d, which is what ``offdiag_support`` reads off.

The d = 2 case written with the Pauli matrices, (K I + a sigma_x + b sigma_y
+ c sigma_z) / 2, is ``_qubit_matrices``: the qubit witness is its one-point
case and the qubit state its K = 1 case.  The ``bloch`` lattice reads the
K = 1 case on its axis only, one point per axis value, and builds no matrix
for a lattice point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, LengthMismatchError
from .linalg import ComplexMatrix, _require_bytes

if TYPE_CHECKING:
    from .states import DensityMatrix

# |r_i| above this counts as off-diagonal support.
OFFDIAG_TOL = 1e-9


def _diagonal_weights(d: int) -> np.ndarray:
    """(d-1, d) table whose row l is the diagonal of D_l."""
    l = np.arange(d - 1)[:, None]
    a = np.arange(d)[None, :]
    coeff = np.sqrt(2.0 / ((l + 1) * (l + 2)))
    return np.where(a <= l, coeff, np.where(a == l + 1, -(l + 1) * coeff, 0.0))


def _operator(d: int, coeffs) -> np.ndarray:
    """sum_i v_i g_i for a real coefficient vector v of length d**2 - 1.

    Rejects d < 2 and vectors of any other length.  Every entry accumulates
    onto +0, one generator at a time, as a contraction over the stacked basis
    does; the result matches that contraction bit for bit, signs of zeros
    included.
    """
    if d < 2:
        raise DimensionMismatchError(f"generators need dim >= 2, got {d}")
    v = np.asarray(coeffs, dtype=np.float64)
    if v.shape != (d * d - 1,):
        raise LengthMismatchError(
            f"coefficient vector must have length {d * d - 1} for dim {d}, got {v.shape}"
        )
    n_pairs = d * (d - 1) // 2
    u, w = v[d - 1 : d - 1 + n_pairs], v[d - 1 + n_pairs :]
    j, k = np.triu_indices(d, 1)
    M = np.zeros((d, d), dtype=np.complex128)
    M[np.diag_indices(d)] += np.sum(v[: d - 1, None] * _diagonal_weights(d), axis=0)
    M[j, k] += u - 1j * w
    M[k, j] += u + 1j * w
    return M


def generator_bytes(d: int) -> int:
    """Bytes :func:`generator` holds at once: 96 per matrix entry, and 8 KB."""
    return 96 * d * d + 8192


def generator(d: int, i: int) -> ComplexMatrix:
    """The i-th basis generator (1-based, ordering per module docstring),
    read-only and bit-identical to the matrix written out entry by entry;
    d > 3344 is refused.  The whole stack is
    ``np.stack([generator(d, i) for i in range(1, d * d)])``."""
    if not 1 <= i <= d * d - 1:
        raise IndexOutOfRangeError(f"generator index {i} outside 1..{d * d - 1} for dim {d}")
    if d < 2:
        raise DimensionMismatchError(f"generator basis needs dim >= 2, got {d}")
    _require_bytes(generator_bytes(d), f"generator {i} at d={d}")
    g = _operator(d, np.eye(1, d * d - 1, i - 1)[0])
    g.setflags(write=False)
    return g


def bloch_vector(state: "DensityMatrix") -> np.ndarray:
    """Real coefficient vector r with r_i = (d/2) Tr(rho g_i), length d**2 - 1.

    For a valid state ``norm(r) <= sqrt(d(d-1)/2)`` up to roundoff, with
    equality only on pure states.
    """
    d = state.dim
    rho = state.matrix
    j, k = np.triu_indices(d, 1)
    # Tr(g_i rho) for the D, U and V blocks, read off rho's entries.  Each sum
    # runs in the order a contraction over the stacked basis uses
    # (sequentially, onto +0), so the result matches it bit for bit.
    tr = 0.0 + np.concatenate([
        np.cumsum(_diagonal_weights(d) * rho.real.diagonal(), axis=1)[:, -1],
        rho.real[k, j] + rho.real[j, k],
        rho.imag[k, j] - rho.imag[j, k],
    ])
    return 0.5 * d * tr


def _generator_matrix(d: int, K: float, coeffs) -> np.ndarray:
    # (K I + sum_i s_i g_i) / d; an overflowing entry is left for the caller to refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        op = _operator(d, coeffs)  # validates d before np.eye sees it
        return (K * np.eye(d, dtype=np.complex128) + op) / d


def _qubit_matrices(K, a, b, c) -> np.ndarray:
    """(n, 2, 2) stack of (K I + a sigma_x + b sigma_y + c sigma_z) / 2 for
    coefficients of n points (a scalar counts as one point or broadcasts).
    The coefficients are float64 arrays before any complex arithmetic, which
    fixes the sign of every zero; an overflowing entry is left for the caller
    to refuse."""
    K, a, b, c = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (K, a, b, c))
    M = np.empty((np.broadcast(K, a, b, c).size, 2, 2), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        M[:, 0, 0] = 0.5 * (K + c)
        M[:, 1, 1] = 0.5 * (K - c)
        # 0.5 on the left: numpy's complex product with it on the right, or
        # in place, can give a zero the other sign.
        M[:, 0, 1] = 0.5 * (a - 1j * b)
        M[:, 1, 0] = 0.5 * (a + 1j * b)
    return M


def state_from_bloch(d: int, r) -> ComplexMatrix:
    """(1/d)(I + sum_i r_i g_i): Hermitian with unit trace by construction,
    the K = 1 case of the generator witnesses' (K I + sum_i s_i g_i) / d.

    The result is NOT guaranteed positive semidefinite for d >= 3 even at
    small norm; wrap it in ``DensityMatrix`` to validate.
    """
    return _generator_matrix(d, 1.0, r)


def offdiag_support(state: "DensityMatrix") -> set[int]:
    """1-based generator indices i >= d where |r_i| exceeds OFFDIAG_TOL.

    Empty exactly when the state is diagonal within tolerance, because the
    off-diagonal entries of the state load only these indices.
    """
    r = bloch_vector(state)
    d = state.dim
    return {i for i in range(d, d * d) if abs(r[i - 1]) > OFFDIAG_TOL}
