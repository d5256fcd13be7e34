"""Validated quantum states, diagonal (incoherent) states, deterministic
samplers, and the l1-norm coherence oracle.

All sampling is driven by the splitmix64 stream in :mod:`cohwit.rng`; a given
(dimension, seed) pair always produces the same state, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidStateError, OutOfIntervalError
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _min_eig,
    _require_hermitian,
    as_complex_matrix,
)
from .rng import Seed, SplitMix64

if TYPE_CHECKING:
    from .witness import Witness


class DensityMatrix:
    """A d x d quantum state: Hermitian, unit trace, positive semidefinite.

    Validation happens at construction against a :class:`Tolerance`, in one
    pass over the coerced input; the stored matrix is a read-only copy of it.
    """

    def __init__(self, matrix, tol: Tolerance = DEFAULT_TOLERANCE):
        M = as_complex_matrix(matrix, what="density matrix")
        _require_hermitian(M, tol.hermiticity, "density matrix")
        tr = complex(np.trace(M))
        if abs(tr - 1.0) > tol.trace_dev:
            raise InvalidStateError(f"density matrix trace must be 1, got {tr}")
        lam = _min_eig(M)
        if lam < -tol.psd_floor:
            raise InvalidStateError(f"density matrix is not PSD: min eigenvalue {lam}")
        self._matrix = M.copy()
        self._matrix.setflags(write=False)
        self._min_eig = max(lam, 0.0)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, clamped to 0 for reporting."""
        return self._min_eig

    def __array__(self, dtype=None, copy=None):
        return np.array(self._matrix, dtype=dtype)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class IncoherentState:
    """A probability vector over the reference basis, i.e. a diagonal state."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise InvalidStateError(f"probability vector must be 1-d with length >= 2, got {p.shape}")
        if np.any(p < 0.0):
            raise InvalidStateError(f"negative probability: min {p.min()}")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidStateError(f"probabilities must sum to 1, got {total}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.probs.size

    def as_density_matrix(self, tol: Tolerance = DEFAULT_TOLERANCE) -> DensityMatrix:
        """Embed as a diagonal DensityMatrix."""
        return DensityMatrix(np.diag(self.probs.astype(np.complex128)), tol)


def l1_coherence(state: DensityMatrix) -> float:
    """Sum of |rho_ij| over i != j; exactly 0 on diagonal states."""
    a = np.abs(state.matrix)
    return float(a.sum() - np.trace(a))


def _complex_normal_matrix(d: int, rng: SplitMix64) -> np.ndarray:
    # Entries filled row-major; each consumes one Box-Muller pair (re, im).
    z = rng.normals(2 * d * d)
    re = np.asarray(z[0::2]).reshape(d, d)
    im = np.asarray(z[1::2]).reshape(d, d)
    return (re + 1j * im) / math.sqrt(2.0)


def sample_ginibre(d: int, seed: Seed, tol: Tolerance = DEFAULT_TOLERANCE) -> DensityMatrix:
    """Random full-rank state G G† / Tr(G G†) with standard complex normal G.

    Such states carry off-diagonal content with probability 1, which makes the
    ensemble a natural stress source for detection sweeps.
    """
    rng = SplitMix64(seed)
    G = _complex_normal_matrix(d, rng)
    M = G @ G.conj().T
    M = (M + M.conj().T) / 2.0  # exact Hermitian symmetry despite roundoff
    return DensityMatrix(M / float(np.trace(M).real), tol)


def sample_incoherent(d: int, seed: Seed) -> IncoherentState:
    """Probability vector drawn uniformly from the simplex (normalized exponentials)."""
    rng = SplitMix64(seed)
    e = np.array([-math.log(rng.uniform()) for _ in range(d)])
    return IncoherentState(e / e.sum())


def sample_hermitian(d: int, seed: Seed) -> np.ndarray:
    """Random Hermitian matrix (G + G†)/2 with standard complex normal G."""
    G = _complex_normal_matrix(d, SplitMix64(seed))
    return (G + G.conj().T) / 2.0


def canonical_coherent(d: int, tol: Tolerance = DEFAULT_TOLERANCE) -> DensityMatrix:
    """The maximally mixed state plus a single symmetric off-diagonal pair.

    Entries: 1/d on the whole diagonal and on positions (0, 1) and (1, 0).
    PSD because the top-left 2x2 block is (1/d) * [[1, 1], [1, 1]].  Its
    l1 coherence is 2/d.
    """
    M = np.eye(d, dtype=np.complex128) / d
    M[0, 1] = 1.0 / d
    M[1, 0] = 1.0 / d
    return DensityMatrix(M, tol)


def qubit_state(x: float, y: float, z: float, tol: Tolerance = DEFAULT_TOLERANCE) -> DensityMatrix:
    """Qubit state (I + x sigma_x + y sigma_y + z sigma_z)/2 for x²+y²+z² <= 1."""
    M = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128)
    return DensityMatrix(M, tol)


def incoherent_with_value(witness: "Witness", target: float) -> IncoherentState:
    """A diagonal state whose witness expectation equals ``target``.

    For a degenerate interval (all diagonals equal) the uniform distribution
    works; otherwise a two-point distribution on a lowest minimizing and a
    lowest maximizing diagonal index does:
    weight (hi - target)/(hi - lo) on the minimizer, the rest on the maximizer.
    """
    lo, hi = witness.interval
    if not lo <= target <= hi:
        raise OutOfIntervalError(f"target {target} outside witness interval [{lo}, {hi}]")
    d = witness.dim
    if lo == hi:
        return IncoherentState(np.full(d, 1.0 / d))
    diag = np.real(np.diagonal(witness.matrix))
    p = np.zeros(d)
    p[int(np.argmin(diag))] = (hi - target) / (hi - lo)
    p[int(np.argmax(diag))] = (target - lo) / (hi - lo)
    return IncoherentState(p)
