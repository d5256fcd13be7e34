"""Validated quantum states, diagonal (incoherent) states, deterministic
samplers, and the l1-norm coherence oracle.

All sampling is driven by the splitmix64 stream in :mod:`cohwit.rng`; a given
(dimension, seed) pair always produces the same state, bit for bit.  Each
sampler exists once, in batched form over a sequence of seeds (state i from
seed i); the one-seed samplers are views of it.  Batches are generated
``_BLOCK_ENTRIES`` matrix entries at a time, so temporaries stay bounded
however many seeds are asked for.  Every sampled state is checked once: a
matrix by :func:`validate_states`' checks, a probability vector by
``_check_probabilities``, whose checks imply all of :func:`validate_states`'
on the diagonal matrix ``diag(p)``.

Every state check (:func:`validate_states`, :class:`DensityMatrix` and the
samplers) runs one path, a block of states at a time: finite entries,
Hermiticity, trace, then the PSD step.  That step first tries the Cholesky
certificate of ``linalg._psd_certified`` on the block.  Its success proves
that every state of the block would pass ``eigvalsh``'s test, so the block
is accepted without an eigensolve; where it fails, ``eigvalsh`` runs on that
block and gives the verdict and the message.  Verdicts and messages are
those of ``eigvalsh`` alone either way.  An eigenvalue is computed only where
one is asked for (:attr:`DensityMatrix.min_eigenvalue`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, InvalidStateError, OutOfIntervalError
from .generators import _qubit_matrices
from .linalg import (
    PSD_FLOOR,
    TRACE_DEV,
    _as_stack,
    _dagger,
    _first,
    _hermitian_part,
    _min_eigenvalues,
    _psd_certified,
    _require_hermitian,
    min_eigenvalue,
)
from .rng import Seed, _seed, exponentials, normal_pairs

if TYPE_CHECKING:
    from .witness import Witness

# Matrix entries generated or validated per block of states.
_BLOCK_ENTRIES = 1 << 12


def _blocks(n: int, d: int) -> list[slice]:
    step = max(1, _BLOCK_ENTRIES // (d * d))
    return [slice(i, i + step) for i in range(0, n, step)]


def validate_states(stack) -> None:
    """Check that every matrix of an (n, d, d) stack is a density matrix.

    The checks run in this order over the whole stack: finite entries,
    Hermiticity within ``HERMITICITY_TOL``, trace within ``TRACE_DEV`` of 1,
    and eigenvalues of the Hermitian part down to ``-PSD_FLOOR``, decided by
    the Cholesky certificate with ``eigvalsh`` behind it (see the module
    docstring).  The first failing state t is named as ``state {t}``.
    """
    _validate(_as_stack(stack), "state {t}")


def _validate(S: np.ndarray, what: str, start: int = 0) -> None:
    # Every state check, one block at a time, with S's first state named as
    # state ``start``.
    for b in _blocks(len(S), S.shape[1]):
        _validate_block(S[b], start + b.start, what)


def _validate_block(S: np.ndarray, start: int, what: str) -> None:
    _require_hermitian(S, what, start)
    tr = np.trace(S, axis1=1, axis2=2)
    bad = np.abs(tr - 1.0) > TRACE_DEV
    if bad.any():
        t, who = _first(bad, what, start)
        raise InvalidStateError(f"{who} trace must be 1, got {complex(tr[t])}")
    H = _hermitian_part(S)
    if _psd_certified(H):
        return
    lam = _min_eigenvalues(H)
    bad = lam < -PSD_FLOOR
    if bad.any():
        t, who = _first(bad, what, start)
        raise InvalidStateError(f"{who} is not PSD: min eigenvalue {float(lam[t])}")


def _check_probabilities(P: np.ndarray, prefix: str) -> None:
    # Rows of P are probability vectors: nonnegative, summing to 1 within
    # 1e-12.  A failing row t is named by prefix.format(t=t).  Both tests are
    # written so that NaN fails them.
    bad = ~(P >= 0.0).all(axis=1)
    if bad.any():
        t, who = _first(bad, prefix)
        raise InvalidStateError(f"{who}negative probability: min {P[t].min()}")
    total = P.sum(axis=1)
    bad = ~(np.abs(total - 1.0) <= 1e-12)
    if bad.any():
        t, who = _first(bad, prefix)
        raise InvalidStateError(f"{who}probabilities must sum to 1, got {float(total[t])}")


class DensityMatrix:
    """A d x d quantum state: Hermitian, unit trace, positive semidefinite.

    Validation happens at construction, in one pass of :func:`validate_states`'
    checks over ``matrix[None]``, against the fixed tolerances of
    :mod:`cohwit.linalg`; the stored matrix is a read-only copy of the input.
    """

    def __init__(self, matrix):
        S = _as_stack(matrix, "density matrix")
        _validate_block(S, 0, "density matrix")
        self._matrix = S[0].copy()
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part, from ``eigvalsh`` on
        each call, clamped to 0 for reporting."""
        return max(min_eigenvalue(self._matrix), 0.0)

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
        _check_probabilities(p[None], "")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.probs.size

    def as_density_matrix(self) -> DensityMatrix:
        """Embed as a diagonal DensityMatrix."""
        return DensityMatrix(np.diag(self.probs.astype(np.complex128)))


def l1_coherence_batch(stack: np.ndarray) -> np.ndarray:
    """Sum of |rho_ij| over i != j for every matrix of an (n, d, d) stack:
    the off-diagonal moduli alone are summed, so a diagonal matrix gives
    exactly +0.0 and no value is negative."""
    n, d = stack.shape[:2]
    a = np.abs(stack).reshape(n, d * d)
    a[:, :: d + 1] = 0.0
    return a.sum(axis=1)


def l1_coherence(state: DensityMatrix) -> float:
    """Sum of |rho_ij| over i != j; exactly 0.0 on diagonal states."""
    return float(l1_coherence_batch(state.matrix[None])[0])


def _require_dim(d: int) -> None:
    if d < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {d}")


def _fill(out: np.ndarray, block: Callable, d: int, seeds: Sequence[Seed]) -> np.ndarray:
    # out[i] is row i of block(d, seeds), computed one block of seeds at a time.
    for b in _blocks(len(seeds), d):
        out[b] = block(d, seeds[b])
    return out


def _complex_normals(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    # Entries filled row-major; each consumes one Box-Muller pair (re, im).
    re, im = normal_pairs(seeds, d * d)
    return (re + 1j * im).reshape(-1, d, d) / math.sqrt(2.0)


def _ginibre_block(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    G = _complex_normals(d, seeds)
    M = _hermitian_part(G @ _dagger(G))  # exact Hermitian symmetry despite roundoff
    return M / np.trace(M, axis1=1, axis2=2).real[:, None, None]


def _incoherent_block(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    e = exponentials(seeds, d)
    return e / e.sum(axis=1, keepdims=True)


def _hermitian_block(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    return _hermitian_part(_complex_normals(d, seeds))


def sample_ginibre_batch(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    """Validated (len(seeds), d, d) stack of random full-rank states
    G G† / Tr(G G†) with standard complex normal G; state i from ``seeds[i]``.

    Such states carry off-diagonal content with probability 1, which makes
    them a natural stress source for detection sweeps.
    """
    _require_dim(d)
    stack = _fill(np.empty((len(seeds), d, d), np.complex128), _ginibre_block, d, seeds)
    _validate(stack, "Ginibre state {t}")
    return stack


def sample_incoherent_batch(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    """(len(seeds), d) probability vectors drawn uniformly from the simplex
    (normalized exponentials); row i from ``seeds[i]``."""
    _require_dim(d)
    probs = _fill(np.empty((len(seeds), d)), _incoherent_block, d, seeds)
    _check_probabilities(probs, "sampled probability vector {t}: ")
    return probs


def sample_hermitian_batch(d: int, seeds: Sequence[Seed]) -> np.ndarray:
    """(len(seeds), d, d) random Hermitian matrices (G + G†)/2 with standard
    complex normal G; matrix i from ``seeds[i]``."""
    _require_dim(d)
    return _fill(np.empty((len(seeds), d, d), np.complex128), _hermitian_block, d, seeds)


def sample_ginibre(d: int, seed: Seed) -> DensityMatrix:
    """The state of :func:`sample_ginibre_batch` for one seed."""
    _require_dim(d)
    return DensityMatrix(_ginibre_block(d, [seed])[0])  # validated once, here


def sample_incoherent(d: int, seed: Seed) -> IncoherentState:
    """The probability vector of :func:`sample_incoherent_batch` for one seed."""
    _require_dim(d)
    return IncoherentState(_incoherent_block(d, [seed])[0])  # checked once, here


def sample_hermitian(d: int, seed: Seed) -> np.ndarray:
    """The matrix of :func:`sample_hermitian_batch` for one seed."""
    return sample_hermitian_batch(d, [seed])[0]


def sample_ensemble(d: int, n_states: int, seed: Seed) -> np.ndarray:
    """Validated (n_states, d, d) stack: half random full-rank states
    (coherent a.s.), half diagonal states.

    State t uses sub-seed ``seed + t``; the first ``n_states // 2`` are the
    random full-rank ones.  Rejects a negative ``n_states``.  The stack is
    the one chunk of ``_ensemble_chunks``, which every sweep samples through.
    """
    chunks = list(_ensemble_chunks(d, n_states, seed, max(n_states, 1)))
    return chunks[0] if chunks else np.zeros((0, d, d), np.complex128)


def _ensemble_chunks(d: int, n_states: int, seed: Seed, step: int) -> Iterator:
    """The rows of :func:`sample_ensemble`'s stack, its first
    ``n_states // 2`` full-rank, as validated chunks of ``step`` states, each
    sampled when it is asked for.  State t uses sub-seed ``seed + t`` however
    the stack is chunked, so the rows are the same bits.  A negative
    ``n_states`` and a seed that is not an integer are rejected at the call."""
    if n_states < 0:
        raise InvalidParameterError(f"n_states must be >= 0, got {n_states}")
    _require_dim(d)
    seed = _seed(seed)
    # Each chunk is made by a call, so no frame here holds one while the next is made.
    return (_ensemble_rows(d, seed, i, min(i + step, n_states), n_states // 2) for i in range(0, n_states, step))


def _ensemble_rows(d: int, seed: Seed, start: int, stop: int, n_g: int) -> np.ndarray:
    # Rows start .. stop - 1 of an ensemble whose first n_g rows are full-rank.
    # Only those go through validate_states' checks, and a failing one is
    # named by its index in the whole ensemble.  A diagonal row diag(p) passed
    # sample_incoherent_batch's check (finite p >= 0 summing to 1 within
    # 1e-12), which implies every matrix check.
    g = max(0, min(n_g, stop) - start)
    rows = np.zeros((stop - start, d, d), np.complex128)
    _fill(rows[:g], _ginibre_block, d, range(seed + start, seed + start + g))
    _validate(rows[:g], "ensemble state {t}", start)
    idx = np.arange(d)
    rows[g:, idx, idx] = sample_incoherent_batch(d, range(seed + start + g, seed + stop))
    return rows


def canonical_coherent(d: int) -> DensityMatrix:
    """The maximally mixed state plus a single symmetric off-diagonal pair.

    Entries: 1/d on the whole diagonal and on positions (0, 1) and (1, 0).
    PSD because the top-left 2x2 block is (1/d) * [[1, 1], [1, 1]].  Its
    l1 coherence is 2/d.
    """
    M = np.eye(d, dtype=np.complex128) / d
    M[0, 1] = 1.0 / d
    M[1, 0] = 1.0 / d
    return DensityMatrix(M)


def qubit_state(x: float, y: float, z: float) -> DensityMatrix:
    """Qubit state (I + x sigma_x + y sigma_y + z sigma_z)/2 for x²+y²+z² <= 1:
    the K = 1 case of ``generators._qubit_matrices``, validated."""
    return DensityMatrix(_qubit_matrices(1.0, x, y, z)[0])


def incoherent_with_value(witness: "Witness", target: float) -> IncoherentState:
    """A diagonal state whose witness expectation equals ``target``.

    For a degenerate interval (all diagonals equal) the uniform distribution
    works; otherwise a two-point distribution on a lowest minimizing and a
    lowest maximizing diagonal index does:
    weight (hi - target)/(hi - lo) on the minimizer, the rest on the maximizer.
    Where hi - lo overflows, the weights come from halved lo, hi and target.
    """
    lo, hi = witness.interval
    if not lo <= target <= hi:
        raise OutOfIntervalError(f"target {target} outside witness interval [{lo}, {hi}]")
    d = witness.dim
    if lo == hi:
        return IncoherentState(np.full(d, 1.0 / d))
    if not math.isfinite(hi - lo):  # then |lo|, |hi| >= 2**970: halving them is exact
        lo, hi, target = lo / 2, hi / 2, target / 2
    diag = np.real(np.diagonal(witness.matrix))
    p = np.zeros(d)
    p[int(np.argmin(diag))] = (hi - target) / (hi - lo)
    p[int(np.argmax(diag))] = (target - lo) / (hi - lo)
    return IncoherentState(p)
