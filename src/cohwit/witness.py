"""Witness construction and evaluation.

A witness is a Hermitian operator whose expectation value on every diagonal
state is pinned inside the interval spanned by its own diagonal entries.  A
measured expectation outside that interval therefore certifies that the state
has off-diagonal content.  This module provides the witness type, the
detection report, and every constructor the library exposes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateFamilyError,
    DimensionMismatchError,
    InvalidIntervalError,
    InvalidParameterError,
    LengthMismatchError,
    NotCoherentError,
    ZeroCoefficientError,
    ZeroOperatorError,
    NumericallyMarginalWarning,
)
from .generators import OFFDIAG_TOL, _operator, bloch_vector
from .linalg import DETECT_EPS, _require_hermitian, as_complex_matrix
from .states import DensityMatrix

# Off-diagonal moduli below this cannot anchor a tailored witness.
COHERENT_ENTRY_TOL = 1e-9


class Verdict(str, Enum):
    DETECTED = "Detected"
    NOT_DETECTED = "NotDetected"


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of evaluating one witness on one state.

    ``margin = max(lo - value, value - hi)``; positive means the value fell
    outside the interval, and detection requires ``margin > detect_eps``.
    """

    value: float
    interval: tuple[float, float]
    margin: float
    verdict: Verdict

    @property
    def detected(self) -> bool:
        return self.verdict is Verdict.DETECTED


def _evaluate(witnesses: Sequence["Witness"], stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, margins and verdicts of every witness on every state matrix.

    ``stack`` has shape (n, d, d); each result has shape (len(witnesses), n).
    This is the one home of the margin rule ``max(lo - value, value - hi)``
    and of the verdict ``margin > detect_eps``.
    """
    d = witnesses[0].dim
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise DimensionMismatchError(
            f"witness dim {d} does not match state stack of shape {stack.shape}"
        )
    # One contraction per witness: a single three-index einsum sums in a
    # different order and changes values in their last bits.
    values = np.array([np.real(np.einsum("ij,nji->n", w.matrix, stack)) for w in witnesses])
    bounds = np.array([(w.interval_lo, w.interval_hi, w.detect_eps) for w in witnesses])
    lo, hi, eps = bounds.T[..., None]
    # max(lo - value, value - hi), with operands swapped because np.maximum
    # keeps its second operand on a tie of signed zeros, as max keeps its first.
    margins = np.maximum(values - hi, lo - values)
    return values, margins, margins > eps


class Witness:
    """Hermitian operator with its diagonal-derived interval.

    The interval endpoints are always recomputed from the matrix diagonal at
    construction (min and max of the real parts); callers cannot inject an
    inconsistent interval.  ``detect_eps`` is the strict-with-tolerance margin:
    values within ``detect_eps`` of the interval report NotDetected, so the
    witness never claims coherence on numerical fuzz.
    """

    def __init__(self, matrix, detect_eps: float = DETECT_EPS):
        M = as_complex_matrix(matrix, what="witness matrix")
        _require_hermitian(M, "witness matrix")
        if not (math.isfinite(detect_eps) and detect_eps >= 0):
            raise InvalidParameterError(
                f"detect_eps must be finite and nonnegative, got {detect_eps}"
            )
        self._matrix = M.copy()
        self._matrix.setflags(write=False)
        diag = np.real(np.diagonal(self._matrix))
        self._lo = float(diag.min())
        self._hi = float(diag.max())
        self._eps = float(detect_eps)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def interval_lo(self) -> float:
        return self._lo

    @property
    def interval_hi(self) -> float:
        return self._hi

    @property
    def interval(self) -> tuple[float, float]:
        return (self._lo, self._hi)

    @property
    def detect_eps(self) -> float:
        return self._eps

    def with_eps(self, detect_eps: float) -> "Witness":
        """Same operator, different detection margin."""
        return Witness(self._matrix, detect_eps)

    def evaluate(self, state: DensityMatrix) -> DetectionReport:
        """Expectation value, margin, and verdict on one state."""
        values, margins, detected = _evaluate((self,), state.matrix[None])
        verdict = Verdict.DETECTED if detected[0, 0] else Verdict.NOT_DETECTED
        return DetectionReport(float(values[0, 0]), self.interval, float(margins[0, 0]), verdict)

    def evaluate_batch(self, matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized evaluate over a stack of state matrices, shape (n, d, d).

        Returns (values, margins, detected) arrays of shape (n,), the same
        numbers :meth:`evaluate` reports one state at a time.
        """
        return tuple(a[0] for a in _evaluate((self,), matrices))

    def __repr__(self):
        return f"Witness(dim={self.dim}, interval=[{self._lo}, {self._hi}], eps={self._eps})"


@dataclass(frozen=True)
class WitnessFamily:
    """Ordered, nonempty collection of same-dimension witnesses."""

    label: str
    members: tuple[Witness, ...]

    def __post_init__(self):
        if not self.members:
            raise DegenerateFamilyError("witness family must be nonempty")
        dims = {w.dim for w in self.members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"family members have mixed dims {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def evaluate(self, state: DensityMatrix) -> tuple[DetectionReport, ...]:
        return tuple(w.evaluate(state) for w in self.members)

    def evaluate_batch(self, matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, margins, detected) of every member on a stack of state
        matrices, shape (n, d, d); row i belongs to member i."""
        return _evaluate(self.members, matrices)

    def detects(self, state: DensityMatrix) -> bool:
        """True when at least one member detects the state."""
        return any(r.detected for r in self.evaluate(state))

    def __len__(self):
        return len(self.members)


def canonical_witness(d: int, lo: float, hi: float) -> Witness:
    """The minimal explicit witness with interval exactly [lo, hi].

    Diagonal (hi, lo, hi, ..., hi) with (d - lo + hi)/2 at entries (0, 1) and
    (1, 0).  Its expectation on ``canonical_coherent(d)`` is exactly hi + 1,
    one unit beyond the interval, for every d and lo <= hi.
    """
    if lo > hi:
        raise InvalidIntervalError(f"interval reversed: [{lo}, {hi}]")
    if d < 2:
        raise DimensionMismatchError(f"witness needs dim >= 2, got {d}")
    M = np.zeros((d, d), dtype=np.complex128)
    np.fill_diagonal(M, hi)
    M[1, 1] = lo
    off = (d - lo + hi) / 2.0
    M[0, 1] = off
    M[1, 0] = off
    return Witness(M)


def tailored_witness(state: DensityMatrix, lo: float, hi: float) -> Witness:
    """A witness with interval exactly [lo, hi] that detects the given state.

    Anchored on the state's off-diagonal entry of largest modulus, at (k, l).
    The component (real or imaginary part) of larger magnitude is used, which
    keeps the scaling coefficient well conditioned; it is nonzero whenever the
    entry is.

    - lo == hi: the component operator plus lo * I.  The expectation is
      lo + component, which differs from lo by the component itself.
    - lo < hi: the canonical [lo, hi] witness plus the component operator
      scaled so the expectation lands exactly on hi + 1.  When the canonical
      witness already evaluates to hi + 1 it is returned unchanged.
    """
    if lo > hi:
        raise InvalidIntervalError(f"interval reversed: [{lo}, {hi}]")
    d = state.dim
    upper = state.matrix[np.triu_indices(d, 1)]
    t = int(np.argmax(np.abs(upper)))  # first maximum: the lowest pair on ties
    entry = complex(upper[t])
    if abs(entry) <= COHERENT_ENTRY_TOL:
        raise NotCoherentError(
            f"no off-diagonal entry above {COHERENT_ENTRY_TOL}: max modulus {abs(entry)}"
        )
    use_re = abs(entry.real) >= abs(entry.imag)
    coeffs = np.zeros(d * d - 1)
    if use_re:
        coeffs[d - 1 + t] = 0.5  # U/2 picks out Re(rho_kl)
        comp_op = _operator(d, coeffs)
    else:
        coeffs[d - 1 + len(upper) + t] = -0.5  # -V/2 picks out Im(rho_kl)
        # 1j times a real matrix gives the -0.5j entry a negative-zero real
        # part, as i(|k><l| - |l><k|)/2 written out entry by entry has.
        comp_op = 1j * _operator(d, coeffs).imag
    if lo == hi:
        return Witness(comp_op + lo * np.eye(d))
    base = canonical_witness(d, lo, hi)
    gap = hi + 1.0 - base.evaluate(state).value
    if gap == 0.0:
        return base
    component = entry.real if use_re else entry.imag
    return Witness((gap / component) * comp_op + base.matrix)


def qubit_witness(K: float, a: float, b: float, c: float) -> Witness:
    """(K I + a sigma_x + b sigma_y + c sigma_z)/2.

    Interval [(K - |c|)/2, (K + |c|)/2]; on the qubit state with coordinates
    (x, y, z) the expectation is (K + ax + by + cz)/2, so detection is
    equivalent to |ax + by + cz| > |c| + 2 * DETECT_EPS.
    """
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise ZeroOperatorError("qubit witness needs a, b, c not all zero")
    M = 0.5 * np.array(
        [[K + c, a - 1j * b], [a + 1j * b, K - c]], dtype=np.complex128
    )
    return Witness(M)


def is_effective_qubit(a: float, b: float, c: float) -> bool:
    """Whether the (K, a, b, c) qubit witness can detect any state at all.

    True iff a**2 + b**2 > 0.  Warns when the value is nonzero but below 1e-9,
    where the detectable region is thinner than the detection tolerance.
    """
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise ZeroOperatorError("qubit witness needs a, b, c not all zero")
    plane = math.hypot(a, b)
    if 0.0 < plane < 1e-9:
        warnings.warn(
            f"sqrt(a^2 + b^2) = {plane} is nonzero but below 1e-9; "
            "effectiveness is numerically marginal",
            NumericallyMarginalWarning,
            stacklevel=2,
        )
    return plane > 0.0


def qubit_pair_family(K: float, a1: float, b1: float, a2: float, b2: float) -> WitnessFamily:
    """Two zero-diagonal-spread qubit witnesses that jointly detect every
    coherent qubit state.

    Requires a1*b2 - a2*b1 != 0: the two in-plane directions must not be
    proportional (this also rules out a zero pair).
    """
    if a1 * b2 - a2 * b1 == 0.0:
        raise DegenerateFamilyError(
            f"directions ({a1}, {b1}) and ({a2}, {b2}) are proportional or degenerate"
        )
    members = (qubit_witness(K, a1, b1, 0.0), qubit_witness(K, a2, b2, 0.0))
    return WitnessFamily(label=f"qubit-pair(K={K}, ({a1},{b1}), ({a2},{b2}))", members=members)


def generator_witness(d: int, K: float, coeffs) -> Witness:
    """(K I + sum_i s_i g_i) / d for a real coefficient vector of length d**2 - 1.

    When the diagonal-generator coefficients (indices 1..d-1) all vanish,
    every diagonal entry equals K/d and the interval collapses to a point.
    The expectation on a state with coefficient vector r is
    K/d + (2/d**2) * dot(r, s).
    """
    op = _operator(d, coeffs)  # validates d before np.eye sees it
    return Witness((K * np.eye(d, dtype=np.complex128) + op) / d)


def witness_for_state(state: DensityMatrix, K: float = 0.0) -> Witness:
    """The single-generator witness that detects the given coherent state.

    Picks the off-diagonal generator index with the largest |r_i| (lowest
    index on ties) and uses coefficient 1 there.  The expectation is
    K/d + 2 r_i / d**2, which differs from K/d exactly when r_i != 0.
    """
    d = state.dim
    off = np.abs(bloch_vector(state)[d - 1 :])
    t = int(np.argmax(off))  # first maximum: the lowest index on ties
    if off[t] <= OFFDIAG_TOL:
        raise NotCoherentError("state has no off-diagonal generator support")
    eta = np.zeros(d * d - 1)
    eta[d - 1 + t] = 1.0
    return generator_witness(d, K, eta)


def finite_family(d: int, K: float = 0.0, coeffs=None) -> WitnessFamily:
    """The d(d-1) single-generator witnesses covering every off-diagonal index.

    Member t carries coefficient ``coeffs[t]`` (default 1) on generator index
    d + t and zero elsewhere, so all members share the degenerate interval
    [K/d, K/d].  Jointly the family detects every state with off-diagonal
    support while leaving every diagonal state undetected.
    """
    if d < 2:
        raise DimensionMismatchError(f"family needs dim >= 2, got {d}")
    n = d * (d - 1)
    v = np.ones(n) if coeffs is None else np.asarray(coeffs, dtype=np.float64)
    if v.shape != (n,):
        raise LengthMismatchError(f"family needs {n} coefficients for dim {d}, got {v.shape}")
    if np.any(v == 0.0):
        raise ZeroCoefficientError("family coefficients must all be nonzero")
    members = []
    for t, i in enumerate(range(d, d * d)):  # 1-based generator indices d..d**2-1
        eta = np.zeros(d * d - 1)
        eta[i - 1] = v[t]
        members.append(generator_witness(d, K, eta))
    return WitnessFamily(label=f"single-generator(d={d}, K={K})", members=tuple(members))
