"""Witness construction and evaluation.

A witness is a Hermitian operator whose expectation value on every diagonal
state is pinned inside the interval spanned by its own diagonal entries.  A
measured expectation outside that interval therefore certifies that the state
has off-diagonal content.  This module provides the witness type, the
detection report, and every constructor the library exposes.
"""

from __future__ import annotations

import functools
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
    NonFiniteError,
    NotCoherentError,
    ZeroCoefficientError,
    ZeroOperatorError,
    NumericallyMarginalWarning,
)
from .generators import OFFDIAG_TOL, _operator, bloch_vector
from .linalg import DETECT_EPS, PSD_FLOOR, TRACE_DEV, _as_stack, _require_finite, _require_hermitian
from .states import DensityMatrix, _blocks

# Off-diagonal moduli below this cannot anchor a tailored witness.
COHERENT_ENTRY_TOL = 1e-9


class Verdict(str, Enum):
    DETECTED = "Detected"
    NOT_DETECTED = "NotDetected"


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of evaluating one witness on one state.

    ``margin = max(lo - value, value - hi)``; positive means the value fell
    outside the interval, and detection requires ``margin > detect_eps +
    slack``, where the slack (see ``_slack``) covers how far a diagonal state
    that validation accepts can leave the interval.
    """

    value: float
    interval: tuple[float, float]
    margin: float
    verdict: Verdict

    @property
    def detected(self) -> bool:
        return self.verdict is Verdict.DETECTED


def _table(stack: np.ndarray, detect_eps: Sequence[float]) -> np.ndarray:
    """The (3, members) (lo, hi, eps) table of a (members, d, d) stack: each
    member's real diagonal minimum and maximum and its margin, which must be
    finite and nonnegative.  Every witness and family table is built here, so
    no constructor takes an interval from its caller."""
    for eps in detect_eps:
        if not (math.isfinite(eps) and eps >= 0):
            raise InvalidParameterError(f"detect_eps must be finite and nonnegative, got {eps}")
    diag = stack.diagonal(axis1=1, axis2=2).real
    return np.array([diag.min(axis=1), diag.max(axis=1), detect_eps], dtype=np.float64)


def _slack(bounds: np.ndarray, d: int) -> np.ndarray:
    """How far the value of a diagonal state that validation accepts can
    leave [lo, hi], for each member of a (3, members) bounds table at dim d.

    Its diagonal p has a trace within TRACE_DEV of 1 and entries down to
    -PSD_FLOOR, so sum_k p_k W_kk exceeds hi (or falls below lo) by at most
    ``max(|lo|, |hi|) * TRACE_DEV + (d - 1) * (hi - lo) * PSD_FLOOR``.
    Where that product overflows (an interval wider than about 1.8e308 /
    (d - 1)), the same bound is taken in the order
    ``(d - 1) * (hi * PSD_FLOOR - lo * PSD_FLOOR)``, which stays finite, so
    the slack is finite for every finite interval.  The overflow still warns
    unless the caller silences it, as :func:`_evaluate` does.
    """
    lo, hi = bounds[:2]
    spread = (d - 1) * (hi - lo) * PSD_FLOOR
    spread = np.where(np.isfinite(spread), spread, (d - 1) * (hi * PSD_FLOOR - lo * PSD_FLOOR))
    return np.maximum(np.abs(lo), np.abs(hi)) * TRACE_DEV + spread


def _evaluate(source, stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, margins and verdicts of every member of ``source`` on every
    state matrix.

    ``source`` is a member table (a Witness is its one-member case): its
    (3, members) ``_bounds`` of :func:`_table` and its members' values from
    ``_values``.  ``stack`` has shape (n, d, d); each result has shape
    (members, n).  This is the one home of the margin rule
    ``max(lo - value, value - hi)`` and of the verdict ``margin > detect_eps +
    slack``, with the slack of :func:`_slack`, so no diagonal state that
    validation accepts is ever detected.
    A state with a NaN or infinite entry raises NonFiniteError naming the
    first such state, before any value is computed, and so does a value or
    margin that overflows finite inputs.
    """
    d = source.dim
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise DimensionMismatchError(
            f"witness dim {d} does not match state stack of shape {stack.shape}"
        )
    if not np.isfinite(stack).all():  # one pass; the state is named only on failure
        _require_finite(stack, "state {t}")
    values = source._values(stack)
    lo, hi, eps = source._bounds[..., None]
    # Overflow is checked, not warned about: a side of the margin that
    # overflows loses to the other side in np.maximum, a margin that overflows
    # raises NonFiniteError below, and _slack replaces an overflowing product.
    with np.errstate(over="ignore", invalid="ignore"):
        # max(lo - value, value - hi), with operands swapped because np.maximum
        # keeps its second operand on a tie of signed zeros, as max keeps its first.
        margins = np.maximum(values - hi, lo - values)
        slack = _slack(source._bounds, d)
    bad = ~np.isfinite(margins)  # NaN or inf values make NaN or inf margins
    if bad.any():
        i, t = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteError(f"witness {i} on state {t}: value {values[i, t]} or its margin overflows")
    return values, margins, margins > eps + slack[:, None]


def _reports(source, state: DensityMatrix) -> tuple[DetectionReport, ...]:
    # One report per member on one state, from a single kernel call.
    values, margins, detected = _evaluate(source, state.matrix[None])
    lo, hi = source._bounds[:2].tolist()
    return tuple(
        DetectionReport(float(v), (a, b), float(m), Verdict.DETECTED if hit else Verdict.NOT_DETECTED)
        for a, b, v, m, hit in zip(lo, hi, values[:, 0], margins[:, 0], detected[:, 0])
    )


class _MemberTable:
    """A read-only (members, d, d) matrix stack ``_stack`` and the
    (3, members) table ``_bounds`` that :func:`_table` builds from it: all
    that :func:`_evaluate` reads of a Witness or a WitnessFamily."""

    def _hold(self, stack: np.ndarray, detect_eps: Sequence[float], what: str) -> None:
        """Hold ``stack`` read-only with its table once it passes the
        Hermiticity check (member t named as ``what.format(t=t)``), run one
        sampling block at a time so it fits the block ``coverage_bytes`` charges."""
        for b in _blocks(len(stack), stack.shape[1]):
            _require_hermitian(stack[b], what, b.start)
        self._bounds = _table(stack, detect_eps)
        self._stack = stack
        self._stack.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    def _values(self, stack: np.ndarray) -> np.ndarray:
        # (members, n) expectation values on an (n, d, d) stack, one
        # contraction per member: a single three-index einsum over the whole
        # stack sums in a different order and changes last bits.  Each writes
        # its row of one complex buffer, whose real part needs no copy.
        values = np.empty((len(self._stack), len(stack)), dtype=np.complex128)
        for W, row in zip(self._stack, values):
            np.einsum("ij,nji->n", W, stack, out=row)
        return values.real


class Witness(_MemberTable):
    """Hermitian operator with its diagonal-derived interval.

    The interval endpoints are always recomputed from the matrix diagonal at
    construction (min and max of the real parts); callers cannot inject an
    inconsistent interval.  ``detect_eps`` is the strict-with-tolerance margin:
    values within ``detect_eps`` plus the slack of :func:`_slack` of the
    interval report NotDetected, so the witness never claims coherence on
    numerical fuzz or on a diagonal state that validation accepts.  It is
    held as the one-member case of a family's member table.
    """

    def __init__(self, matrix, detect_eps: float = DETECT_EPS):
        self._hold(_as_stack(matrix, "witness matrix").copy(), [detect_eps], "witness matrix")

    @property
    def matrix(self) -> np.ndarray:
        return self._stack[0]

    @property
    def interval_lo(self) -> float:
        return float(self._bounds[0, 0])

    @property
    def interval_hi(self) -> float:
        return float(self._bounds[1, 0])

    @property
    def interval(self) -> tuple[float, float]:
        return (self.interval_lo, self.interval_hi)

    @property
    def detect_eps(self) -> float:
        return float(self._bounds[2, 0])

    def with_eps(self, detect_eps: float) -> "Witness":
        """Same operator, different detection margin."""
        return Witness(self.matrix, detect_eps)

    def evaluate(self, state: DensityMatrix) -> DetectionReport:
        """Expectation value, margin, and verdict on one state."""
        return _reports(self, state)[0]

    def evaluate_batch(self, matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized evaluate over a stack of state matrices, shape (n, d, d).

        Returns (values, margins, detected) arrays of shape (n,), the same
        numbers :meth:`evaluate` reports one state at a time.
        """
        return tuple(a[0] for a in _evaluate(self, matrices))

    def __repr__(self):
        lo, hi, eps = self._bounds[:, 0].tolist()
        return f"Witness(dim={self.dim}, interval=[{lo}, {hi}], eps={eps})"


class WitnessFamily(_MemberTable):
    """Ordered, nonempty collection of same-dimension witnesses.

    The members are held as one read-only (members, d, d) matrix stack and a
    (3, members) table of their intervals and margins, which the kernel uses,
    so evaluation touches no member object.  The family keeps no member
    witness, only this table; ``members`` builds them from the stack on first
    access.
    """

    def __init__(self, label: str, members: Sequence[Witness]):
        members = tuple(members)
        if not members:
            raise DegenerateFamilyError("witness family must be nonempty")
        dims = {w.dim for w in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"family members have mixed dims {sorted(dims)}")
        self.label = label
        self._hold(np.stack([w.matrix for w in members]), [w.detect_eps for w in members], "member {t}")

    @classmethod
    def _from_stack(
        cls, label: str, stack: np.ndarray, detect_eps: Sequence[float], what: str = "witness matrix {t}"
    ) -> "WitnessFamily":
        """The family of a nonempty (members, d, d) stack, with every member's
        margin, checked and held by ``_hold``; a margin that is not finite and
        nonnegative raises InvalidParameterError."""
        family = cls.__new__(cls)
        family.label = label
        family._hold(stack, detect_eps, what)
        return family

    @functools.cached_property
    def members(self) -> tuple[Witness, ...]:
        return tuple(Witness(W, eps) for W, eps in zip(self._stack, self._bounds[2].tolist()))

    @property
    def detect_eps(self) -> tuple[float, ...]:
        """Every member's margin, in member order."""
        return tuple(self._bounds[2].tolist())

    def evaluate(self, state: DensityMatrix) -> tuple[DetectionReport, ...]:
        """Every member's report on one state, in member order."""
        return _reports(self, state)

    def evaluate_batch(self, matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, margins, detected) of every member on a stack of state
        matrices, shape (n, d, d); row i belongs to member i."""
        return _evaluate(self, matrices)

    def detects(self, state: DensityMatrix) -> bool:
        """True when at least one member detects the state."""
        return any(r.detected for r in self.evaluate(state))

    def __len__(self):
        return self._bounds.shape[1]


class _GeneratorFamily(WitnessFamily):
    """The members (K I + c_t g_{d+t}) / d of :func:`finite_family`, held as
    (d, K, c) and their few distinct matrix entries.

    Member t (pair (j, k) of ``np.triu_indices(d, 1)``, U for t < d(d-1)/2,
    V after) is K/d on the diagonal plus the entries ``_upper[t]`` at (j, k)
    and ``_lower[t]`` at (k, j); every other entry is zero.  The entries come
    from the matrix expression :func:`generator_witness` evaluates, so they
    carry its bits.  The member stack is built on first use, and the member
    objects from it on first access to ``members``; evaluation needs neither.
    """

    def __init__(self, label: str, d: int, K: float, coeffs: np.ndarray):
        self.label = label
        self._dim, self._K = d, K
        n_pairs = len(coeffs) // 2
        # Every U member's pair entries sit in one matrix, every V member's in
        # another, each where a lone member has it.
        eta = np.zeros((2, d * d - 1))
        eta[0, d - 1 : d - 1 + n_pairs] = coeffs[:n_pairs]
        eta[1, d - 1 + n_pairs :] = coeffs[n_pairs:]
        U, V = (_generator_matrix(d, K, e) for e in eta)
        j, k = np.triu_indices(d, 1)
        self._j, self._k = np.tile(j, 2), np.tile(k, 2)
        self._upper = np.concatenate([U[j, k], V[j, k]])
        self._lower = np.concatenate([U[k, j], V[k, j]])
        self._diag = U.diagonal().copy()  # every member's diagonal
        self._bounds = np.repeat(_table(U[None], [DETECT_EPS]), len(coeffs), axis=1)

    @property
    def dim(self) -> int:
        return self._dim

    @functools.cached_property
    def _stack(self) -> np.ndarray:
        # One scatter: the (K I)/d of a member with no pair coefficient, then
        # each member's two pair entries.
        d, t = self._dim, np.arange(len(self))
        stack = np.repeat(_generator_matrix(d, self._K, np.zeros(d * d - 1))[None], len(self), axis=0)
        stack[t, self._j, self._k] = self._upper
        stack[t, self._k, self._j] = self._lower
        stack.setflags(write=False)
        return stack

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """The einsum's values on a finite stack from d row steps over one
        (members, n) accumulator.

        The einsum of a member with a state sums each row of W rho^T on its
        own and adds the row sums in order onto +0.  For member (j, k) row j
        sums to D_j + O_jk, row k to O_kj + D_k and every other row i to D_i,
        with D_i = Re(w) Re(rho_ii) - Im(w) Im(rho_ii) for the diagonal entry w
        and O_jk = Re(W_jk) Re(rho_kj) - Im(W_jk) Im(rho_kj); products with the
        zero entries add nothing to a finite sum.  Row step i reads column i of
        every state.
        """
        acc = np.zeros((len(self), len(stack)))
        row = np.empty_like(acc)
        for i in range(self._dim):
            col = stack[:, :, i].T  # rho_li for every l, shape (d, n)
            re, im = col.real, col.imag
            w = self._diag[i]
            D = w.real * re[i] - w.imag * im[i]
            row[:] = D
            a = np.flatnonzero(self._j == i)  # members (i, k): row i is D_i + O_ik
            W = self._upper[a, None]
            row[a] = D + (W.real * re[self._k[a]] - W.imag * im[self._k[a]])
            b = np.flatnonzero(self._k == i)  # members (j, i): row i is O_ij + D_i
            W = self._lower[b, None]
            row[b] = (W.real * re[self._j[b]] - W.imag * im[self._j[b]]) + D
            acc += row
        return acc


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
    equivalent to |ax + by + cz| > |c| + 2 * (DETECT_EPS + slack), with
    slack = max(|K - |c||, |K + |c||) * TRACE_DEV / 2 + |c| * PSD_FLOOR.
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


def _generator_matrix(d: int, K: float, coeffs) -> np.ndarray:
    # (K I + sum_i s_i g_i) / d.
    op = _operator(d, coeffs)  # validates d before np.eye sees it
    return (K * np.eye(d, dtype=np.complex128) + op) / d


def generator_witness(d: int, K: float, coeffs) -> Witness:
    """(K I + sum_i s_i g_i) / d for a real coefficient vector of length d**2 - 1.

    When the diagonal-generator coefficients (indices 1..d-1) all vanish,
    every diagonal entry equals K/d and the interval collapses to a point.
    The expectation on a state with coefficient vector r is
    K/d + (2/d**2) * dot(r, s).
    """
    return Witness(_generator_matrix(d, K, coeffs))


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

    The family is held as (d, K, coefficients): evaluation reads each state
    in d row steps, in the summation order of the per-member einsum, so its
    values match the member matrices bit for bit.  The member witnesses are
    built on first access to ``members``.  A non-finite K or coefficient
    raises NonFiniteError, as a member Witness would.
    """
    if d < 2:
        raise DimensionMismatchError(f"family needs dim >= 2, got {d}")
    n = d * (d - 1)
    v = np.ones(n) if coeffs is None else np.asarray(coeffs, dtype=np.float64)
    if v.shape != (n,):
        raise LengthMismatchError(f"family needs {n} coefficients for dim {d}, got {v.shape}")
    if not (math.isfinite(K) and np.isfinite(v).all()):
        raise NonFiniteError(f"family K and coefficients must be finite, got K={K}")
    if np.any(v == 0.0):
        raise ZeroCoefficientError("family coefficients must all be nonzero")
    return _GeneratorFamily(f"single-generator(d={d}, K={K})", d, K, v)
