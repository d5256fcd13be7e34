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
from fractions import Fraction
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
from .generators import OFFDIAG_TOL, _generator_matrix, _operator, _qubit_matrices, bloch_vector
from .linalg import (
    DETECT_EPS, HERMITICITY_TOL, PSD_FLOOR, TRACE_DEV, _as_stack, _require_bytes, _require_finite, _require_hermitian
)
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
    """How far the computed value of a diagonal state that validation accepts
    can leave [lo, hi], for each member of a (3, members) bounds table at dim d:
    ``max(|lo|, |hi|) * (TRACE_DEV + d * 2**-51) + (d - 1) * (hi * PSD_FLOOR -
    lo * PSD_FLOOR) + d * HERMITICITY_TOL**2 / 2``.

    This is the containment theorem.  Let the member's diagonal be a_k + i b_k,
    with lo <= a_k <= hi, and the state diag(p_k + i e_k).  Validation bounds
    |b_k| and |e_k| by HERMITICITY_TOL / 2, the computed trace within
    TRACE_DEV of 1 and each p_k below by -PSD_FLOOR; Tr(W rho) is
    sum_k p_k a_k - sum_k b_k e_k.

    - For p on the simplex, sum_k p_k a_k is a convex combination of the a_k,
      so it lies in [lo, hi].  Its extremes are the vertices |k><k|, where
      the kernel returns a_k exactly: a product with 1, to which the term of
      Im W_kk adds a zero, then sums with zeros.
    - A trace off 1 by t and entries down to -PSD_FLOOR move it past hi (or
      lo) by at most max(|lo|, |hi|) * |t| + (d - 1) * (hi - lo) * PSD_FLOOR.
    - The cross term sum_k b_k e_k is at most d * (HERMITICITY_TOL / 2)**2,
      half of the last term.  The sum of those d products rounds above that
      bound, so the term is twice it; what is left also covers every
      subnormal rounding, each below 5e-324.
    - The kernel's sum of d products and the trace check's sum of d entries
      each round by at most about (d + 1) * 2**-53 * sum_k |p_k| *
      max(|lo|, |hi|), and sum_k |p_k| < 1.03 for d up to 10**7.  With the
      few roundings of the margin and of this slack, that is below
      d * 2**-51 * max(|lo|, |hi|) for every d >= 2.  The TRACE_DEV term
      cannot absorb it: a state whose computed trace sits at the edge uses
      all of it.  At d = 8192, where one matrix takes 1 GiB, d * 2**-51 is
      below 4e-12, 0.4% of TRACE_DEV.

    So no accepted diagonal state's margin exceeds its slack, and none is
    detected at any detect_eps >= 0.  Each endpoint is scaled before the
    difference is taken, so the slack is finite and nonnegative for every
    finite interval and never overflows.
    """
    lo, hi = bounds[:2]
    big = np.maximum(np.abs(lo), np.abs(hi))
    return big * (TRACE_DEV + d * 2.0**-51) + (d - 1) * (hi * PSD_FLOOR - lo * PSD_FLOOR) + d * HERMITICITY_TOL**2 / 2


def _evaluate(source, stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, margins and verdicts of every member of ``source`` on every
    state matrix.

    ``source`` is a member table (a Witness is its one-member case): its
    (3, members) ``_bounds`` of :func:`_table` and its members' values from
    ``_values``.  ``stack`` has shape (n, d, d); each result has shape
    (members, n).  A state with a NaN or infinite entry raises
    NonFiniteError naming the first such state, before any value is
    computed; the margins and verdicts are :func:`_verdicts`'.
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
    return values, *_verdicts(source, values)


def _verdicts(source, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The margins and verdicts of the (members, n) values of the members of
    ``source`` on n states.

    This is the one home of the margin rule ``max(lo - value, value - hi)``
    and of the verdict ``margin > detect_eps + slack``, with the slack of
    :func:`_slack`, so no diagonal state that validation accepts is ever
    detected, at any detect_eps >= 0, zero included.  A value or margin that
    is not finite raises NonFiniteError naming the first such member and
    state.
    """
    lo, hi, eps = source._bounds[..., None]
    # Overflow is checked, not warned about: a side of the margin that
    # overflows loses to the other side in np.maximum, a margin that overflows
    # raises NonFiniteError below, and an eps + slack past the float range is
    # inf, which no finite margin exceeds.
    with np.errstate(over="ignore", invalid="ignore"):
        # max(lo - value, value - hi), with operands swapped because np.maximum
        # keeps its second operand on a tie of signed zeros, as max keeps its first.
        margins = np.maximum(values - hi, lo - values)
        detected = margins > eps + _slack(source._bounds, source.dim)[:, None]
    bad = ~np.isfinite(margins)  # NaN or inf values make NaN or inf margins
    if bad.any():
        i, t = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteError(f"witness {i} on state {t}: value {values[i, t]} or its margin overflows")
    return margins, detected


def _reports(source, state: DensityMatrix) -> tuple[DetectionReport, ...]:
    # One report per member on one state, from a single kernel call.
    values, margins, detected = _evaluate(source, state.matrix[None])
    lo, hi = source._bounds[:2].tolist()
    return tuple(
        DetectionReport(float(v), (a, b), float(m), Verdict.DETECTED if hit else Verdict.NOT_DETECTED)
        for a, b, v, m, hit in zip(lo, hi, values[:, 0], margins[:, 0], detected[:, 0])
    )


def _slot_tables(stack: np.ndarray, slots: int):
    """The gather and factor tables of the member-table kernel for a
    (members, d, d) stack whose members hold at most ``slots`` nonzero
    entries in one row: (2, d, slots, members) columns, (2, d, slots,
    members, 1) factors and the (d,) rows that need two parts.

    Member t's nonzero columns j in row i fill slots (i, 0, t), (i, 1, t),
    ... in ascending order, and its other slots in the row carry a zero
    factor.  The columns index row i's (2d, n) column table, Re rho_ji of
    every state and then Im rho_ji.  A slot's term is part 0 times its
    factor, plus part 1 times its factor in a row where some entry has a
    nonzero real and imaginary part: Re W_ij Re rho_ji - Im W_ij Im rho_ji,
    with the one product that is not a zero where W_ij is real or
    imaginary.  That term is the einsum's up to the sign of a zero.  The
    build holds up to about 113 bytes per slot at its peak, on a dense
    stack (``verify.sweep_bytes`` charges 128)."""
    m, d = stack.shape[:2]
    stack = np.ascontiguousarray(stack)
    # A pair of bools read as one int16 is nonzero where Re or Im W is.
    k = np.flatnonzero((stack.view(np.float64) != 0).view(np.int16))  # by member, row, column
    w = stack.reshape(-1)[k]
    g, j = np.divmod(k, d)
    del k  # each index array is dropped when spent, to keep the peak charged per slot
    slot = np.arange(g.size) - np.searchsorted(g, g)  # rank within its member's row
    t, i = np.divmod(g, d)
    del g
    real = w.real != 0
    both = real & (w.imag != 0)
    cols = np.zeros((2, d, slots, m), dtype=np.intp)
    coef = np.zeros((2, d, slots, m, 1))
    cols[0, i, slot, t] = np.where(real, j, j + d)
    cols[1, i, slot, t] = j + d
    coef[0, i, slot, t, 0] = np.where(real, w.real, -w.imag)
    coef[1, i[both], slot[both], t[both], 0] = -w.imag[both]
    two = np.zeros(d, dtype=bool)
    two[i[both]] = True
    return cols, coef, two


class _MemberTable:
    """A read-only (members, d, d) matrix stack ``_stack``, the (3, members)
    table ``_bounds`` that :func:`_table` builds from it and ``_widest``, the
    most nonzero entries in one row of one member, at least 1 so that a table
    of zeros still reads as holding its stack (the built-in family, which
    holds none, has 0): all that :func:`_evaluate` and ``verify.sweep_bytes``
    read of a Witness or a WitnessFamily."""

    def _hold(self, stack: np.ndarray, detect_eps: Sequence[float], what: str) -> None:
        """Hold ``stack`` read-only with its table once it passes the
        Hermiticity check (member t named as ``what.format(t=t)``), run one
        sampling block at a time so it fits the block ``verify.sweep_bytes``
        charges."""
        self._widest = 1
        for b in _blocks(len(stack), stack.shape[1]):
            _require_hermitian(stack[b], what, b.start)
            self._widest = max(self._widest, int(np.count_nonzero(stack[b], axis=2).max()))
        self._bounds = _table(stack, detect_eps)
        self._dim = stack.shape[1]
        self._stack = stack
        self._stack.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def _holds_matrices(self) -> bool:
        # Whether the member stack is in memory; the built-in family, whose
        # _widest is 0, builds it each time it is read.
        return self._widest > 0

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """The members' (members, n) values on a finite (n, d, d) stack, from
        their nonzero entries, one row of every member at a time.

        Tr(W rho) is summed as ``np.einsum("ij,nji->n", W, rho)`` sums it:
        each row's terms T_j = Re W_ij Re rho_ji - Im W_ij Im rho_ji in
        column order, then the row sums in row order onto +0.  Row i's terms
        are gathered from the slots of :func:`_slot_tables` into (slot,
        member, state) order, and the slots added in order: numpy adds along
        the outer axis in order, except pairwise where it is the only axis
        left (one member on one state), where a running sum is in order.
        The terms the einsum has and the slots do not are zeros, and so are
        the padding slots; a sum with zero terms left out or added, or with
        the signs of zero terms changed, changes at most the sign of a zero
        result, and a zero of either sign added to +0 gives +0.  So the
        values are the einsum's bit for bit.  Row i costs O(_widest) per
        (member, state) and a few numpy calls; ``verify.sweep_bytes``
        charges the tables and the temporaries.
        """
        W, (n, d) = self._stack, stack.shape[:2]
        cols, coef, two = _slot_tables(W, self._widest)
        x = np.ascontiguousarray(stack).view(np.float64).reshape(n, d, d, 2)
        values = np.zeros((len(W), n))
        gathered = np.empty((2 if two.any() else 1, *cols.shape[2:], n))  # one row's (part, slot, member, state)
        with np.errstate(over="ignore", invalid="ignore"):  # _verdicts refuses a non-finite value
            for i in range(d):
                parts = 2 if two[i] else 1
                column = x[:, :, i].transpose(2, 1, 0).reshape(2 * d, n)
                # Every column is in range; under mode="raise" take would buffer out.
                terms = np.take(column, cols[:parts, i], axis=0, out=gathered[:parts], mode="clip")
                terms *= coef[:parts, i]
                if parts == 2:
                    terms[0] += terms[1]
                values += np.add.reduce(terms[0]) if terms[0, 0].size > 1 else np.cumsum(terms[0], axis=0)[-1]
        return values


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
    def interval(self) -> tuple[float, float]:
        return tuple(self._bounds[:2, 0].tolist())

    @property
    def detect_eps(self) -> float:
        return float(self._bounds[2, 0])

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
    access, after charging what they hold (16 bytes per member matrix entry,
    32 where the stack is built with them, and 1 KB per member) against
    ``MAX_COVERAGE_BYTES``.
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
        # Charged first: a copy of each member matrix and its objects (traced:
        # about 500 bytes a member), and the stack where it is not yet held.
        m, d = len(self), self.dim
        per_entry = 16 if self._holds_matrices else 32
        _require_bytes(m * (per_entry * d * d + 1024) + 8192, f"building {m} member witnesses at d={d}")
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
    (d, K, c) and the table their closed form reads.

    Member t (pair (j, k) of ``np.triu_indices(d, 1)``, U for t < d(d-1)/2,
    V after) is K/d on the diagonal plus ``_entries[:, t]`` at (j, k) and
    (k, j), real for U and imaginary for V.  Every diagonal entry is ``_w``,
    whose imaginary part is +0 for every finite K, so the closed form reads
    only Re rho_ii of the diagonal.  ``_cols[:, t]`` are the columns of a
    state's float view the pair entries multiply, Re or Im rho_kj and
    rho_jk, and ``_coef[:, t]`` the factors, Re of the entries for U and -Im
    for V.  The entries come from the matrix expression :func:`generator_witness`
    evaluates, so they carry its bits.  The member stack is built each time
    it is read, and the member objects from it on first access to
    ``members``.
    """

    def __init__(self, label: str, d: int, K: float, coeffs: np.ndarray):
        self.label = label
        self._dim, self._K = d, K
        half = np.repeat([0, 1], len(coeffs) // 2)  # U members, then V members
        # Every U member's pair entries sit in one matrix, every V member's in
        # another, each where a lone member has it.
        eta = np.zeros((2, d * d - 1))
        eta[half, np.arange(d - 1, d * d - 1)] = coeffs
        U, V = (_generator_matrix(d, K, e) for e in eta)
        j, k = np.triu_indices(d, 1)
        flat = np.array([np.tile(j * d + k, 2), np.tile(k * d + j, 2)])  # (j, k), then (k, j)
        self._entries = np.stack([U, V]).reshape(2, d * d)[half, flat]
        self._cols = 2 * flat[::-1] + half
        self._coef = np.where(half, -self._entries.imag, self._entries.real)
        self._w = U[0, 0]  # every diagonal entry of every member, K/d
        self._bounds = np.repeat(_table(U[None], [DETECT_EPS]), len(coeffs), axis=1)

    _widest = 0

    @property
    def _stack(self) -> np.ndarray:
        # One scatter: the (K I)/d of a member with no pair coefficient, then
        # each member's two pair entries.
        d, m = self._dim, len(self)
        stack = np.repeat(_generator_matrix(d, self._K, np.zeros(d * d - 1))[None], m, axis=0)
        stack.reshape(m, d * d)[np.arange(m), self._cols[::-1] // 2] = self._entries
        stack.setflags(write=False)
        return stack

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """The members' values on a finite (n, d, d) stack, two entries each.

        The member-table kernel (``_MemberTable._values``, which sums as the
        per-member einsum does) adds member (j, k)'s row sums of W rho^T onto
        +0 in order: D_j + O_jk, O_kj + D_k and D_i at every other row i,
        with D_i = Re(w) Re(rho_ii) - Im(w) Im(rho_ii) for the diagonal entry
        w and O_jk = Re(W_jk) Re(rho_kj) - Im(W_jk) Im(rho_kj).  Im(w) is +0,
        so each D_i is Re(w) Re(rho_ii) up to the sign of a zero.  Here D is
        the sum of the Re(w) Re(rho_ii) in row order, then added onto +0: the
        last addition drops every zero's sign, so D has the bits of the sum
        of the D_i onto +0 in row order.  The value is (D + O_jk) + O_kj,
        with one product per O: the other is a zero times a finite number,
        and D is never -0, so no zero's sign reaches a value.  At K = 0 every D_i is a
        zero, so the values are the member-table kernel's bit for bit; at
        K != 0 they can differ from them in the last bits.
        """
        n, d = len(stack), self._dim
        x = np.ascontiguousarray(stack).view(np.float64).reshape(n, 2 * d * d)
        # Re(rho_ii) is column i (2d + 2) of the float view.
        diag = 0.0 + np.cumsum(self._w.real * x[:, :: 2 * d + 2], axis=1)[:, -1]
        # Each column is scaled in its gather buffer: two floats per pair.
        values = np.take(x, self._cols[0], axis=1)
        values *= self._coef[0]
        values += diag[:, None]
        term = np.take(x, self._cols[1], axis=1)
        term *= self._coef[1]
        values += term
        return values.T


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
      scaled by ``gap / component`` so the expectation lands exactly on
      hi + 1.  When the canonical witness already evaluates to hi + 1 it is
      returned unchanged.

    The detection margin is 1, and a change of the component by dc moves the
    value by ``|gap / component| * dc``.  Entries up to COHERENT_ENTRY_TOL
    count as no coherence at all, so where ``|gap / component|`` exceeds
    ``1 / COHERENT_ENTRY_TOL`` (1e9) a change of the component below that
    tolerance moves the value by more than the margin: the witness is built,
    with a NumericallyMarginalWarning.
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
    scale = gap / component
    # An overflowing scale leaves non-finite entries, which Witness refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        M = scale * comp_op + base.matrix
    w = Witness(M)
    if abs(scale) * COHERENT_ENTRY_TOL > 1.0:
        warnings.warn(
            f"tailored witness scales its anchor component {component} by {scale}, "
            f"more than 1/{COHERENT_ENTRY_TOL}; detection is numerically marginal",
            NumericallyMarginalWarning,
            stacklevel=2,
        )
    return w


def qubit_witness(K: float, a: float, b: float, c: float) -> Witness:
    """(K I + a sigma_x + b sigma_y + c sigma_z)/2, the one-point case of
    ``generators._qubit_matrices``.

    Interval [(K - |c|)/2, (K + |c|)/2]; on the qubit state with coordinates
    (x, y, z) the expectation is (K + ax + by + cz)/2, so detection is
    equivalent to |ax + by + cz| > |c| + 2 * (DETECT_EPS + slack), with
    slack = max(|K - |c||, |K + |c||) * (TRACE_DEV + 2**-50) / 2 + |c| *
    PSD_FLOOR + HERMITICITY_TOL**2, the :func:`_slack` of its interval.
    """
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise ZeroOperatorError("qubit witness needs a, b, c not all zero")
    # K + c or K - c overflowing leaves non-finite entries, which Witness refuses.
    return Witness(_qubit_matrices(K, a, b, c)[0])


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

    Requires a1*b2 - a2*b1 != 0 in exact arithmetic: the two in-plane
    directions must not be proportional (this also rules out a zero pair).
    Non-finite inputs are refused by :func:`qubit_witness`.  A pair that
    leaves a pure coherent state undetected, because its directions are too
    short or too close for the tolerance and slack, is built, with a
    NumericallyMarginalWarning.
    """
    if all(map(math.isfinite, (a1, b1, a2, b2))) and (
        Fraction(a1) * Fraction(b2) == Fraction(a2) * Fraction(b1)
    ):
        raise DegenerateFamilyError(
            f"directions ({a1}, {b1}) and ({a2}, {b2}) are proportional or degenerate"
        )
    members = (qubit_witness(K, a1, b1, 0.0), qubit_witness(K, a2, b2, 0.0))
    family = WitnessFamily(label=f"qubit-pair(K={K}, ({a1},{b1}), ({a2},{b2}))", members=members)
    # Both members have the interval [K/2, K/2], so one slack, and the pure
    # in-plane states they see least are the unit v perpendicular to u1 - u2
    # and to u1 + u2.  The directions are scaled by their largest magnitude,
    # so nothing overflows.  A difference or sum that is zero once scaled is
    # dropped: the directions are then equal or opposite, and the state from
    # the other is perpendicular to both.
    u = np.array([[a1, b1], [a2, b2]]) / max(map(abs, (a1, b1, a2, b2)))
    w = np.array([u[0] - u[1], u[0] + u[1]])
    w = w[w.any(axis=1)]
    w /= np.abs(w).max(axis=1, keepdims=True)
    v = np.array([-w[:, 1], w[:, 0]]) / np.hypot(w[:, 0], w[:, 1])
    if not family.evaluate_batch(_qubit_matrices(1.0, *v, 0.0))[2].any(axis=0).all():
        warnings.warn(
            f"{family.label} leaves a pure coherent state undetected; "
            "detection is numerically marginal",
            NumericallyMarginalWarning,
            stacklevel=2,
        )
    return family


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


def finite_family_bytes(d: int) -> int:
    """Bytes :func:`finite_family` holds while it builds the family at dim d
    (traced: 176 per matrix entry at d >= 100, 7.5 KB at d = 2).  It is
    charged before the build; the ``verify.sweep_bytes`` of the family's
    sweep, charged after it, is never below it."""
    return 180 * d * d + 8192


def finite_family(d: int, K: float = 0.0, coeffs=None) -> WitnessFamily:
    """The d(d-1) single-generator witnesses covering every off-diagonal index.

    Member t carries coefficient ``coeffs[t]`` (default 1) on generator index
    d + t and zero elsewhere, so all members share the degenerate interval
    [K/d, K/d].  Jointly the family detects every state with off-diagonal
    support while leaving every diagonal state undetected.

    The family is held as (d, K, coefficients): evaluation reads two entries
    of a state per member, in closed form.  At K = 0 its values match the
    member matrices' bit for bit; at K != 0 they can differ by about 2 (d +
    1) 2^-53 |K|/d.  The member witnesses are built on first access to
    ``members``.  A non-finite K or coefficient raises NonFiniteError, as a
    member Witness would.  A family whose :func:`finite_family_bytes` exceeds
    ``MAX_COVERAGE_BYTES`` (d > 2442) raises InvalidParameterError before
    anything is allocated.
    """
    if d < 2:
        raise DimensionMismatchError(f"family needs dim >= 2, got {d}")
    _require_bytes(finite_family_bytes(d), f"finite_family at d={d}")
    n = d * (d - 1)
    v = np.ones(n) if coeffs is None else np.asarray(coeffs, dtype=np.float64)
    if v.shape != (n,):
        raise LengthMismatchError(f"family needs {n} coefficients for dim {d}, got {v.shape}")
    if not (math.isfinite(K) and np.isfinite(v).all()):
        raise NonFiniteError(f"family K and coefficients must be finite, got K={K}")
    if np.any(v == 0.0):
        raise ZeroCoefficientError("family coefficients must all be nonzero")
    return _GeneratorFamily(f"single-generator(d={d}, K={K})", d, K, v)
