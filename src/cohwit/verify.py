"""Ensemble-scale sweeps that turn the detection guarantees into pass/fail
reports.

Containment, that no diagonal state validation accepts is detected, needs no
sweep: it is a theorem, proved for every witness by the slack of
``witness._slack``.  :func:`verify_coverage` checks completeness, that a
family detects every coherent state of an ensemble, and
:func:`qubit_geometry_check` compares qubit verdicts with the plane
predicate on a lattice.

Every sweep is deterministic in its inputs: state t of an ensemble uses
sub-seed ``seed + t``, so runs can be partitioned.  A report carries every
input of its sweep but the family's members: its dim, number of states,
seed and tolerances, and the family's label.  So every report can be
replayed from its own fields.

A sweep samples, evaluates and tallies one chunk of states at a time, so
:func:`sweep_bytes` bounds what it holds without its number of states.  Each
report field is an exact count, minimum or maximum: the same in any chunking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .linalg import MAX_COVERAGE_BYTES, _require_bytes  # the cap, re-exported
from .rng import Seed
from .states import _BLOCK_ENTRIES, _ensemble_chunks, l1_coherence_batch
from .generators import _qubit_matrices
from .witness import WitnessFamily, _slack, _verdicts, is_effective_qubit, qubit_witness

# States with l1 coherence at or below this are exempt from detection demands:
# their witness margins sit below numerical resolution.
COHERENCE_THRESHOLD = 1e-7

# A chunk of a sweep holds at most this many (member, state) pairs and state
# matrix entries together, and at least one state.
_CHUNK_ITEMS = 1 << 21


@dataclass(frozen=True)
class CoverageReport:
    """Family-vs-ensemble detection statistics.

    PASS means every state with l1 coherence above the threshold was detected
    by at least one member and no state at or below it was detected by any.
    ``detect_eps`` is the members' common margin, or the tuple of every
    member's margin when they differ.
    """

    dim: int
    n_states: int
    n_coherent: int
    n_detected: int
    n_false_alarm: int
    min_margin_detected: float | None
    per_witness_hits: tuple[int, ...]
    seed: Seed
    coherence_threshold: float
    detect_eps: float | tuple[float, ...]
    family_label: str
    passed: bool


@dataclass(frozen=True)
class GeometryReport:
    """Grid comparison of qubit witness verdicts against the plane predicate."""

    grid_n: int
    n_points: int
    n_mismatch: int
    n_detected: int
    witness_params: tuple[float, float, float, float]
    detect_eps: float
    effective: bool
    passed: bool


def _chunk_states(d: int, n_members: int) -> int:
    """States per chunk of a sweep of n_members members at dim d."""
    return max(1, _CHUNK_ITEMS // (n_members + d * d))


def sweep_bytes(d: int, n_members: int, holds_matrices: bool) -> int:
    """Bytes a sweep of n_members members at dim d holds at once, whatever
    its number of states, since it holds one chunk (``_chunk_states``) at a
    time.  Per state of the chunk: 24 bytes per matrix entry, the complex
    chunk and the float copy the l1 oracle makes, and 41 bytes per member,
    the kernel's complex values, float margins, two margin temporaries and
    bool verdicts.  Then 128 bytes per entry of one sampling block, which
    covers the sampler's temporaries and, with the chunk, the built-in
    family's construction.  A family that holds member matrices (one built
    from witnesses or read from a document, not the built-in family) adds 16
    bytes per member matrix entry."""
    block = max(_BLOCK_ENTRIES, d * d)
    held = 16 * d * d * n_members if holds_matrices else 0
    return (24 * d * d + 41 * n_members) * _chunk_states(d, n_members) + 128 * block + held


def bloch_bytes(grid_n: int) -> int:
    """Bytes the ``bloch`` command holds at once for a grid_n**3 lattice.
    Per point in the ball it holds three axis indices, the per-axis terms
    gathered for it while the lattice is evaluated (no 2 x 2 matrix), its
    value and verdict, and, while the CSV is written, the value column's
    sorted bit patterns and indices and a formatted string per distinct
    value.  At grid_n = 121 its traced peak is about 83 bytes per point of
    the cube when every value is distinct and 24 characters long, set by the
    writer's strings, and 30 when few are.  Counting 128 bytes per point of
    the cube and 2 MiB covers that and the command's fixed costs.  The
    charge stays at 128 because the peak it must cover is the writer's,
    which evaluating from per-axis terms does not lower, and so the largest
    grid the cap accepts stays 203."""
    return 128 * grid_n**3 + 2**21


def _tally(family: WitnessFamily, threshold: float, chunk: np.ndarray) -> tuple[np.ndarray, float]:
    """The counts of a chunk of states (coherent, detected, false alarms,
    misses, then each member's hits) and its least detected margin, inf
    where nothing is detected."""
    coherent = l1_coherence_batch(chunk) > threshold
    _, margins, detected = family.evaluate_batch(chunk)
    seen = detected.any(axis=0)
    counts = [np.count_nonzero(c) for c in (coherent, seen, seen & ~coherent, coherent & ~seen)]
    low = float(margins[detected].min()) if seen.any() else math.inf
    return np.concatenate([counts, detected.sum(axis=1)]), low


def verify_coverage(
    family: WitnessFamily,
    n_states: int,
    seed: Seed,
    *,
    coherence_threshold: float = COHERENCE_THRESHOLD,
) -> CoverageReport:
    """Evaluate every family member on the mixed ensemble of ``n_states``
    states at the family's dimension and tally detection.

    The report's dim, n_states, seed and coherence_threshold are, with the
    family, all that the sweep reads, so ``verify_coverage(family,
    report.n_states, report.seed,
    coherence_threshold=report.coherence_threshold)`` gives the same report
    again.  Rejects a sweep of no state, a negative ``n_states``, a negative
    or non-finite ``coherence_threshold``, and a sweep whose
    :func:`sweep_bytes` exceed ``MAX_COVERAGE_BYTES``.
    """
    if not (math.isfinite(coherence_threshold) and coherence_threshold >= 0.0):
        raise InvalidParameterError(
            f"coherence threshold must be finite and nonnegative, got {coherence_threshold}"
        )
    if n_states == 0:
        raise InvalidParameterError("a coverage sweep needs at least one state")
    d = family.dim
    need = sweep_bytes(d, len(family), family._holds_matrices)
    _require_bytes(need, f"a sweep of {len(family)} members at d={d}")
    totals = np.zeros(4 + len(family), dtype=np.int64)
    low = math.inf
    # map holds no chunk between its calls, so one chunk is held at a time.
    tally = functools.partial(_tally, family, coherence_threshold)
    chunks = _ensemble_chunks(d, n_states, seed, _chunk_states(d, len(family)))
    for counts, least in map(tally, chunks):
        totals += counts
        low = min(low, least)
    n_coherent, n_detected, n_false_alarm, n_missed = totals[:4].tolist()
    eps = family.detect_eps
    return CoverageReport(
        dim=d,
        n_states=n_states,
        n_coherent=n_coherent,
        n_detected=n_detected,
        n_false_alarm=n_false_alarm,
        min_margin_detected=low if n_detected else None,
        per_witness_hits=tuple(totals[4:].tolist()),
        seed=seed,
        coherence_threshold=coherence_threshold,
        detect_eps=eps[0] if len(set(eps)) == 1 else eps,
        family_label=family.label,
        passed=n_missed == 0 and n_false_alarm == 0,
    )


def _ball_lattice(grid_n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The axis ``np.linspace(-1, 1, grid_n)`` and the index arrays (i, j, k)
    of the lattice points (axis[i], axis[j], axis[k]) in the unit ball, in C
    order.  The squared norm is summed (x² + y²) + z², left to right, which
    fixes which points on the sphere pass; no coordinate grid is built.  The
    grid is validated first."""
    if grid_n < 2:
        raise InvalidParameterError(f"grid_n must be >= 2, got {grid_n}")
    _require_bytes(bloch_bytes(grid_n), f"a lattice of {grid_n}**3 points")
    axis = np.linspace(-1.0, 1.0, grid_n)
    sq = axis * axis
    return axis, np.nonzero((sq[:, None] + sq)[:, :, None] + sq <= 1.0)


def _qubit_lattice(K: float, a: float, b: float, c: float, grid_n: int):
    """The qubit witness (K, a, b, c), the :func:`_ball_lattice` axis and
    index arrays, and the witness's values and verdict mask on those points,
    from tables over the axis; the grid is validated first.

    The values are the kernel's, ``Witness.evaluate_batch`` of the points'
    ``_qubit_matrices(1.0, x, y, z)``, bit for bit, with no point's matrix
    built.  The kernel sums each row r of W rho^T onto +0, one term T_rs =
    Re W_rs Re rho_sr - Im W_rs Im rho_sr at a time, and then the rows onto
    +0.  Of a point's matrix, rho_00 and rho_11 read z only, Re rho_01 and
    Re rho_10 x only, and Im rho_01 and Im rho_10 y only, each up to the
    sign of a zero.  So T_00 and T_11 are tables over k and T_01 and T_10
    tables over (i, j), all taken from the G points ``_qubit_matrices(1.0,
    axis, axis, axis)``, and a value is 0 + ((T_00 + T_01) + (T_10 +
    T_11)).  A zero term cannot change a sum that started from +0, and the
    leading 0 + gives a zero total the kernel's sign, +0, so the sign of a
    zero entry of rho never reaches a value.
    """
    axis, (i, j, k) = _ball_lattice(grid_n)
    w = qubit_witness(K, a, b, c)
    W, rho = w.matrix, _qubit_matrices(1.0, axis, axis, axis)
    re, im = rho.real.T, rho.imag.T  # re[r, s] is Re rho_sr at every axis value
    T00, T11 = (W[r, r].real * re[r, r] - W[r, r].imag * im[r, r] for r in (0, 1))
    T01, T10 = (W[r, s].real * re[r, s][:, None] - W[r, s].imag * im[r, s] for r, s in ((0, 1), (1, 0)))
    with np.errstate(over="ignore", invalid="ignore"):  # _verdicts refuses a non-finite value
        values = 0.0 + ((T00[k] + T01[i, j]) + (T10[i, j] + T11[k]))
    _, detected = _verdicts(w, values[None])
    return w, (axis, (i, j, k), values, detected[0])


def qubit_geometry_check(K: float, a: float, b: float, c: float, grid_n: int) -> GeometryReport:
    """Compare witness verdicts against |ax + by + cz| > |c| on a ball lattice.

    Verdicts come from the witness's matrix entries, computed in the
    kernel's arithmetic (:func:`_qubit_lattice`); the predicate is computed
    independently from the coordinates with the same 2 * (detect_eps + slack)
    buffer, so boundary-plane lattice points agree on NotDetected from both
    sides.  A lattice with no point in the ball (grid_n = 2) is rejected.
    """
    w, (axis, (i, j, k), _, detected) = _qubit_lattice(K, a, b, c, grid_n)
    if i.size == 0:
        raise InvalidParameterError(f"a lattice of {grid_n}**3 points has no point in the ball")
    slack = float(_slack(w._bounds, 2)[0])
    # A quarter of each side: scaling by a power of two is exact, so this is
    # |ax + by + cz| > |c| + 2 (eps + slack), and the sum of three quarters stays finite.
    plane = 0.25 * a * axis[i] + 0.25 * b * axis[j] + 0.25 * c * axis[k]
    predicate = np.abs(plane) > 0.25 * abs(c) + 0.5 * (w.detect_eps + slack)
    n_mismatch = int(np.count_nonzero(detected != predicate))
    return GeometryReport(
        grid_n=grid_n,
        n_points=int(i.size),
        n_mismatch=n_mismatch,
        n_detected=int(np.count_nonzero(detected)),
        witness_params=(K, a, b, c),
        detect_eps=w.detect_eps,
        effective=is_effective_qubit(a, b, c),
        passed=n_mismatch == 0,
    )
