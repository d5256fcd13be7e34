"""Ensemble-scale sweeps that turn the detection guarantees into pass/fail
reports.

Every sweep is deterministic in (inputs, seed): state t of an ensemble uses
sub-seed ``seed + t``, so runs can be partitioned or replayed from the report
alone.  Reports carry their seed and tolerances for that reason.

A sweep samples, evaluates and tallies one chunk of states at a time, so
:func:`sweep_bytes` bounds what it holds without its number of states.  Each
report field is an exact count, minimum or maximum: the same in any chunking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .linalg import DETECT_EPS, MAX_COVERAGE_BYTES, _require_bytes  # the cap, re-exported
from .rng import Seed
from .states import (
    _BLOCK_ENTRIES,
    DensityMatrix,
    _ensemble_chunks,
    _require_dim,
    l1_coherence_batch,
    sample_hermitian_batch,
)
from .generators import _qubit_matrices
from .witness import WitnessFamily, _slack, is_effective_qubit, qubit_witness

# States with l1 coherence at or below this are exempt from detection demands:
# their witness margins sit below numerical resolution.
COHERENCE_THRESHOLD = 1e-7

# Interval containment slack for diagonal states (pure roundoff budget).
CONTAINMENT_SLACK = 1e-12

# A chunk of a sweep holds at most this many (member, state) pairs and state
# matrix entries together, and at least one state.
_CHUNK_ITEMS = 1 << 21


@dataclass(frozen=True)
class ContainmentReport:
    """Worst interval violation of diagonal states over a random witness sweep."""

    dim: int
    n_witnesses: int
    n_states: int
    seed: Seed
    worst_violation: float
    slack: float
    passed: bool


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
    from witnesses or read from a document, or the built-in family once its
    member stack is built) adds 16 bytes per member matrix entry."""
    block = max(_BLOCK_ENTRIES, d * d)
    held = 16 * d * d * n_members if holds_matrices else 0
    return (24 * d * d + 41 * n_members) * _chunk_states(d, n_members) + 128 * block + held


def bloch_bytes(grid_n: int) -> int:
    """Bytes the ``bloch`` command holds at once for a grid_n**3 lattice.
    Per point in the ball it holds the coordinates and values, their sorted
    bit patterns and indices, and a formatted string per distinct value; at
    worst, when every value is distinct and 24 characters long, that is about
    112 bytes per point of the cube.  Counting 128 bytes per point of the cube
    and 2 MiB covers that and the command's fixed costs."""
    return 128 * grid_n**3 + 2**21


def verify_incoherent_containment(d: int, n_witnesses: int, n_states: int, seed: Seed) -> ContainmentReport:
    """Check that diagonal states never leave random witnesses' intervals.

    Witness j uses sub-seed ``seed + j``; state t uses ``seed + n_witnesses + t``.
    The worst violation is the largest margin of any state on any witness.  A
    sweep whose :func:`sweep_bytes` exceed ``MAX_COVERAGE_BYTES`` is rejected
    before sampling.
    """
    if n_witnesses < 1 or n_states < 1:
        raise InvalidParameterError(
            f"counts must be >= 1, got {n_witnesses} witnesses, {n_states} states"
        )
    _require_dim(d)
    _require_bytes(sweep_bytes(d, n_witnesses, True), f"a sweep of {n_witnesses} members at d={d}")
    matrices = sample_hermitian_batch(d, range(seed, seed + n_witnesses))
    family = WitnessFamily._from_stack(f"random-hermitian(d={d})", matrices, [DETECT_EPS] * n_witnesses)
    chunks = _ensemble_chunks(d, n_states, seed + n_witnesses, _chunk_states(d, n_witnesses), n_ginibre=0)
    # map holds no chunk between its calls, so one chunk is held at a time.
    worst = max(map(lambda chunk: float(family.evaluate_batch(chunk)[1].max()), chunks))
    return ContainmentReport(
        dim=d,
        n_witnesses=n_witnesses,
        n_states=n_states,
        seed=seed,
        worst_violation=worst,
        slack=CONTAINMENT_SLACK,
        passed=worst <= CONTAINMENT_SLACK,
    )


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
    d: int,
    n_states: int,
    seed: Seed,
    *,
    coherence_threshold: float = COHERENCE_THRESHOLD,
    extra_states: Sequence[DensityMatrix] = (),
) -> CoverageReport:
    """Evaluate every family member on a mixed ensemble and tally detection.

    ``extra_states`` are appended after the sampled ensemble; they make
    targeted blind spots testable without changing the sampling contract.
    Rejects a negative ``n_states``, a sweep of no state at all (no sampled
    and no extra state), a negative or non-finite ``coherence_threshold``,
    and a sweep whose :func:`sweep_bytes` exceed ``MAX_COVERAGE_BYTES``.
    """
    if not (math.isfinite(coherence_threshold) and coherence_threshold >= 0.0):
        raise InvalidParameterError(
            f"coherence threshold must be finite and nonnegative, got {coherence_threshold}"
        )
    if n_states == 0 and not extra_states:
        raise InvalidParameterError("a coverage sweep needs at least one state, sampled or extra")
    if family.dim != d:
        raise DimensionMismatchError(f"family dim {family.dim} does not match d={d}")
    for s in extra_states:
        if s.dim != d:
            raise DimensionMismatchError(f"extra state dim {s.dim} does not match d={d}")
    need = sweep_bytes(d, len(family), family._holds_matrices)
    _require_bytes(need, f"a sweep of {len(family)} members at d={d}")
    step = _chunk_states(d, len(family))
    starts = range(0, len(extra_states), step)
    extra = (np.array([s.matrix for s in extra_states[i : i + step]]) for i in starts)
    totals = np.zeros(4 + len(family), dtype=np.int64)
    low = math.inf
    # map holds no chunk between its calls, so one chunk is held at a time.
    tally = functools.partial(_tally, family, coherence_threshold)
    for counts, least in map(tally, chain(_ensemble_chunks(d, n_states, seed, step), extra)):
        totals += counts
        low = min(low, least)
    n_coherent, n_detected, n_false_alarm, n_missed = totals[:4].tolist()
    eps = family.detect_eps
    return CoverageReport(
        dim=d,
        n_states=n_states + len(extra_states),
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


def bloch_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-ball points of the grid_n**3 lattice over [-1, 1]^3.

    Points are ordered by x, then y, then z ascending; the same order is used
    by the CLI point-cloud output.  Rejects ``grid_n < 2`` and a lattice
    whose :func:`bloch_bytes` exceed ``MAX_COVERAGE_BYTES``.
    """
    if grid_n < 2:
        raise InvalidParameterError(f"grid_n must be >= 2, got {grid_n}")
    _require_bytes(bloch_bytes(grid_n), f"a lattice of {grid_n}**3 points")
    axis = np.linspace(-1.0, 1.0, grid_n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = X * X + Y * Y + Z * Z <= 1.0
    return X[mask], Y[mask], Z[mask]


def _qubit_lattice(K: float, a: float, b: float, c: float, grid_n: int):
    """The qubit witness (K, a, b, c) and the :func:`bloch_grid` coordinates
    with its values and verdict mask on them; the grid is validated first."""
    x, y, z = bloch_grid(grid_n)
    w = qubit_witness(K, a, b, c)
    values, _, detected = w.evaluate_batch(_qubit_matrices(1.0, x, y, z))
    return w, (x, y, z, values, detected)


def qubit_geometry_check(K: float, a: float, b: float, c: float, grid_n: int) -> GeometryReport:
    """Compare witness verdicts against |ax + by + cz| > |c| on a ball lattice.

    Verdicts come from the actual matrix evaluation; the predicate is computed
    independently from the coordinates with the same 2 * (detect_eps + slack)
    buffer, so boundary-plane lattice points agree on NotDetected from both
    sides.  A lattice with no point in the ball (grid_n = 2) is rejected.
    """
    w, (x, y, z, _, detected) = _qubit_lattice(K, a, b, c, grid_n)
    if x.size == 0:
        raise InvalidParameterError(f"a lattice of {grid_n}**3 points has no point in the ball")
    slack = float(_slack(w._bounds, 2)[0])
    # A quarter of each side: scaling by a power of two is exact, so this is
    # |ax + by + cz| > |c| + 2 (eps + slack), and the sum of three quarters stays finite.
    plane = 0.25 * a * x + 0.25 * b * y + 0.25 * c * z
    predicate = np.abs(plane) > 0.25 * abs(c) + 0.5 * (w.detect_eps + slack)
    n_mismatch = int(np.count_nonzero(detected != predicate))
    return GeometryReport(
        grid_n=grid_n,
        n_points=int(x.size),
        n_mismatch=n_mismatch,
        n_detected=int(np.count_nonzero(detected)),
        witness_params=(K, a, b, c),
        detect_eps=w.detect_eps,
        effective=is_effective_qubit(a, b, c),
        passed=n_mismatch == 0,
    )
