"""Ensemble-scale sweeps that turn the detection guarantees into pass/fail
reports.

Every sweep is deterministic in (inputs, seed): state t of an ensemble uses
sub-seed ``seed + t``, so runs can be partitioned or replayed from the report
alone.  Reports carry their seed and tolerances for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .rng import Seed
from .states import DensityMatrix, l1_coherence, sample_ginibre, sample_hermitian, sample_incoherent
from .witness import Witness, WitnessFamily, is_effective_qubit, qubit_witness

# States with l1 coherence at or below this are exempt from detection demands:
# their witness margins sit below numerical resolution.
COHERENCE_THRESHOLD = 1e-7

# Interval containment slack for diagonal states (pure roundoff budget).
CONTAINMENT_SLACK = 1e-12


@dataclass(frozen=True)
class ContainmentReport:
    """Worst interval violation of diagonal states over a random witness sweep."""

    dim: int
    n_witnesses: int
    n_states: int
    seed: Seed
    interval_shrink: float
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

    @property
    def any_detected(self) -> bool:
        return self.n_detected > 0


def mixed_ensemble(d: int, n_states: int, seed: Seed) -> list[DensityMatrix]:
    """Half full-rank random states (coherent a.s.), half diagonal states.

    State t uses sub-seed ``seed + t``; the first ``n_states // 2`` are the
    random full-rank ones.
    """
    n_g = n_states // 2
    out: list[DensityMatrix] = []
    for t in range(n_states):
        if t < n_g:
            out.append(sample_ginibre(d, seed + t))
        else:
            out.append(sample_incoherent(d, seed + t).as_density_matrix())
    return out


def verify_incoherent_containment(
    d: int,
    n_witnesses: int,
    n_states: int,
    seed: Seed,
    *,
    interval_shrink: float = 0.0,
) -> ContainmentReport:
    """Check that diagonal states never leave random witnesses' intervals.

    Witness j uses sub-seed ``seed + j``; state t uses ``seed + n_witnesses + t``.
    ``interval_shrink`` narrows each interval symmetrically and exists only to
    fault-inject the harness (a positive shrink must produce a FAIL).
    """
    if n_witnesses < 1 or n_states < 1:
        raise InvalidParameterError(
            f"counts must be >= 1, got {n_witnesses} witnesses, {n_states} states"
        )
    family = WitnessFamily(
        label=f"random-hermitian(d={d})",
        members=tuple(Witness(sample_hermitian(d, seed + j)) for j in range(n_witnesses)),
    )
    probs = np.stack(
        [sample_incoherent(d, seed + n_witnesses + t).probs for t in range(n_states)]
    )
    stack = np.zeros((n_states, d, d), dtype=np.complex128)
    idx = np.arange(d)
    stack[:, idx, idx] = probs
    _, margins, _ = family.evaluate_batch(stack)
    worst = float(np.max(margins + interval_shrink))
    return ContainmentReport(
        dim=d,
        n_witnesses=n_witnesses,
        n_states=n_states,
        seed=seed,
        interval_shrink=interval_shrink,
        worst_violation=worst,
        slack=CONTAINMENT_SLACK,
        passed=worst <= CONTAINMENT_SLACK,
    )


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
    Rejects a negative or non-finite ``coherence_threshold``.
    """
    if not (math.isfinite(coherence_threshold) and coherence_threshold >= 0.0):
        raise InvalidParameterError(
            f"coherence threshold must be finite and nonnegative, got {coherence_threshold}"
        )
    if family.dim != d:
        raise DimensionMismatchError(f"family dim {family.dim} does not match d={d}")
    states = mixed_ensemble(d, n_states, seed) + list(extra_states)
    for s in extra_states:
        if s.dim != d:
            raise DimensionMismatchError(f"extra state dim {s.dim} does not match d={d}")
    # The reshape gives an empty ensemble its (0, d, d) shape.
    stack = np.array([s.matrix for s in states]).reshape(len(states), d, d)
    coherent = np.array([l1_coherence(s) for s in states]) > coherence_threshold
    _, margins, detected = family.evaluate_batch(stack)
    any_detected = detected.any(axis=0)
    detected_margins = margins[detected]
    n_detected = int(np.count_nonzero(any_detected))
    n_false_alarm = int(np.count_nonzero(any_detected & ~coherent))
    missed = np.count_nonzero(coherent & ~any_detected)
    eps = tuple(w.detect_eps for w in family.members)
    return CoverageReport(
        dim=d,
        n_states=len(states),
        n_coherent=int(np.count_nonzero(coherent)),
        n_detected=n_detected,
        n_false_alarm=n_false_alarm,
        min_margin_detected=float(detected_margins.min()) if detected_margins.size else None,
        per_witness_hits=tuple(int(n) for n in detected.sum(axis=1)),
        seed=seed,
        coherence_threshold=coherence_threshold,
        detect_eps=eps[0] if len(set(eps)) == 1 else eps,
        family_label=family.label,
        passed=(missed == 0 and n_false_alarm == 0),
    )


def bloch_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-ball points of the grid_n**3 lattice over [-1, 1]^3.

    Points are ordered by x, then y, then z ascending; the same order is used
    by the CLI point-cloud output.  Rejects ``grid_n < 2``.
    """
    if grid_n < 2:
        raise InvalidParameterError(f"grid_n must be >= 2, got {grid_n}")
    axis = np.linspace(-1.0, 1.0, grid_n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = X * X + Y * Y + Z * Z <= 1.0
    return X[mask], Y[mask], Z[mask]


def qubit_states_stack(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stack of qubit state matrices for coordinate arrays inside the ball."""
    n = x.size
    stack = np.empty((n, 2, 2), dtype=np.complex128)
    stack[:, 0, 0] = 0.5 * (1.0 + z)
    stack[:, 1, 1] = 0.5 * (1.0 - z)
    stack[:, 0, 1] = 0.5 * (x - 1j * y)
    stack[:, 1, 0] = 0.5 * (x + 1j * y)
    return stack


def qubit_geometry_check(K: float, a: float, b: float, c: float, grid_n: int) -> GeometryReport:
    """Compare witness verdicts against |ax + by + cz| > |c| on a ball lattice.

    Verdicts come from the actual matrix evaluation; the predicate is computed
    independently from the coordinates with the same 2 * detect_eps buffer, so
    boundary-plane lattice points agree on NotDetected from both sides.
    """
    x, y, z = bloch_grid(grid_n)
    w = qubit_witness(K, a, b, c)
    _, _, detected = w.evaluate_batch(qubit_states_stack(x, y, z))
    predicate = np.abs(a * x + b * y + c * z) > abs(c) + 2.0 * w.detect_eps
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
