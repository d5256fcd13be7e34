import itertools
import re
import tracemalloc

import numpy as np
import pytest
from test_generators import traced_peak

from cohwit import (
    DETECT_EPS,
    DensityMatrix,
    InvalidParameterError,
    NonFiniteError,
    WitnessFamily,
    ZeroOperatorError,
    finite_family,
    generator_witness,
    l1_coherence_batch,
    qubit_geometry_check,
    qubit_state,
    qubit_witness,
    sample_ensemble,
    sample_ginibre,
    verify_coverage,
)
from cohwit import verify
from cohwit.cli import document_bytes, run
from cohwit.generators import _qubit_matrices
from cohwit.verify import (
    COHERENCE_THRESHOLD, MAX_COVERAGE_BYTES, _ball_lattice, _chunk_states, _qubit_lattice, _tally, bloch_bytes, sweep_bytes
)


def ball_points(grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-ball points of the grid**3 lattice over [-1, 1]^3, ordered by
    x, then y, then z, from the meshgrid expression the lattice was first
    built with: no lattice code of the library."""
    axis = np.linspace(-1.0, 1.0, grid)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = X * X + Y * Y + Z * Z <= 1.0
    return X[mask], Y[mask], Z[mask]


def chunked(monkeypatch, k: int, d: int, n_members: int) -> None:
    """Make a sweep of n_members members at dim d take k states a chunk."""
    monkeypatch.setattr(verify, "_CHUNK_ITEMS", k * (n_members + d * d))


class TestMixedEnsemble:
    def test_half_and_half(self):
        l1s = l1_coherence_batch(sample_ensemble(3, 40, 1))
        assert all(v > 1e-6 for v in l1s[:20])
        assert all(v == 0.0 for v in l1s[20:])

    def test_deterministic(self):
        assert np.array_equal(sample_ensemble(2, 10, 5), sample_ensemble(2, 10, 5))


class TestCoverage:
    def test_full_family_passes(self):
        report = verify_coverage(finite_family(3, 1.0), 400, 777)
        assert type(report.passed) is bool and report.passed
        assert report.n_false_alarm == 0
        assert report.n_detected == report.n_coherent == 200
        assert len(report.per_witness_hits) == 6
        assert report.min_margin_detected is not None and report.min_margin_detected > 1e-9

    def test_blind_member_misses_injected_state(self):
        # A single symmetric-direction witness cannot see a purely imaginary
        # off-diagonal entry.
        family = WitnessFamily(
            label="blind", members=(generator_witness(2, 0.0, [0.0, 1.0, 0.0]),)
        )
        blind_spot = DensityMatrix(np.array([[0.5, 0.3j], [-0.3j, 0.5]]))
        counts, low = _tally(family, COHERENCE_THRESHOLD, blind_spot.matrix[None])
        # coherent, detected, false alarms, misses, then the member's hits
        assert counts.tolist() == [1, 0, 0, 1, 0]
        assert low == float("inf")

    def test_sweep_of_no_state_rejected(self):
        # A sweep of no state would PASS vacuously.
        with pytest.raises(InvalidParameterError, match="at least one state"):
            verify_coverage(finite_family(2), 0, 0)
        with pytest.raises(InvalidParameterError, match="at least one state"):
            verify_coverage(finite_family(3), 0, 1)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_coverage(finite_family(2), -4, 0)
        with pytest.raises(InvalidParameterError):
            sample_ensemble(2, -4, 0)

    def test_working_set_estimate(self):
        # A chunk of 2**21 // (members * widest + d * d) states, at least one,
        # at 24 B per state matrix entry and, per (member, state) pair, the
        # larger of 41 B and 16 + 16 * widest; member matrices at 16 B per
        # entry and slot tables at 128 B per member per slot of its d rows;
        # and 128 B per entry of one sampling block (4096 entries, or one
        # state).  No state count enters.
        k = 2**21 // (12 + 16)
        assert sweep_bytes(4, 12, 1) == (24 * 16 + 41 * 12) * k + 128 * 4096 + (16 * 16 + 128 * 4) * 12
        k = 2**21 // (2 + 8281)
        assert sweep_bytes(91, 2, 1) == (24 * 8281 + 41 * 2) * k + 128 * 8281 + (16 * 8281 + 128 * 91) * 2
        k = 2**21 // (12 * 2 + 16)
        assert sweep_bytes(4, 12, 2) == (24 * 16 + 48 * 12) * k + 128 * 4096 + (16 * 16 + 128 * 8) * 12
        k = 2**21 // (12 * 4 + 16)
        assert sweep_bytes(4, 12, 4) == (24 * 16 + 80 * 12) * k + 128 * 4096 + (16 * 16 + 128 * 16) * 12
        assert sweep_bytes(4, 12, 4) < MAX_COVERAGE_BYTES
        # A document of all d(d - 1) members: generator members at K = 0
        # (widest 1) and K != 0 (widest 2), and dense ones.  Then two members.
        for widest, last in ((1, 87), (2, 85), (None, 52)):
            low, high = widest or last, widest or last + 1
            assert sweep_bytes(last, last * (last - 1), low) <= MAX_COVERAGE_BYTES
            assert MAX_COVERAGE_BYTES < sweep_bytes(last + 1, (last + 1) * last, high)
        for widest, last in ((1, 2414), (2, 2414), (None, 1562)):
            low, high = widest or last, widest or last + 1
            assert sweep_bytes(last, 2, low) <= MAX_COVERAGE_BYTES < sweep_bytes(last + 1, 2, high)
        assert sweep_bytes(10**5, 10**5 * (10**5 - 1), 1) > MAX_COVERAGE_BYTES

    def test_dense_member_table_is_charged_for_its_slots(self):
        # A dense table gathers d slots per (member, state) pair in a row and
        # builds d slots per row of each member, so a chunk counts each pair
        # d times and its slot tables outweigh its member matrices.
        d, m = 30, 870
        assert sweep_bytes(d, m, d) > (16 + 128) * d * d * m
        assert _chunk_states(d, m, d) * (m * d + d * d) <= 2**21 < (_chunk_states(d, m, d) + 1) * (m * d + d * d)

    def test_builtin_family_estimate_holds_no_member_matrix(self):
        # A chunk at 24 B per state entry and 41 B per (member, state) pair
        # and 128 B per entry of one sampling block (4096 entries, or one state).
        assert sweep_bytes(4, 12, 0) == (24 * 16 + 41 * 12) * (2**21 // 28) + 128 * 4096
        assert sweep_bytes(90, 1, 0) == (24 * 8100 + 41) * (2**21 // 8101) + 128 * 8100
        # At d = 1500 a chunk is one state.
        assert sweep_bytes(1500, 1500 * 1499, 0) == 24 * 1500**2 + 41 * 1500 * 1499 + 128 * 1500**2
        assert sweep_bytes(91, 91 * 90, 0) < MAX_COVERAGE_BYTES < sweep_bytes(91, 91 * 90, 1)
        assert sweep_bytes(2358, 2358 * 2357, 0) <= MAX_COVERAGE_BYTES < sweep_bytes(2359, 2359 * 2358, 0)
        assert sweep_bytes(10**5, 10**5 * (10**5 - 1), 0) > MAX_COVERAGE_BYTES

    @pytest.mark.parametrize("d", [12, 40, 90])
    def test_estimates_cover_the_traced_peak_of_a_sweep(self, d):
        # Each family is built inside the trace: the built-in one as the CLI
        # builds it, and one that holds member matrices from its member
        # stack, as a family document is read into one.  At d = 90 it holds
        # the first 180 members, since all 8010 are over the cap.
        n, members = 40, 180 if d == 90 else d * (d - 1)
        tracemalloc.start()
        try:
            verify_coverage(finite_family(d), n, 1)
            builtin = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert builtin <= sweep_bytes(d, d * (d - 1), 0)
        matrices = [generator_witness(d, 0.0, eta).matrix for eta in np.eye(members, d * d - 1, d - 1)]
        tracemalloc.start()
        try:
            family = WitnessFamily._from_stack("stacked", np.stack(matrices), [DETECT_EPS] * members)
            verify_coverage(family, n, 1)
            stacked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacked <= sweep_bytes(d, members, family._widest)

    def test_builtin_estimate_covers_the_traced_peak_where_pairs_dominate(self, monkeypatch):
        # At d = 12 and 4000 states a chunk, the 41 B per (member, state) pair
        # are about 60% of the estimate, so the kernel's own buffers are what
        # it bounds; the sweep takes a full chunk and a one-state one.
        d, m, k = 12, 12 * 11, 4000
        chunked(monkeypatch, k, d, m)
        tracemalloc.start()
        try:
            verify_coverage(finite_family(d), k + 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 41 * m * k > 0.6 * sweep_bytes(d, m, 0)
        assert peak <= sweep_bytes(d, m, 0)

    def test_witness_built_family_holds_one_member_table(self):
        # A family built from Witness objects keeps their stacked matrices, not
        # the witnesses, so sweep_bytes bounds its sweep like any other.
        d, n = 20, 40
        members = d * (d - 1)
        tracemalloc.start()
        try:
            witnesses = [generator_witness(d, 0.0, eta) for eta in np.eye(members, d * d - 1, d - 1)]
            family = WitnessFamily("witnesses", witnesses)
            del witnesses
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            verify_coverage(family, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * family._stack.nbytes
        assert peak <= sweep_bytes(d, members, family._widest)

    def test_traced_peak_does_not_grow_with_the_states(self, monkeypatch):
        # Chunks of 50 states: a sweep of 20 chunks holds what one of 2 does.
        d = 8
        family = finite_family(d)
        chunked(monkeypatch, 50, d, len(family))
        small, large = (traced_peak(lambda: verify_coverage(family, n, 1)) for n in (100, 1000))
        assert large <= 1.02 * small

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("K", [0.0, 37.0])
    def test_report_does_not_depend_on_the_chunk(self, monkeypatch, d, K):
        # 30 states: chunks of 3 and 7 states straddle the boundary between
        # the full-rank half and the diagonal half.
        family = finite_family(d, K)
        whole = verify_coverage(family, 30, 5)
        for k in (1, 3, 7):
            chunked(monkeypatch, k, d, len(family))
            assert verify_coverage(family, 30, 5) == whole

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_extra_states_across_chunk_boundaries(self, k):
        # Chosen states, tallied whole and in chunks of k, which split them
        # at other boundaries: the counts sum to the whole's, and the least
        # margin is the least of the chunks'.  A blind one-member family at
        # d = 2 misses its blind spot; the built-in family at d = 4 detects
        # twice the I/4 state with rho_01 = 2.5e-8 though its l1 coherence is
        # under the threshold: two false alarms.
        blind = WitnessFamily("blind", [generator_witness(2, 0.0, [0.0, 1.0, 0.0])])
        spots = [DensityMatrix(np.array([[0.5, 0.3j], [-0.3j, 0.5]])), sample_ginibre(2, 4)] * 2 + [
            DensityMatrix(np.eye(2) / 2)
        ]
        mixed = np.eye(4, dtype=complex) / 4
        mixed[0, 1] = mixed[1, 0] = 2.5e-8
        cases = [(blind, spots), (finite_family(4), [sample_ginibre(4, 9), DensityMatrix(mixed)] * 2)]
        for family, states in cases:
            stack = np.array([s.matrix for s in states])
            counts, low = _tally(family, COHERENCE_THRESHOLD, stack)
            parts = [_tally(family, COHERENCE_THRESHOLD, stack[i : i + k]) for i in range(0, len(stack), k)]
            assert np.array_equal(sum(c for c, _ in parts), counts)
            assert min(least for _, least in parts) == low
            assert counts[2] + counts[3] > 0  # a false alarm or a miss: FAIL
        assert counts[:4].tolist() == [2, 4, 2, 0]

    def test_lattice_and_document_estimates(self):
        # 128 B per lattice point plus 2 MiB; 144 B per member entry plus 64 B per entry.
        assert bloch_bytes(41) == 128 * 41**3 + 2**21 < MAX_COVERAGE_BYTES
        assert bloch_bytes(203) <= MAX_COVERAGE_BYTES < bloch_bytes(204)
        assert bloch_bytes(2000) > MAX_COVERAGE_BYTES  # 64 GB for each coordinate array alone
        assert document_bytes(12, 132) == (144 * 132 + 64) * 144 < MAX_COVERAGE_BYTES
        assert document_bytes(10**5, 1) > MAX_COVERAGE_BYTES  # 160 GB for the zero matrix alone
        assert document_bytes(2000, 2000 * 1999) > MAX_COVERAGE_BYTES
        assert document_bytes(52, 52 * 51) <= MAX_COVERAGE_BYTES < document_bytes(53, 53 * 52)
        assert document_bytes(-2000, 2000 * 2001) == 0  # left to the dimension check

    @pytest.mark.parametrize("grid", [21, 41, 91])
    @pytest.mark.parametrize(
        "coeffs",
        [
            ("0", "1", "1", "1"),  # few distinct values
            # Every value distinct and 24 characters long: the most the CSV
            # writer holds per point.
            ("0", "-1.2345678901234567e-200", "-9.876543210987654e-201", "3.3e-201"),
        ],
        ids=["few-values", "long-values"],
    )
    def test_lattice_estimate_covers_the_traced_peak_of_the_command(self, tmp_path, grid, coeffs):
        argv = ["bloch", *(f"--{k}={v}" for k, v in zip("Kabc", coeffs)), f"--grid={grid}"]
        tracemalloc.start()
        try:
            assert run([*argv, "--out", str(tmp_path / "cloud.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bloch_bytes(grid)

    def test_oversized_lattice_rejected_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice was allocated before the size check")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(InvalidParameterError, match="bytes"):
            _ball_lattice(2000)
        with pytest.raises(InvalidParameterError, match="bytes"):
            qubit_geometry_check(0.0, 1.0, 0.0, 0.0, 204)

    def test_monotone_in_members(self):
        full = finite_family(2, 0.0)
        partial = WitnessFamily(label="partial", members=full.members[:1])
        small = verify_coverage(partial, 200, 313)
        big = verify_coverage(full, 200, 313)
        assert small.n_detected <= big.n_detected

    def test_deterministic_report(self):
        fam = finite_family(2, 1.0)
        assert verify_coverage(fam, 100, 55) == verify_coverage(fam, 100, 55)


@pytest.mark.parametrize("grid", [*range(2, 65), 91])
def test_lattice_is_the_meshgrid_lattice_bit_for_bit(grid):
    axis, ijk = _ball_lattice(grid)
    for t, want in zip(ijk, ball_points(grid)):
        assert np.array_equal(axis[t].view(np.int64), want.view(np.int64))


# Signed zeros, the least subnormal, tiny, unit and huge magnitudes.
LATTICE_COEFFS = (0.0, -0.0, 5e-324, 1e-300, 1.0, -1.0, 0.5, 1e300)


@pytest.mark.parametrize("grid", [2, 3, 4, 41])
def test_lattice_values_are_the_kernel_values_bit_for_bit(grid):
    # Every (K, a, b, c) over LATTICE_COEFFS but the zero operators at grids
    # 3 and 4, every 37th of them at grid 2 (no point) and 41, then one case
    # near overflow: the values and verdicts of the lattice's per-axis tables
    # are the member-table kernel's on the points' matrices.  Grids 3 and 4 tell
    # the tables' grouping from ((T00 + T01) + T10) + T11 in over a thousand
    # cases.
    points = _qubit_matrices(1.0, *ball_points(grid))
    cases = [p for p in itertools.product(LATTICE_COEFFS, repeat=4) if any(p[1:])]
    for K, a, b, c in [*cases[:: 1 if grid in (3, 4) else 37], (1.5e308, 1e308, 1e308, 0.0)]:
        values, _, detected = qubit_witness(K, a, b, c).evaluate_batch(points)
        _, (_, _, got, hits) = _qubit_lattice(K, a, b, c, grid)
        assert np.array_equal(got.view(np.int64), values.view(np.int64)), (K, a, b, c)
        assert np.array_equal(hits, detected), (K, a, b, c)
    if grid == 41:
        # A sum past the float range at point 22222: both refuse it first.
        args = (1.7e308, 1.7e308, 1.7e308, 0.0)
        with pytest.raises(NonFiniteError, match="state 22222") as kernel:
            qubit_witness(*args).evaluate_batch(points)
        with pytest.raises(NonFiniteError, match=re.escape(str(kernel.value))):
            _qubit_lattice(*args, grid)


class TestQubitGeometry:
    def test_diagonal_direction_witness(self):
        report = qubit_geometry_check(0.0, 1.0, 1.0, 1.0, 50)
        assert report.passed
        assert report.n_mismatch == 0
        assert report.n_detected > 0
        assert report.effective

    def test_pure_z_witness_detects_nothing(self):
        report = qubit_geometry_check(0.0, 0.0, 0.0, 1.0, 50)
        assert report.passed
        assert report.n_detected == 0
        assert not report.effective

    def test_in_plane_witness_with_offset(self):
        report = qubit_geometry_check(5.0, 1.0, -1.0, 0.0, 50)
        assert report.passed
        assert report.n_detected > 0

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            qubit_geometry_check(1.0, 0.0, 0.0, 0.0, 10)

    def test_lattice_with_no_point_in_the_ball_rejected(self):
        # Every point of the 2**3 lattice is a corner of the cube, outside the
        # ball; a check of no point would PASS vacuously.
        assert _ball_lattice(2)[1][0].size == 0
        with pytest.raises(InvalidParameterError, match="no point in the ball"):
            qubit_geometry_check(0.0, 1.0, 1.0, 1.0, 2)
        assert qubit_geometry_check(0.0, 1.0, 1.0, 1.0, 3).n_points == 7

    def test_overflowing_plane_sum_keeps_the_verdicts(self):
        # The bound |c| + 2 (eps + slack) and the sum a x + b y + c z both
        # overflow; the witness detects 80 points, all where the sum does, and
        # the predicate, compared at a quarter of the scale there, agrees.
        big = np.finfo(np.float64).max
        report = qubit_geometry_check(0.0, big, big, -big, 11)
        assert report.passed
        assert report.n_mismatch == 0 and report.n_detected == 80

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            qubit_geometry_check(0.0, 1.0, 0.0, 0.0, 1)

    def test_point_count_matches_ball_lattice(self):
        report = qubit_geometry_check(0.0, 1.0, 0.0, 0.0, 11)
        axis = np.linspace(-1, 1, 11)
        X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
        assert report.n_points == int(np.count_nonzero(X**2 + Y**2 + Z**2 <= 1.0))

    def test_batch_verdicts_agree_with_scalar_evaluate(self):
        K, a, b, c = 0.7, 0.9, -1.1, 0.4
        w = qubit_witness(K, a, b, c)
        axis = np.linspace(-1, 1, 7)
        for x in axis:
            for y in axis:
                for z in axis:
                    if x * x + y * y + z * z > 1.0:
                        continue
                    detected = w.evaluate(qubit_state(x, y, z)).detected
                    assert detected == (abs(a * x + b * y + c * z) > abs(c) + 2 * w.detect_eps)
