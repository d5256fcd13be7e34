import tracemalloc

import numpy as np
import pytest

from cohwit import (
    DETECT_EPS,
    DensityMatrix,
    DimensionMismatchError,
    InvalidParameterError,
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
    verify_incoherent_containment,
    witness,
)
from cohwit import linalg, verify
from cohwit.cli import document_bytes, run
from cohwit.verify import (
    MAX_COVERAGE_BYTES,
    bloch_bytes,
    bloch_grid,
    coverage_bytes,
    generator_coverage_bytes,
)


class TestMixedEnsemble:
    def test_half_and_half(self):
        l1s = l1_coherence_batch(sample_ensemble(3, 40, 1))
        assert all(v > 1e-6 for v in l1s[:20])
        assert all(v == 0.0 for v in l1s[20:])

    def test_deterministic(self):
        assert np.array_equal(sample_ensemble(2, 10, 5), sample_ensemble(2, 10, 5))


class TestIncoherentContainment:
    def test_passes_on_valid_sweep(self):
        report = verify_incoherent_containment(3, 100, 1000, 2024)
        assert report.passed
        assert report.worst_violation <= 1e-12

    def test_minimal_sweep(self):
        assert verify_incoherent_containment(2, 1, 1, 0).passed

    def test_injected_fault_is_caught(self):
        report = verify_incoherent_containment(3, 20, 200, 2024, interval_shrink=0.1)
        assert not report.passed
        assert report.worst_violation > 0.0

    def test_deterministic_report(self):
        assert verify_incoherent_containment(2, 5, 50, 9) == verify_incoherent_containment(
            2, 5, 50, 9
        )

    def test_builds_no_witness(self, monkeypatch):
        # The family is the sampled Hermitian stack itself, one row per member.
        expected = verify_incoherent_containment(4, 20, 200, 11)

        def refuse(*args, **kwargs):
            raise AssertionError("a Witness was built")

        monkeypatch.setattr(witness.Witness, "__init__", refuse)
        assert verify_incoherent_containment(4, 20, 200, 11) == expected

    def test_oversized_sweep_rejected_before_sampling(self, monkeypatch):
        # A lowered cap refuses a small sweep, so no refused sweep is large.
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep sampled before its size check")

        need = coverage_bytes(4, 200, 20)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "MAX_COVERAGE_BYTES", need - 1)
            patch.setattr(verify, "sample_hermitian_batch", refuse)
            patch.setattr(verify, "sample_incoherent_batch", refuse)
            with pytest.raises(InvalidParameterError, match=f"20 members at d=4 needs about {need} bytes"):
                verify_incoherent_containment(4, 20, 200, 11)
        monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", need)
        assert verify_incoherent_containment(4, 20, 200, 11).passed

    @pytest.mark.parametrize(
        "d,n_witnesses,n_states", [(4, 50, 2000), (12, 300, 200), (30, 40, 500), (60, 10, 300), (2, 2000, 2000)]
    )
    def test_estimate_covers_the_traced_peak(self, d, n_witnesses, n_states):
        tracemalloc.start()
        try:
            verify_incoherent_containment(d, n_witnesses, n_states, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= coverage_bytes(d, n_states, n_witnesses)


class TestCoverage:
    def test_full_family_passes(self):
        report = verify_coverage(finite_family(3, 1.0), 3, 400, 777)
        assert report.passed
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
        report = verify_coverage(family, 2, 50, 101, extra_states=[blind_spot])
        assert not report.passed
        assert report.n_states == 51
        assert report.n_detected < report.n_coherent

    def test_vacuous_pass_on_empty_sample(self):
        report = verify_coverage(finite_family(2), 2, 0, 0)
        assert report.passed
        assert report.n_states == report.n_coherent == report.n_detected == 0
        assert report.min_margin_detected is None
        assert report.per_witness_hits == (0, 0)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_coverage(finite_family(2), 2, -4, 0)
        with pytest.raises(InvalidParameterError):
            sample_ensemble(2, -4, 0)

    def test_working_set_estimate(self):
        # Stack and member matrices at 16 B per entry, the oracle's float copy
        # of the stack at 8 B per entry, 41 B per (member, state) pair and
        # 128 B per entry of one sampling block (4096 entries, or one state).
        assert coverage_bytes(4, 1000, 12) == 16 * 16 * 1012 + 8 * 16 * 1000 + 41 * 12 * 1000 + 128 * 4096
        assert coverage_bytes(91, 40, 2) == 16 * 8281 * 42 + 8 * 8281 * 40 + 41 * 2 * 40 + 128 * 8281
        assert coverage_bytes(4, 1000, 12) < MAX_COVERAGE_BYTES
        assert coverage_bytes(4, 10**9, 12) > MAX_COVERAGE_BYTES
        assert coverage_bytes(10**5, 1, 10**5 * (10**5 - 1)) > MAX_COVERAGE_BYTES

    def test_builtin_family_estimate_holds_no_member_matrix(self):
        # State stack at 16 B per entry, 41 B per (member, state) pair and
        # 128 B per entry of one sampling block (4096 entries, or one state).
        assert generator_coverage_bytes(4, 1000, 12) == 16 * 16 * 1000 + 41 * 12 * 1000 + 128 * 4096
        assert generator_coverage_bytes(90, 40, 1) == 16 * 8100 * 40 + 41 * 40 + 128 * 8100
        assert generator_coverage_bytes(91, 40, 91 * 90) < MAX_COVERAGE_BYTES < coverage_bytes(91, 40, 91 * 90)
        assert generator_coverage_bytes(700, 40, 700 * 699) > MAX_COVERAGE_BYTES
        assert generator_coverage_bytes(10**5, 1, 10**5 * (10**5 - 1)) > MAX_COVERAGE_BYTES

    @pytest.mark.parametrize("d", [12, 40, 90])
    def test_estimates_cover_the_traced_peak_of_a_sweep(self, d):
        # Each family is built inside the trace: the built-in one as the CLI
        # builds it after its size check, and one that holds member matrices
        # from its member stack, as a family document is read into one.  At
        # d = 90 it holds the first 180 members, since all 8010 are over the cap.
        n, members = 40, 180 if d == 90 else d * (d - 1)
        tracemalloc.start()
        try:
            verify_coverage(finite_family(d), d, n, 1)
            builtin = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert builtin <= generator_coverage_bytes(d, n, d * (d - 1))
        matrices = [generator_witness(d, 0.0, eta).matrix for eta in np.eye(members, d * d - 1, d - 1)]
        tracemalloc.start()
        try:
            family = WitnessFamily._from_stack("stacked", np.stack(matrices), [DETECT_EPS] * members)
            verify_coverage(family, d, n, 1)
            stacked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacked <= coverage_bytes(d, n, members)

    def test_builtin_estimate_covers_the_traced_peak_where_pairs_dominate(self):
        # At d = 12 and 4000 states the 41 B per (member, state) pair are about
        # 70% of the estimate, so the kernel's own buffers are what it bounds.
        d, n = 12, 4000
        tracemalloc.start()
        try:
            verify_coverage(finite_family(d), d, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 41 * d * (d - 1) * n > 0.6 * generator_coverage_bytes(d, n, d * (d - 1))
        assert peak <= generator_coverage_bytes(d, n, d * (d - 1))

    def test_witness_built_family_holds_one_member_table(self):
        # A family built from Witness objects keeps their stacked matrices, not
        # the witnesses, so coverage_bytes bounds its sweep like any other.
        d, n = 20, 40
        members = d * (d - 1)
        tracemalloc.start()
        try:
            witnesses = [generator_witness(d, 0.0, eta) for eta in np.eye(members, d * d - 1, d - 1)]
            family = WitnessFamily("witnesses", witnesses)
            del witnesses
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            verify_coverage(family, d, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * family._stack.nbytes
        assert peak <= coverage_bytes(d, n, members)

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
        monkeypatch.setattr(np, "meshgrid", refuse)
        with pytest.raises(InvalidParameterError, match="bytes"):
            bloch_grid(2000)
        with pytest.raises(InvalidParameterError, match="bytes"):
            qubit_geometry_check(0.0, 1.0, 0.0, 0.0, 204)

    def test_monotone_in_members(self):
        full = finite_family(2, 0.0)
        partial = WitnessFamily(label="partial", members=full.members[:1])
        small = verify_coverage(partial, 2, 200, 313)
        big = verify_coverage(full, 2, 200, 313)
        assert small.n_detected <= big.n_detected

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_coverage(finite_family(2), 3, 10, 0)

    def test_extra_state_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_coverage(finite_family(2), 2, 10, 0, extra_states=[sample_ginibre(3, 1)])

    def test_deterministic_report(self):
        fam = finite_family(2, 1.0)
        assert verify_coverage(fam, 2, 100, 55) == verify_coverage(fam, 2, 100, 55)


class TestQubitGeometry:
    def test_diagonal_direction_witness(self):
        report = qubit_geometry_check(0.0, 1.0, 1.0, 1.0, 50)
        assert report.passed
        assert report.n_mismatch == 0
        assert report.any_detected
        assert report.effective

    def test_pure_z_witness_detects_nothing(self):
        report = qubit_geometry_check(0.0, 0.0, 0.0, 1.0, 50)
        assert report.passed
        assert report.n_detected == 0
        assert not report.effective

    def test_in_plane_witness_with_offset(self):
        report = qubit_geometry_check(5.0, 1.0, -1.0, 0.0, 50)
        assert report.passed
        assert report.any_detected

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            qubit_geometry_check(1.0, 0.0, 0.0, 0.0, 10)

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
