import numpy as np
import pytest

from cohwit import (
    DensityMatrix,
    DimensionMismatchError,
    WitnessFamily,
    ZeroOperatorError,
    finite_family,
    generator_witness,
    l1_coherence,
    mixed_ensemble,
    qubit_geometry_check,
    qubit_state,
    qubit_witness,
    sample_ginibre,
    verify_coverage,
    verify_incoherent_containment,
)


class TestMixedEnsemble:
    def test_half_and_half(self):
        states = mixed_ensemble(3, 40, 1)
        l1s = [l1_coherence(s) for s in states]
        assert all(v > 1e-6 for v in l1s[:20])
        assert all(v == 0.0 for v in l1s[20:])

    def test_deterministic(self):
        a = mixed_ensemble(2, 10, 5)
        b = mixed_ensemble(2, 10, 5)
        for s, t in zip(a, b):
            assert np.array_equal(s.matrix, t.matrix)


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
