import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from splitmix64 import SplitMix64
from test_generators import traced_peak

from cohwit import (
    DegenerateFamilyError,
    DensityMatrix,
    DimensionMismatchError,
    InvalidIntervalError,
    InvalidParameterError,
    LengthMismatchError,
    NonFiniteError,
    NotCoherentError,
    NotHermitianError,
    NumericallyMarginalWarning,
    Verdict,
    Witness,
    WitnessFamily,
    ZeroCoefficientError,
    ZeroOperatorError,
    bloch_vector,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator_witness,
    incoherent_with_value,
    is_effective_qubit,
    l1_coherence,
    qubit_pair_family,
    qubit_state,
    qubit_witness,
    sample_ginibre,
    sample_hermitian,
    sample_incoherent,
    tailored_witness,
    witness_for_state,
)
from cohwit import linalg
from cohwit.verify import sweep_bytes
from cohwit.witness import _GeneratorFamily, finite_family_bytes

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def refuse_member_stack(monkeypatch):
    """Fail the test where the built-in family builds its member stack."""
    monkeypatch.setattr(_GeneratorFamily, "_stack", property(lambda self: pytest.fail("member stack built")))


class TestWitnessConstruction:
    def test_dim_of_every_member_table(self, monkeypatch):
        assert Witness(np.eye(3)).dim == 3
        members = [canonical_witness(4, 0.0, 1.0), generator_witness(4, 1.0, np.ones(15))]
        assert WitnessFamily("stacked", members).dim == 4
        refuse_member_stack(monkeypatch)
        assert finite_family(5).dim == 5

    def test_zero_diagonal_gives_point_interval(self):
        assert Witness(SX).interval == (0.0, 0.0)

    def test_interval_from_diagonal(self):
        assert Witness(np.array([[1, 1.5], [1.5, 0]], dtype=complex)).interval == (0.0, 1.0)

    def test_negative_diagonals_allowed(self):
        assert Witness(np.diag([3.0, -2.0, 5.0]).astype(complex)).interval == (-2.0, 5.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            Witness(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            Witness(SX, detect_eps=-1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError):
            Witness(SX, detect_eps=eps)


class TestEvaluate:
    def test_plus_state_against_half_sigma_x(self):
        report = Witness(SX / 2).evaluate(DensityMatrix(np.full((2, 2), 0.5)))
        assert report.value == pytest.approx(0.5)
        assert report.interval == (0.0, 0.0)
        assert report.margin == pytest.approx(0.5)
        assert report.verdict is Verdict.DETECTED

    def test_identity_witness_value_is_the_trace(self):
        rho = sample_ginibre(3, 11)
        assert Witness(np.eye(3)).evaluate(rho).value == pytest.approx(1, abs=1e-12)

    def test_incoherent_states_never_detected(self):
        w = Witness(sample_hermitian(3, 77))
        for t in range(50):
            delta = sample_incoherent(3, 300 + t)
            report = w.evaluate(delta)
            assert report.verdict is Verdict.NOT_DETECTED

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Witness(SX).evaluate(canonical_coherent(3))

    def test_target_value_state_sits_inside_interval(self):
        w = canonical_witness(3, -1.0, 2.0)
        for target in (-1.0, 0.3, 2.0):
            delta = incoherent_with_value(w, target)
            report = w.evaluate(delta)
            assert report.value == pytest.approx(target, abs=1e-12)
            assert report.verdict is Verdict.NOT_DETECTED

    def test_batch_agrees_with_scalar(self):
        w = Witness(sample_hermitian(3, 5), detect_eps=1e-9)
        states = [sample_ginibre(3, 800 + t) for t in range(20)]
        values, margins, detected = w.evaluate_batch(np.stack([s.matrix for s in states]))
        for i, s in enumerate(states):
            report = w.evaluate(s)
            assert values[i] == report.value
            assert margins[i] == report.margin
            assert detected[i] == report.detected


class TestCanonicalWitness:
    def test_d2_matrix(self):
        assert np.array_equal(
            canonical_witness(2, 0.0, 1.0).matrix, np.array([[1, 1.5], [1.5, 0]], dtype=complex)
        )

    def test_d3_matrix_and_value(self):
        w = canonical_witness(3, 0.0, 2.0)
        want = np.array([[2, 2.5, 0], [2.5, 0, 0], [0, 0, 2]], dtype=complex)
        assert np.array_equal(w.matrix, want)
        assert w.evaluate(canonical_coherent(3)).value == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 7, 16])
    @pytest.mark.parametrize("lo,hi", [(-3.0, -3.0), (-1.5, 2.0), (0.0, 0.0), (0.0, 3.0)])
    def test_value_is_always_hi_plus_one(self, d, lo, hi):
        report = canonical_witness(d, lo, hi).evaluate(canonical_coherent(d))
        assert report.value == pytest.approx(hi + 1.0, abs=1e-12)
        assert report.verdict is Verdict.DETECTED

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            canonical_witness(2, 1.0, 0.0)


class TestContainment:
    def test_random_witnesses_contain_random_incoherent_states(self):
        for j in range(50):
            d = 2 + j % 4
            w = Witness(sample_hermitian(d, 1000 + j))
            lo, hi = w.interval
            for t in range(20):
                delta = sample_incoherent(d, 2000 + 100 * j + t)
                value = w.evaluate(delta).value
                assert lo - 1e-12 <= value <= hi + 1e-12

    def test_every_constructor_contains_incoherent_states(self):
        # The interval guarantee is structural, so it must hold for each
        # constructor family alike.
        d = 3
        witnesses = [
            canonical_witness(d, -1.0, 2.0),
            generator_witness(d, 1.5, np.linspace(-1, 1, 8)),
            tailored_witness(sample_ginibre(d, 1), -0.5, 0.5),
            witness_for_state(sample_ginibre(d, 2), K=2.0),
            *finite_family(d, 0.7).members,
        ]
        witnesses += list(qubit_pair_family(0.3, 1.0, 0.0, 0.0, 1.0).members)
        for w in witnesses:
            lo, hi = w.interval
            for t in range(30):
                delta = sample_incoherent(w.dim, 5000 + t)
                value = w.evaluate(delta).value
                assert lo - 1e-12 <= value <= hi + 1e-12
                assert not w.evaluate(delta).detected


class TestTailoredWitness:
    def test_plus_state_interval_and_value(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        w = tailored_witness(rho, 0.0, 1.0)
        assert w.interval == (0.0, 1.0)
        report = w.evaluate(rho)
        assert report.value == pytest.approx(2.0, abs=1e-9)
        assert report.verdict is Verdict.DETECTED
        # the base witness already evaluates to hi + 1 here, so it comes back
        # unscaled
        assert np.array_equal(w.matrix, canonical_witness(2, 0.0, 1.0).matrix)

    def test_point_interval_real_branch(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        w = tailored_witness(rho, 0.0, 0.0)
        report = w.evaluate(rho)
        assert report.value == pytest.approx(0.5)  # Re(rho_01)
        assert report.verdict is Verdict.DETECTED

    def test_point_interval_imaginary_branch(self):
        rho = DensityMatrix(np.array([[0.5, 0.3j], [-0.3j, 0.5]]))
        w = tailored_witness(rho, 0.0, 0.0)
        report = w.evaluate(rho)
        assert report.value == pytest.approx(0.3)  # Im(rho_01)
        assert report.verdict is Verdict.DETECTED

    def test_point_interval_shifts_by_lo(self):
        rho = DensityMatrix(np.array([[0.5, 0.3j], [-0.3j, 0.5]]))
        w = tailored_witness(rho, 2.0, 2.0)
        assert w.interval == (2.0, 2.0)
        assert w.evaluate(rho).value == pytest.approx(2.3)

    def test_incoherent_state_rejected(self):
        with pytest.raises(NotCoherentError):
            tailored_witness(DensityMatrix(np.eye(2, dtype=complex) / 2), 0.0, 1.0)

    def test_reversed_interval_rejected(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        with pytest.raises(InvalidIntervalError):
            tailored_witness(rho, 1.0, 0.0)

    def test_exactness_over_random_states(self):
        rng = SplitMix64(314159)
        for t in range(200):
            d = 2 + t % 4
            rho = sample_ginibre(d, 70_000 + t)
            lo = -10.0 + 20.0 * rng.uniform()
            hi = lo + 10.0 * rng.uniform() + 1e-6
            w = tailored_witness(rho, lo, hi)
            assert w.interval == (lo, hi)
            report = w.evaluate(rho)
            assert report.value == pytest.approx(hi + 1.0, abs=1e-9)
            assert report.verdict is Verdict.DETECTED

    def test_tiny_anchor_entry_warns(self):
        # gap / component = (4/3) / 1.1e-9 > 1e9: the margin of 1 rests on
        # digits of the entry below COHERENT_ENTRY_TOL.
        M = np.eye(3, dtype=complex) / 3
        M[0, 1] = M[1, 0] = 1.1e-9
        rho = DensityMatrix(M)
        with pytest.warns(NumericallyMarginalWarning, match="numerically marginal") as caught:
            w = tailored_witness(rho, 0.0, 1.0)
        assert len(caught) == 1 and caught[0].filename == __file__
        report = w.evaluate(rho)
        assert report.margin == 1.0 and report.detected
        assert np.abs(w.matrix).max() > 6e8

    def test_canonical_scale_anchors_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericallyMarginalWarning)
            for d in range(2, 6):
                for lo, hi in [(0.0, 1.0), (-0.5, 0.5), (-10.0, 10.0), (3.0, 3.0)]:
                    tailored_witness(canonical_coherent(d), lo, hi)
                    tailored_witness(sample_ginibre(d, d), lo, hi)


class TestQubitWitness:
    def test_example_bloch_point(self):
        w = qubit_witness(0.0, 1.0, 1.0, 1.0)
        assert w.interval == (-0.5, 0.5)
        report = w.evaluate(qubit_state(0.6, 0.6, 0.3))
        # (K + ax + by + cz)/2 = 1.5/2
        assert report.value == pytest.approx(0.75, abs=1e-12)
        assert report.verdict is Verdict.DETECTED

    def test_boundary_point_not_detected(self):
        report = qubit_witness(0.0, 1.0, 1.0, 1.0).evaluate(qubit_state(1.0, 0.0, 0.0))
        assert report.value == pytest.approx(0.5)
        assert report.verdict is Verdict.NOT_DETECTED

    def test_pure_z_witness_never_detects(self):
        w = qubit_witness(3.0, 0.0, 0.0, 1.0)
        rng = SplitMix64(5)
        for _ in range(200):
            v = np.array([rng.uniform() * 2 - 1 for _ in range(3)])
            if np.linalg.norm(v) > 1:
                continue
            assert not w.evaluate(qubit_state(*v)).detected

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            qubit_witness(1.0, 0.0, 0.0, 0.0)

    def test_matrix_is_the_pauli_literal_bit_for_bit(self):
        # The 2 x 2 literal over every (K, a, b, c) of 16 edge values, signs
        # of zeros included; where the literal has a non-finite entry the
        # witness is refused.
        edges = [0.0, -0.0, 5e-324, -5e-324, 1 / 3, -1 / 3, 0.5, -0.5, 1.0, -1.0, 1e308, -1e308]
        edges += [2.0, 0.3, -0.2, np.finfo(np.float64).max]
        for K, a, b, c in itertools.product(edges, repeat=4):
            if a == 0.0 and b == 0.0 and c == 0.0:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                M = 0.5 * np.array([[K + c, a - 1j * b], [a + 1j * b, K - c]], dtype=np.complex128)
            if np.isfinite(M).all():
                assert qubit_witness(K, a, b, c).matrix.tobytes() == M.tobytes(), (K, a, b, c)
            else:
                with pytest.raises(NonFiniteError):
                    qubit_witness(K, a, b, c)

    def test_verdict_matches_plane_predicate(self):
        rng = SplitMix64(2718)
        grid = np.linspace(-1.0, 1.0, 9)
        for _ in range(20):
            K = rng.uniform() * 10 - 5
            a, b = rng.normal_pair()
            c, _ = rng.normal_pair()
            w = qubit_witness(K, a, b, c)
            for x in grid:
                for y in grid:
                    for z in grid:
                        if x * x + y * y + z * z > 1.0:
                            continue
                        detected = w.evaluate(qubit_state(x, y, z)).detected
                        expected = abs(a * x + b * y + c * z) > abs(c) + 2 * w.detect_eps
                        assert detected == expected


class TestEffectiveQubit:
    def test_in_plane_direction_is_effective(self):
        assert is_effective_qubit(1.0, 0.0, 0.0)

    def test_pure_z_is_not(self):
        assert not is_effective_qubit(0.0, 0.0, 5.0)

    def test_marginal_value_warns_but_is_true(self):
        with pytest.warns(NumericallyMarginalWarning):
            assert is_effective_qubit(1e-12, 0.0, 1.0)

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            is_effective_qubit(0.0, 0.0, 0.0)


class TestQubitPairFamily:
    def test_members_are_plane_witnesses(self):
        fam = qubit_pair_family(2.0, 1.0, 1.0, 1.0, -1.0)
        assert len(fam) == 2
        for w in fam.members:
            assert w.interval == (1.0, 1.0)  # K/2 on both diagonals
        assert np.array_equal(fam.members[0].matrix, qubit_witness(2.0, 1.0, 1.0, 0.0).matrix)
        assert np.array_equal(fam.members[1].matrix, qubit_witness(2.0, 1.0, -1.0, 0.0).matrix)

    def test_proportional_directions_rejected(self):
        with pytest.raises(DegenerateFamilyError):
            qubit_pair_family(0.0, 1.0, 1.0, 2.0, 2.0)

    def test_zero_pair_rejected(self):
        with pytest.raises(DegenerateFamilyError):
            qubit_pair_family(0.0, 0.0, 0.0, 1.0, 1.0)

    def test_proportional_directions_rejected_where_the_cross_product_overflows(self):
        # a1*b2 - a2*b1 is inf - inf = NaN in floats, and 0 exactly.
        with pytest.raises(DegenerateFamilyError):
            qubit_pair_family(0.0, 1e200, 1e200, 1e200, 1e200)

    def test_perpendicular_directions_accepted_where_the_cross_product_underflows(self):
        # a1*b2 - a2*b1 is 0 in floats, and 1e-340 exactly.  Directions this
        # short detect no state, which the family warns of.
        with pytest.warns(NumericallyMarginalWarning, match="undetected"):
            fam = qubit_pair_family(0.0, 1e-170, 0.0, 0.0, 1e-170)
        assert len(fam) == 2
        assert fam.members[0].matrix[0, 1] == 5e-171 and fam.members[1].matrix[0, 1] == -5e-171j

    @pytest.mark.parametrize(
        "params",
        [
            (0.0, 2e-9, 0.0, 0.0, 2e-9),  # below the 2 (eps + slack) a margin must clear
            (1e9, 1.0, 0.0, 0.0, 1.0),  # a slack of K/2 * TRACE_DEV
            (0.0, 1.0, 0.0, 1.0, 1e-12),  # nearly proportional
            (0.0, 1e200, 1e-200, 1e200, 2e-200),  # equal once scaled
        ],
    )
    def test_pair_that_misses_a_pure_state_warns(self, params):
        with pytest.warns(NumericallyMarginalWarning, match="leaves a pure coherent state undetected"):
            fam = qubit_pair_family(*params)
        _, a1, b1, a2, b2 = params
        # The pure state perpendicular to u1 + u2 is missed by both members.
        x, y = -(b1 + b2), a1 + a2
        r = math.hypot(x, y)
        assert not fam.detects(qubit_state(x / r, y / r, 0.0))

    @pytest.mark.parametrize(
        "params",
        [(0.0, 3e-9, 0.0, 0.0, 3e-9), (0.0, 1.0, 0.0, 0.0, 1.0), (0.0, 1e200, 1e200, 1e200, -1e200)],
    )
    def test_pair_that_detects_every_pure_state_is_quiet(self, params):
        # A NumericallyMarginalWarning fails the test (tests/conftest.py).
        fam = qubit_pair_family(*params)
        angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        assert all(fam.detects(qubit_state(math.cos(t), math.sin(t), 0.0)) for t in angles)

    def test_covers_all_coherent_qubit_states(self):
        fam = qubit_pair_family(1.0, 1.0, 1.0, 1.0, -1.0)
        for t in range(200):
            rho = sample_ginibre(2, 90_000 + t)
            assert fam.detects(rho) == (l1_coherence(rho) > 1e-7)


class TestGeneratorWitness:
    def test_half_sigma_x(self):
        w = generator_witness(2, 0.0, [0.0, 1.0, 0.0])
        assert np.array_equal(w.matrix, SX / 2)
        assert w.interval == (0.0, 0.0)

    def test_diagonal_coefficient_spreads_interval(self):
        w = generator_witness(2, 1.0, [0.5, 0.0, 0.0])
        assert w.interval == (0.25, 0.75)  # (K -+ s1)/2

    def test_expectation_identity(self):
        rng = SplitMix64(13)
        for t in range(100):
            d = 2 + t % 4
            K = rng.uniform() * 8 - 4
            eta = np.array([rng.uniform() * 2 - 1 for _ in range(d * d - 1)])
            rho = sample_ginibre(d, 100_000 + t)
            w = generator_witness(d, K, eta)
            want = K / d + (2.0 / d**2) * float(bloch_vector(rho) @ eta)
            assert w.evaluate(rho).value == pytest.approx(want, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            generator_witness(3, 0.0, [1.0, 2.0])

    def test_margin_independent_of_identity_coefficient(self):
        rho = sample_ginibre(3, 31337)
        eta = np.zeros(8)
        eta[4] = 1.0  # off-diagonal index, zero diagonal spread
        margins = []
        for K in (0.0, 1.0, 37.0):
            w = generator_witness(3, K, eta)
            report = w.evaluate(rho)
            margins.append(report.margin)
            assert report.interval[0] == report.interval[1] == pytest.approx(K / 3)
        assert abs(margins[0] - margins[1]) <= 1e-12
        assert abs(margins[0] - margins[2]) <= 1e-12


class TestWitnessForState:
    def test_plus_state_picks_sigma_x(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        w = witness_for_state(rho)
        assert np.array_equal(w.matrix, SX / 2)
        report = w.evaluate(rho)
        assert report.value == pytest.approx(0.5)
        assert report.verdict is Verdict.DETECTED

    def test_canonical_coherent_qutrit(self):
        rho = canonical_coherent(3)
        w = witness_for_state(rho, K=3.0)
        report = w.evaluate(rho)
        # r on the (0,1) symmetric index is 1, so the value is K/d + 2/d^2
        assert report.value == pytest.approx(1.0 + 2.0 / 9.0, abs=1e-12)
        assert report.verdict is Verdict.DETECTED

    def test_detects_every_sampled_state(self):
        for t in range(100):
            d = 2 + t % 4
            rho = sample_ginibre(d, 110_000 + t)
            assert witness_for_state(rho, K=float(t % 3)).evaluate(rho).detected

    def test_maximally_mixed_rejected(self):
        with pytest.raises(NotCoherentError):
            witness_for_state(DensityMatrix(np.eye(4, dtype=complex) / 4))


class TestFiniteFamily:
    def test_qubit_family_members(self):
        fam = finite_family(2, 0.0, [1.0, 1.0])
        assert len(fam) == 2
        assert np.array_equal(fam.members[0].matrix, SX / 2)
        assert np.array_equal(
            fam.members[1].matrix, np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
        )

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 6), (4, 12), (5, 20)])
    def test_member_count(self, d, n):
        fam = finite_family(d, 1.0)
        assert len(fam) == n
        for w in fam.members:
            assert w.interval == (pytest.approx(1.0 / d), pytest.approx(1.0 / d))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroCoefficientError):
            finite_family(2, 0.0, [1.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatchError):
            finite_family(3, 0.0, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_K_or_coefficient_rejected(self, bad):
        # Rejected when the family is built, as a member Witness would be.
        with pytest.raises(NonFiniteError):
            finite_family(2, bad)
        with pytest.raises(NonFiniteError):
            finite_family(3, 1.0, [1.0, 1.0, bad, 1.0, 1.0, 1.0])

    def test_completeness_on_mixed_sample(self):
        fam = finite_family(3, 1.0)
        for t in range(100):
            rho = sample_ginibre(3, 120_000 + t)
            assert fam.detects(rho)
        for t in range(100):
            delta = sample_incoherent(3, 121_000 + t)
            assert not fam.detects(delta)

    def test_detected_values_stay_in_closing_bound(self):
        d, K = 3, 1.0
        fam = finite_family(d, K)
        half_width = math.sqrt(2.0 * d * (d - 1)) / d**2  # unit coefficient norm
        for t in range(100):
            rho = sample_ginibre(d, 130_000 + t)
            for report in fam.evaluate(rho):
                if report.detected:
                    assert K / d - half_width < report.value < K / d + half_width
                    assert abs(report.value - K / d) > 1e-12

    def test_equivalent_to_qubit_pair_on_samples(self):
        s2, s3 = 1.3, -0.7
        fam_a = qubit_pair_family(1.0, s2, 0.0, 0.0, s3)
        fam_b = finite_family(2, 1.0, [s2, s3])
        for t in range(300):
            if t < 150:
                rho = sample_ginibre(2, 140_000 + t)
            else:
                rho = sample_incoherent(2, 140_000 + t)
            va = [r.detected for r in fam_a.evaluate(rho)]
            vb = [r.detected for r in fam_b.evaluate(rho)]
            assert va == vb

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 12, 28])
    @pytest.mark.parametrize("K", [0.0, -0.0, 37.0, -2.5, 1e-300, -1e300, 5e-324])
    def test_closed_form_diagonal_is_the_row_loop_bit_for_bit(self, d, K):
        # The closed form as it summed its diagonal first: row by row onto
        # +0, Im(w) Im(rho_ii) term included.  The diagonals have imaginary
        # parts, signed zeros and negative entries down to -1e-10; a quarter
        # of the states have -0 off the diagonal, where a diagonal sum of -0
        # would reach the value.
        family = finite_family(d, K)
        rng = np.random.default_rng(d)
        n = 100
        stack = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        stack[: n // 4, ~np.eye(d, dtype=bool)] = complex(-0.0, -0.0)
        edges = np.array([0.0, -0.0, -1e-10, -3e-11, 5e-324, -5e-324])
        diag = np.empty((n, d), dtype=np.complex128)
        diag.real = np.where(rng.random((n, d)) < 0.5, rng.choice(edges, (n, d)), rng.random((n, d)))
        diag.imag = rng.choice([0.0, -0.0, 5e-11, -5e-11, 0.25], (n, d))
        stack[:, np.arange(d), np.arange(d)] = diag
        x = stack.view(np.float64).reshape(n, 2 * d * d)
        loop = np.zeros(n)
        for i in range(0, 2 * d * d, 2 * d + 2):
            loop += family._w.real * x[:, i] - family._w.imag * x[:, i + 1]
        want = np.take(x, family._cols[0], axis=1) * family._coef[0] + loop[:, None]
        want += np.take(x, family._cols[1], axis=1) * family._coef[1]
        assert family._values(stack).tobytes() == want.T.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 12, 100])
    def test_estimate_covers_the_traced_peak(self, d):
        for K, coeffs in [(0.0, None), (-1.5, [1.0 + t for t in range(d * (d - 1))])]:
            assert traced_peak(lambda: finite_family(d, K, coeffs)) <= finite_family_bytes(d)

    def test_estimate_places_the_cap_above_the_sweep_charge(self):
        # The family is refused above d = 2442; its sweep's charge, which
        # covers the family's construction too, refuses it above d = 2358.
        assert finite_family_bytes(2442) <= linalg.MAX_COVERAGE_BYTES < finite_family_bytes(2443)
        assert all(finite_family_bytes(d) <= sweep_bytes(d, d * (d - 1), 0) for d in range(2, 3000))

    def test_members_are_charged_before_they_are_built(self, monkeypatch):
        # 9900 member witnesses of 10**4 entries, and the stack they are
        # copied from: about 3.2 GB, refused before any of it is allocated.
        family = finite_family(100)
        refuse_member_stack(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="building 9900 member witnesses at d=100 needs about"):
                family.members
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16384

    @pytest.mark.parametrize("d", [2, 5, 30])
    @pytest.mark.parametrize("holds_matrices", [False, True])
    def test_members_charge_covers_the_traced_peak(self, monkeypatch, d, holds_matrices):
        # The built-in family builds its member stack for the copies; a
        # family of the same members that holds its stack copies from it.
        families = [finite_family(d, 0.5) for _ in range(2)]
        if holds_matrices:
            families = [WitnessFamily._from_stack(f.label, f._stack, f.detect_eps) for f in families]
        assert families[0]._holds_matrices == holds_matrices
        peak = traced_peak(lambda: families[0].members)
        assert len(families[0].members) == d * (d - 1)
        # With the cap just below the traced peak, the charge refuses.
        monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", peak - 1)
        with pytest.raises(InvalidParameterError, match="member witnesses"):
            families[1].members

    def test_oversized_family_is_refused_before_it_is_built(self, monkeypatch):
        d = 200
        monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", finite_family_bytes(d))
        assert len(finite_family(d)) == d * (d - 1)
        monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", finite_family_bytes(d) - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match=f"finite_family at d={d} needs about"):
                finite_family(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16384  # the coefficients alone would hold 320 KB
