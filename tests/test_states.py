import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import (
    CohwitError,
    DensityMatrix,
    IncoherentState,
    InvalidParameterError,
    InvalidStateError,
    NotHermitianError,
    OutOfIntervalError,
    SplitMix64,
    Witness,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator_witness,
    incoherent_with_value,
    is_hermitian,
    l1_coherence,
    min_eigenvalue,
    qubit_state,
    sample_ensemble,
    sample_ginibre,
    sample_ginibre_batch,
    sample_hermitian,
    sample_hermitian_batch,
    sample_incoherent,
    sample_incoherent_batch,
    trace_product,
    validate_states,
    verify_coverage,
)
from cohwit import states
from cohwit.states import _BLOCK_ENTRIES


class TestDensityMatrix:
    def test_valid_state(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert rho.dim == 2
        assert rho.min_eigenvalue == pytest.approx(0.5)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_accepts_roundoff_negative_eigenvalue_and_clamps(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
        assert rho.min_eigenvalue == 0.0


class TestIncoherentState:
    def test_valid(self):
        delta = IncoherentState(np.array([0.25, 0.75]))
        assert delta.dim == 2
        assert l1_coherence(delta.as_density_matrix()) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            IncoherentState(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidStateError):
            IncoherentState(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [1.0, math.nan], [math.nan, 0.0, 1.0]])
    def test_rejects_nan(self, probs):
        # NaN compares False both ways, so each check must be written to fail on it.
        with pytest.raises(InvalidStateError):
            IncoherentState(np.array(probs))


def test_l1_maximally_mixed_is_zero():
    for d in (2, 3, 5):
        assert l1_coherence(DensityMatrix(np.eye(d, dtype=complex) / d)) == 0.0


def test_l1_plus_state():
    assert l1_coherence(DensityMatrix(np.full((2, 2), 0.5, dtype=complex))) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_l1_canonical_coherent(d):
    assert l1_coherence(canonical_coherent(d)) == pytest.approx(2.0 / d, abs=1e-15)


# Diagonal entries that sit at the edges of what a state check accepts or of
# the float range: zeros of both signs, subnormals, and eigenvalues and trace
# errors just inside PSD_FLOOR and TRACE_DEV.
DIAGONAL_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-16, 0.5, 1.0, -0.5e-9, 1.0 + 0.5e-9, 1e308, -1e308]


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 9), data=st.data())
def test_l1_is_exactly_zero_on_diagonal_states(d, data):
    entries = st.one_of(st.sampled_from(DIAGONAL_EDGES), st.floats(-1e300, 1e300))
    diagonals = np.array(data.draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=6)))
    stack = np.zeros((len(diagonals), d, d), dtype=np.complex128)
    stack[:, range(d), range(d)] = diagonals
    values = states.l1_coherence_batch(stack)
    assert values.tolist() == [0.0] * len(diagonals)
    assert not np.signbit(values).any()
    # The same through a validated state: probabilities with edge entries,
    # the last one carrying the trace.  The largest entry is 1/8, so the
    # d - 1 <= 8 drawn entries sum to at most 1 and the last stays a
    # probability.
    edges = st.sampled_from([0.0, 5e-324, 1e-300, 1e-16, 0.125, -0.5e-9])
    probs = np.array(data.draw(st.lists(edges, min_size=d - 1, max_size=d - 1)))
    probs = np.append(probs, 1.0 + data.draw(st.sampled_from([0.0, 0.5e-9, -0.5e-9])) - probs.sum())
    value = l1_coherence(DensityMatrix(np.diag(probs).astype(np.complex128)))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("d", [2, 3, 5, 12, 28])
def test_l1_of_coherent_states_agrees_with_the_total_minus_trace(d):
    # The off-diagonal sum against sum(|rho|) - tr|rho|, the formula it
    # replaced, within a few ulps of sum(|rho|); never negative.
    stack = np.concatenate([sample_ginibre_batch(d, range(100, 140)), sample_ensemble(d, 40, 7)])
    a = np.abs(stack)
    total = a.sum(axis=(1, 2))
    values = states.l1_coherence_batch(stack)
    assert np.all(np.abs(values - (total - np.trace(a, axis1=1, axis2=2))) <= 4 * np.spacing(total))
    assert np.all(values >= 0.0)


def test_canonical_coherent_matrices():
    assert np.allclose(canonical_coherent(2).matrix, np.full((2, 2), 0.5))
    want = np.eye(3) / 3
    want[0, 1] = want[1, 0] = 1 / 3
    assert np.allclose(canonical_coherent(3).matrix, want)


def test_canonical_coherent_valid_up_to_64():
    for d in range(2, 65):
        canonical_coherent(d)  # construction validates


class TestGinibre:
    def test_satisfies_state_invariants(self):
        for d in (2, 3, 5):
            sample_ginibre(d, 123)  # construction validates

    def test_deterministic_per_seed(self):
        a = sample_ginibre(3, 42)
        b = sample_ginibre(3, 42)
        assert np.array_equal(a.matrix, b.matrix)
        c = sample_ginibre(3, 43)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_almost_surely_coherent(self):
        n = sum(1 for t in range(1000) if l1_coherence(sample_ginibre(3, 50_000 + t)) > 1e-6)
        assert n == 1000


class TestSampleIncoherent:
    def test_simplex(self):
        for t in range(50):
            delta = sample_incoherent(4, t)
            assert abs(delta.probs.sum() - 1.0) <= 1e-12
            assert np.all(delta.probs >= 0)

    def test_deterministic_per_seed(self):
        assert np.array_equal(sample_incoherent(5, 9).probs, sample_incoherent(5, 9).probs)

    def test_diagonal_embedding_has_zero_l1(self):
        assert l1_coherence(sample_incoherent(3, 1).as_density_matrix()) == 0.0


class TestIncoherentWithValue:
    def test_two_point_weights(self):
        w = canonical_witness(2, 0.0, 1.0)
        delta = incoherent_with_value(w, 0.25)
        # diagonal of the witness is (1, 0): minimizer at index 1, maximizer at 0
        assert delta.probs[1] == pytest.approx(0.75)
        assert delta.probs[0] == pytest.approx(0.25)
        value = trace_product(w.matrix, delta.as_density_matrix().matrix).real
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_interval_uses_uniform(self):
        w = generator_witness(4, 2.0, [0.0] * 15)  # all diagonals K/d = 0.5
        delta = incoherent_with_value(w, 0.5)
        assert np.allclose(delta.probs, 0.25)
        value = trace_product(w.matrix, delta.as_density_matrix().matrix).real
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_target_concentrates_on_maximizer(self):
        w = Witness(np.diag([3.0, -2.0, 5.0]).astype(complex))
        delta = incoherent_with_value(w, 5.0)
        assert np.array_equal(delta.probs, [0.0, 0.0, 1.0])

    def test_out_of_interval_rejected(self):
        w = canonical_witness(2, 0.0, 1.0)
        with pytest.raises(OutOfIntervalError):
            incoherent_with_value(w, 1.5)

    def test_contract_over_random_witnesses(self):
        for t in range(100):
            d = 2 + t % 4
            w = Witness(sample_hermitian(d, 60_000 + t))
            lo, hi = w.interval
            for f in np.linspace(0.0, 1.0, 10):
                target = min(lo + f * (hi - lo), hi)  # guard the f=1 ulp overshoot
                delta = incoherent_with_value(w, target)
                value = trace_product(w.matrix, delta.as_density_matrix().matrix).real
                assert abs(value - target) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    f=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_incoherent_with_value_property(seed, f):
    d = 2 + seed % 4
    w = Witness(sample_hermitian(d, seed))
    lo, hi = w.interval
    target = min(lo + f * (hi - lo), hi)
    delta = incoherent_with_value(w, target)
    value = trace_product(w.matrix, delta.as_density_matrix().matrix).real
    assert abs(value - target) <= 1e-12


# The samplers as first written: one SplitMix64 stream and one state at a time.


def reference_complex_normal(d, seed):
    z = SplitMix64(seed).normals(2 * d * d)
    re = np.asarray(z[0::2]).reshape(d, d)
    im = np.asarray(z[1::2]).reshape(d, d)
    return (re + 1j * im) / math.sqrt(2.0)


def reference_ginibre(d, seed):
    G = reference_complex_normal(d, seed)
    M = G @ G.conj().T
    M = (M + M.conj().T) / 2.0
    return M / float(np.trace(M).real)


def reference_incoherent(d, seed):
    rng = SplitMix64(seed)
    e = np.array([-math.log(rng.uniform()) for _ in range(d)])
    return e / e.sum()


def reference_hermitian(d, seed):
    G = reference_complex_normal(d, seed)
    return (G + G.conj().T) / 2.0


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 6), seeds=st.lists(st.integers(), max_size=40))
def test_batched_samplers_match_one_seed_and_reference(d, seeds):
    ginibre = sample_ginibre_batch(d, seeds)
    probs = sample_incoherent_batch(d, seeds)
    hermitian = sample_hermitian_batch(d, seeds)
    assert ginibre.shape == hermitian.shape == (len(seeds), d, d)
    assert probs.shape == (len(seeds), d)
    for i, seed in enumerate(seeds):
        assert same_bits(ginibre[i], sample_ginibre(d, seed).matrix)
        assert same_bits(ginibre[i], reference_ginibre(d, seed))
        assert same_bits(probs[i], sample_incoherent(d, seed).probs)
        assert same_bits(probs[i], reference_incoherent(d, seed))
        assert same_bits(hermitian[i], sample_hermitian(d, seed))
        assert same_bits(hermitian[i], reference_hermitian(d, seed))


# The first uniform of this seed is exactly 1.0: its first Box-Muller pair is
# (-0.0, -0.0) and its first exponential -0.0.
UNIT_FIRST = 0xF56E309E96A04737


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batched_samplers_match_one_seed_at_a_unit_uniform(d):
    seeds = [UNIT_FIRST, 7, UNIT_FIRST]
    ginibre = sample_ginibre_batch(d, seeds)
    probs = sample_incoherent_batch(d, seeds)
    for i, seed in enumerate(seeds):
        assert same_bits(ginibre[i], sample_ginibre(d, seed).matrix)
        assert same_bits(ginibre[i], reference_ginibre(d, seed))
        assert same_bits(probs[i], sample_incoherent(d, seed).probs)
        assert same_bits(probs[i], reference_incoherent(d, seed))
    assert same_bits(sample_incoherent(d, UNIT_FIRST).probs[0], -0.0)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 6), n=st.integers(0, 40), seed=st.integers())
def test_ensemble_matches_reference(d, n, seed):
    want = np.zeros((n, d, d), dtype=np.complex128)
    for t in range(n):
        if t < n // 2:
            want[t] = reference_ginibre(d, seed + t)
        else:
            want[t] = np.diag(reference_incoherent(d, seed + t))
    assert same_bits(sample_ensemble(d, n, seed), want)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 6), n=st.integers(0, 40), seed=st.integers(), step=st.sampled_from([1, 3, 7, 64]))
def test_ensemble_chunks_are_the_stack_rows(d, n, seed, step):
    chunks = list(states._ensemble_chunks(d, n, seed, step))
    assert [len(c) for c in chunks] == [min(step, n - i) for i in range(0, n, step)]
    rows = np.concatenate(chunks) if chunks else np.zeros((0, d, d), np.complex128)
    assert same_bits(rows, sample_ensemble(d, n, seed))


def test_ensemble_spanning_several_blocks_matches_reference():
    assert 250 > 3 * (_BLOCK_ENTRIES // 18**2)  # each half of 500 states takes several blocks
    stack = sample_ensemble(18, 500, 9)
    for t in (0, 11, 12, 201, 249, 250, 262, 499):
        want = reference_ginibre(18, 9 + t) if t < 250 else np.diag(reference_incoherent(18, 9 + t))
        assert same_bits(stack[t], want.astype(np.complex128))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), n=st.integers(0, 64), seed=st.integers(-(2**64), 2**64), data=st.data())
def test_ensemble_validates_each_state_once(d, n, seed, data):
    # Only the full-rank rows go through validate_states: each diagonal row is
    # diag(p) of a probability vector already checked, which passes every
    # matrix check.  A bad full-rank row is still named in the whole stack.
    n_g = n // 2
    stack = sample_ensemble(d, n, seed)
    validate_states(stack)
    want = np.zeros((n - n_g, d, d), dtype=np.complex128)
    want[:, np.arange(d), np.arange(d)] = sample_incoherent_batch(d, range(seed + n_g, seed + n))
    assert same_bits(stack[n_g:], want)
    if n_g == 0:
        return
    t = data.draw(st.integers(0, n_g - 1), label="t")
    bad = np.diag([1.5, -0.5] + [0.0] * (d - 2)).astype(np.complex128)  # Hermitian, trace 1
    real_block = states._ginibre_block

    def block_with_bad_row(d, seeds):
        block = real_block(d, seeds)
        for i, s in enumerate(seeds):
            if s == seed + t:
                block[i] = bad
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_ginibre_block", block_with_bad_row)
        with pytest.raises(InvalidStateError, match=f"^ensemble state {t} is not PSD: min eigenvalue -0.5$"):
            sample_ensemble(d, n, seed)
        with pytest.raises(InvalidStateError, match=f"^ensemble state {t} is not PSD: min eigenvalue -0.5$"):
            list(states._ensemble_chunks(d, n, seed, 3))  # named in the whole stack, not in its chunk


def test_ensemble_rejects_negative_count():
    with pytest.raises(InvalidParameterError):
        sample_ensemble(2, -4, 0)


def coverage_values(seed):
    report = verify_coverage(finite_family(3), 6, seed)
    return np.array([report.n_detected, report.min_margin_detected, *report.per_witness_hits])


# Every public entry point that takes a seed, as a function of it.
SEEDED = {
    "SplitMix64": lambda seed: np.array(SplitMix64(seed).normals(4)),
    "sample_ginibre": lambda seed: sample_ginibre(3, seed).matrix,
    "sample_incoherent": lambda seed: sample_incoherent(3, seed).probs,
    "sample_hermitian": lambda seed: sample_hermitian(3, seed),
    "sample_ginibre_batch": lambda seed: sample_ginibre_batch(3, [4, seed]),
    "sample_incoherent_batch": lambda seed: sample_incoherent_batch(3, [4, seed]),
    "sample_hermitian_batch": lambda seed: sample_hermitian_batch(3, [4, seed]),
    "sample_ensemble": lambda seed: sample_ensemble(3, 6, seed),
    "verify_coverage": coverage_values,
}


@pytest.mark.parametrize("name", sorted(SEEDED))
@pytest.mark.parametrize("seed", [1.7, np.float64(2.9), 2.0, "3", None])
def test_a_seed_that_is_not_an_integer_is_refused(name, seed):
    # int() would truncate 1.7 to seed 1 and give seed 1's stream.
    with pytest.raises(InvalidParameterError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(SEEDED))
@pytest.mark.parametrize("seed", [np.int64(-5), np.uint64(2**64 - 1), np.int32(7), np.uint8(200)])
def test_a_numpy_integer_seed_gives_the_int_seeds_rows(name, seed):
    assert same_bits(SEEDED[name](seed), SEEDED[name](int(seed)))


BAD_STATES = {
    "non-Hermitian": [[0.5, 0.5], [0.0, 0.5]],
    "trace 1.1": [[0.55, 0.0], [0.0, 0.55]],
    "negative eigenvalue": [[1.5, 0.0], [0.0, -0.5]],
    "NaN": [[math.nan, 0.0], [0.0, 0.5]],
    "+inf": [[math.inf, 0.0], [0.0, 0.5]],
    "-inf": [[0.5, complex(0.0, -math.inf)], [0.0, 0.5]],
}


@pytest.mark.parametrize("kind", sorted(BAD_STATES))
@pytest.mark.parametrize("t", [0, 3, 5])
def test_validator_names_the_bad_state_like_density_matrix(kind, t):
    bad = np.array(BAD_STATES[kind], dtype=np.complex128)
    with pytest.raises(Exception) as single:
        DensityMatrix(bad)
    stack = sample_ensemble(2, 6, 1).copy()
    stack[t] = bad
    with pytest.raises(type(single.value)) as batched:
        validate_states(stack)
    assert str(batched.value) == str(single.value).replace("density matrix", f"state {t}", 1)


# Malformed shapes: they cannot stand in for a 2 x 2 state of a stack as in the
# test above, so they join BAD_STATES only in the pins below.
BAD_SHAPES = {
    "non-square": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]],
    "1x1": [[1.0]],
    "1-D": [0.5, 0.5],
    "3-D": [[[0.5, 0.0], [0.0, 0.5]]],
}

VALIDATING_CALLERS = {
    "DensityMatrix": DensityMatrix,
    "Witness": Witness,
    "min_eigenvalue": min_eigenvalue,
    "is_hermitian": is_hermitian,
    "trace_product left": lambda x: trace_product(x, np.eye(2)),
    "trace_product right": lambda x: trace_product(np.eye(2), x),
    "validate_states": lambda x: validate_states([x]),
}

# Each caller's outcome on each malformed input: "Class: message" when it
# raises, else the repr of its result.
PINNED_OUTCOMES = {
    "non-Hermitian": {
        "DensityMatrix": "NotHermitianError: density matrix is not Hermitian within 1e-10: deviation 0.5",
        "Witness": "NotHermitianError: witness matrix is not Hermitian within 1e-10: deviation 0.5",
        "min_eigenvalue": "NotHermitianError: matrix is not Hermitian within 1e-10: deviation 0.5",
        "is_hermitian": "False",
        "trace_product left": "(1+0j)",
        "trace_product right": "(1+0j)",
        "validate_states": "NotHermitianError: state 0 is not Hermitian within 1e-10: deviation 0.5",
    },
    "trace 1.1": {
        "DensityMatrix": "InvalidStateError: density matrix trace must be 1, got (1.1+0j)",
        "Witness": "Witness(dim=2, interval=[0.55, 0.55], eps=1e-09)",
        "min_eigenvalue": "0.55",
        "is_hermitian": "True",
        "trace_product left": "(1.1+0j)",
        "trace_product right": "(1.1+0j)",
        "validate_states": "InvalidStateError: state 0 trace must be 1, got (1.1+0j)",
    },
    "negative eigenvalue": {
        "DensityMatrix": "InvalidStateError: density matrix is not PSD: min eigenvalue -0.5",
        "Witness": "Witness(dim=2, interval=[-0.5, 1.5], eps=1e-09)",
        "min_eigenvalue": "-0.5",
        "is_hermitian": "True",
        "trace_product left": "(1+0j)",
        "trace_product right": "(1+0j)",
        "validate_states": "InvalidStateError: state 0 is not PSD: min eigenvalue -0.5",
    },
    "NaN": {
        "DensityMatrix": "NonFiniteError: density matrix contains non-finite entries",
        "Witness": "NonFiniteError: witness matrix contains non-finite entries",
        "min_eigenvalue": "NonFiniteError: matrix contains non-finite entries",
        "is_hermitian": "NonFiniteError: matrix contains non-finite entries",
        "trace_product left": "NonFiniteError: left operand contains non-finite entries",
        "trace_product right": "NonFiniteError: right operand contains non-finite entries",
        "validate_states": "NonFiniteError: state 0 contains non-finite entries",
    },
    "+inf": {
        "DensityMatrix": "NonFiniteError: density matrix contains non-finite entries",
        "Witness": "NonFiniteError: witness matrix contains non-finite entries",
        "min_eigenvalue": "NonFiniteError: matrix contains non-finite entries",
        "is_hermitian": "NonFiniteError: matrix contains non-finite entries",
        "trace_product left": "NonFiniteError: left operand contains non-finite entries",
        "trace_product right": "NonFiniteError: right operand contains non-finite entries",
        "validate_states": "NonFiniteError: state 0 contains non-finite entries",
    },
    "-inf": {
        "DensityMatrix": "NonFiniteError: density matrix contains non-finite entries",
        "Witness": "NonFiniteError: witness matrix contains non-finite entries",
        "min_eigenvalue": "NonFiniteError: matrix contains non-finite entries",
        "is_hermitian": "NonFiniteError: matrix contains non-finite entries",
        "trace_product left": "NonFiniteError: left operand contains non-finite entries",
        "trace_product right": "NonFiniteError: right operand contains non-finite entries",
        "validate_states": "NonFiniteError: state 0 contains non-finite entries",
    },
    "non-square": {
        "DensityMatrix": "DimensionMismatchError: density matrix must be square, got shape (2, 3)",
        "Witness": "DimensionMismatchError: witness matrix must be square, got shape (2, 3)",
        "min_eigenvalue": "DimensionMismatchError: matrix must be square, got shape (2, 3)",
        "is_hermitian": "DimensionMismatchError: matrix must be square, got shape (2, 3)",
        "trace_product left": "DimensionMismatchError: left operand must be square, got shape (2, 3)",
        "trace_product right": "DimensionMismatchError: right operand must be square, got shape (2, 3)",
        "validate_states": "DimensionMismatchError: state stack must have shape (n, d, d), d >= 2, got (1, 2, 3)",
    },
    "1x1": {
        "DensityMatrix": "DimensionMismatchError: density matrix must have dim >= 2, got 1",
        "Witness": "DimensionMismatchError: witness matrix must have dim >= 2, got 1",
        "min_eigenvalue": "DimensionMismatchError: matrix must have dim >= 2, got 1",
        "is_hermitian": "DimensionMismatchError: matrix must have dim >= 2, got 1",
        "trace_product left": "DimensionMismatchError: left operand must have dim >= 2, got 1",
        "trace_product right": "DimensionMismatchError: right operand must have dim >= 2, got 1",
        "validate_states": "DimensionMismatchError: state stack must have shape (n, d, d), d >= 2, got (1, 1, 1)",
    },
    "1-D": {
        "DensityMatrix": "DimensionMismatchError: density matrix must be square, got shape (2,)",
        "Witness": "DimensionMismatchError: witness matrix must be square, got shape (2,)",
        "min_eigenvalue": "DimensionMismatchError: matrix must be square, got shape (2,)",
        "is_hermitian": "DimensionMismatchError: matrix must be square, got shape (2,)",
        "trace_product left": "DimensionMismatchError: left operand must be square, got shape (2,)",
        "trace_product right": "DimensionMismatchError: right operand must be square, got shape (2,)",
        "validate_states": "DimensionMismatchError: state stack must have shape (n, d, d), d >= 2, got (1, 2)",
    },
    "3-D": {
        "DensityMatrix": "DimensionMismatchError: density matrix must be square, got shape (1, 2, 2)",
        "Witness": "DimensionMismatchError: witness matrix must be square, got shape (1, 2, 2)",
        "min_eigenvalue": "DimensionMismatchError: matrix must be square, got shape (1, 2, 2)",
        "is_hermitian": "DimensionMismatchError: matrix must be square, got shape (1, 2, 2)",
        "trace_product left": "DimensionMismatchError: left operand must be square, got shape (1, 2, 2)",
        "trace_product right": "DimensionMismatchError: right operand must be square, got shape (1, 2, 2)",
        "validate_states": "DimensionMismatchError: state stack must have shape (n, d, d), d >= 2, got (1, 1, 2, 2)",
    },
}


@pytest.mark.parametrize("caller", sorted(VALIDATING_CALLERS))
@pytest.mark.parametrize("kind", sorted(PINNED_OUTCOMES))
def test_validator_outcomes_are_pinned(kind, caller):
    bad = {**BAD_STATES, **BAD_SHAPES}[kind]
    try:
        got = repr(VALIDATING_CALLERS[caller](bad))
    except CohwitError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == PINNED_OUTCOMES[kind][caller]


def test_validator_names_a_state_in_a_later_block():
    assert 37 > _BLOCK_ENTRIES // 64**2  # state 37 is not in the first validation block
    stack = np.repeat(np.eye(64, dtype=np.complex128)[None] / 64, 40, axis=0)
    stack[37] *= 1.1
    with pytest.raises(InvalidStateError, match="^state 37 trace"):
        validate_states(stack)


def test_validator_returns_min_eigenvalues():
    stack = np.array([np.diag([0.25, 0.75]), np.full((2, 2), 0.5)], dtype=np.complex128)
    assert validate_states(stack) is None
    assert [DensityMatrix(M).min_eigenvalue for M in stack] == pytest.approx([0.25, 0.0], abs=1e-15)
    assert validate_states(np.zeros((0, 3, 3))) is None


EDGES = [-1.0, -1 / 3, -0.0, 0.0, 5e-324, 1 / 3, 1.0]


@pytest.mark.parametrize("x", EDGES)
def test_qubit_state_matches_the_written_out_matrix(x):
    # Every in-ball point of the edge values, on the sphere and inside it.
    for y in EDGES:
        for z in EDGES:
            if x * x + y * y + z * z > 1.0:
                continue
            M = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128)
            assert same_bits(qubit_state(x, y, z).matrix, M)
