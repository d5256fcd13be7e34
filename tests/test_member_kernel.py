"""The member-table kernel against its oracle, one einsum per member.

``_MemberTable._values`` sums each member's nonzero entries row by row.  The
oracle here contracts every member with ``np.einsum("ij,nji->n", W, rho)``,
the library's kernel before the sparse one; the library no longer calls it.
Every comparison is bit for bit (array bytes, so signs of zeros count too),
and a value or margin that overflows must raise the NonFiniteError that the
oracle's values raise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohwit import (
    CohwitError,
    NonFiniteError,
    NumericallyMarginalWarning,
    Witness,
    WitnessFamily,
    canonical_witness,
    finite_family,
    generator_witness,
    qubit_witness,
    sample_ensemble,
    sample_ginibre,
    sample_hermitian,
    tailored_witness,
)
from cohwit.linalg import DETECT_EPS, HERMITICITY_TOL
from cohwit.witness import _evaluate, _verdicts

HALF_TOL = HERMITICITY_TOL / 2
# Signed zeros, the least subnormals, and magnitudes whose products overflow.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300])


def oracle(source, states):
    """(members, n) values of ``source``'s members by one einsum each."""
    values = np.empty((len(source._stack), len(states)), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for W, row in zip(source._stack, values):
            np.einsum("ij,nji->n", W, states, out=row)
    return values.real


def assert_kernel_is_oracle(source, states):
    """Values, margins and verdicts are the oracle's bit for bit, or both
    raise the same NonFiniteError."""
    want = oracle(source, states)
    try:
        expected = _verdicts(source, want)
    except NonFiniteError as exc:
        with pytest.raises(NonFiniteError) as got:
            _evaluate(source, states)
        assert str(got.value) == str(exc)
        return
    values, margins, detected = _evaluate(source, states)
    assert np.ascontiguousarray(values).tobytes() == want.tobytes()
    assert np.ascontiguousarray(margins).tobytes() == np.ascontiguousarray(expected[0]).tobytes()
    assert np.array_equal(detected, expected[1])


def table(stack, eps=DETECT_EPS):
    return WitnessFamily._from_stack("table", stack, [eps] * len(stack))


def raw_states(rng, n, d, special):
    """n finite complex matrices, each float drawn as one of SPECIAL with
    probability ``special`` and standard normal otherwise."""
    states = rng.standard_normal((n, d, d, 2))
    hit = rng.random(states.shape) < special
    states[hit] = rng.choice(SPECIAL, np.count_nonzero(hit))
    return states.view(np.complex128)[..., 0]


KINDS = ["family", "lemma2", "tailored", "qubit", "hermitian", "eta"]
SCALES = st.sampled_from([1.0, 1.0, 1e-300, 5e-324, 1e300, 0.5, -3.0])
K_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 1.0, 2.0, 37.0, -2.5]), st.floats(-1e6, 1e6))


@st.composite
def member_stacks(draw):
    """The (members, d, d) stack of a constructor's witness or family: the
    sparse ones (finite_family members, lemma2, tailored and qubit
    witnesses) and dense ones (sample_hermitian, eta), at d from 2 to 28."""
    kind = draw(st.sampled_from(KINDS))
    d = 2 if kind == "qubit" else draw(st.integers(2, 28))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    try:
        if kind == "family":
            coeffs = None if draw(st.booleans()) else rng.uniform(0.5, 2.0, d * (d - 1)) * rng.choice([-1.0, 1.0], d * (d - 1))
            return finite_family(d, draw(K_VALUES), coeffs)._stack.copy()
        if kind in ("lemma2", "tailored"):
            lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
            if kind == "lemma2":
                return canonical_witness(d, lo, hi).matrix[None].copy()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericallyMarginalWarning)
                return tailored_witness(sample_ginibre(d, seed), lo, hi if draw(st.booleans()) else lo).matrix[None].copy()
        if kind == "qubit":
            return qubit_witness(*rng.choice([-1.0, 0.0, 0.5, 2.0], 4)).matrix[None].copy()
        if kind == "eta":
            return generator_witness(d, draw(K_VALUES), rng.standard_normal(d * d - 1)).matrix[None].copy()
        return np.stack([sample_hermitian(d, seed + s) for s in range(draw(st.integers(1, 3)))])
    except CohwitError:
        assume(False)


@st.composite
def tables(draw):
    """A member table from :func:`member_stacks`, scaled, with drawn signed
    zeros, subnormal pairs, imaginary diagonal parts up to HALF_TOL and an
    all-zero row and column; held as a Witness or a family."""
    stack = draw(member_stacks())
    m, d = stack.shape[:2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore", under="ignore"):
        stack = stack * draw(SCALES)
    assume(np.isfinite(stack).all())
    if draw(st.booleans()):  # signed zeros wherever an entry is zero
        zero = stack == 0
        stack[zero] = complex(-0.0, -0.0) if draw(st.booleans()) else complex(-0.0, 0.0)
    if draw(st.booleans()):  # a subnormal off-diagonal pair
        j, k = sorted(rng.choice(d, 2, replace=False))
        stack[:, j, k] = complex(5e-324, -5e-324)
        stack[:, k, j] = complex(5e-324, 5e-324)
    if draw(st.booleans()):
        stack += 1j * np.diag(rng.uniform(-HALF_TOL, HALF_TOL, d))
    if draw(st.booleans()):
        i = rng.integers(d)
        stack[:, i, :] = stack[:, :, i] = 0.0
    if m == 1 and draw(st.booleans()):
        return Witness(stack[0])
    return table(stack)


@settings(deadline=None, max_examples=200)
@given(source=tables(), n=st.integers(1, 4), special=st.sampled_from([0.0, 0.2, 0.7]), seed=st.integers(0, 2**32 - 1))
def test_kernel_is_the_per_member_einsum(source, n, special, seed):
    d = source.dim
    rng = np.random.default_rng(seed)
    valid = sample_ensemble(d, n, seed)
    assert_kernel_is_oracle(source, valid)
    assert_kernel_is_oracle(source, raw_states(rng, n, d, special))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 12, 16, 18, 28])
def test_dense_tables_are_the_einsum_bit_for_bit(d):
    # Random dense Hermitian tables, wider than any row's slots in sparse ones.
    source = table(np.stack([sample_hermitian(d, 40 + s) for s in range(5)]))
    assert source._widest == d
    assert_kernel_is_oracle(source, sample_ensemble(d, 30, d))
    assert_kernel_is_oracle(source, raw_states(np.random.default_rng(d), 30, d, 0.1))


@pytest.mark.parametrize("K", [-1.0, 0.0, 1.0, 2.0, 37.0, -2.5])
def test_generator_member_stacks_are_the_einsum_bit_for_bit(K):
    source = table(finite_family(12, K)._stack.copy())
    assert source._widest == (1 if K == 0.0 else 2)
    assert_kernel_is_oracle(source, sample_ensemble(12, 40, 12))


@pytest.mark.parametrize("d", [8, 9, 16, 17, 28])
def test_one_member_on_one_state_adds_its_slots_in_order(d):
    # With one member on one state a row's slots are the only axis left,
    # where numpy would add pairwise: values whose sums round differently.
    rng = np.random.default_rng(d)
    W = sample_hermitian(d, d) * 10.0 ** rng.integers(-8, 8, (d, d))
    source = Witness((W + W.conj().T) / 2)
    for t in range(20):
        assert_kernel_is_oracle(source, raw_states(rng, 1, d, 0.0) * 10.0 ** rng.integers(-8, 8, (d, d)))


def test_overflow_raises_the_oracles_error():
    # Products past the float range give inf, and inf - inf NaN: values
    # the kernel refuses, naming the same member, state and value.
    W = np.full((3, 3), 1e300, dtype=np.complex128)
    W[0, 1], W[1, 0] = 1e300j, -1e300j
    states = np.ones((2, 3, 3), dtype=np.complex128)
    states[1] *= complex(1e10, 1e10)
    for source in (Witness(W), table(np.stack([W / 1e300, W]))):
        with pytest.raises(NonFiniteError, match="on state 1: value"):
            source.evaluate_batch(states)
        assert_kernel_is_oracle(source, states)


def test_a_member_of_zeros_evaluates_to_plus_zero():
    # Every term of a zero member is a signed zero, -0 on these states; its
    # values are +0, as the einsum's are.
    zero = np.full((4, 4), complex(-0.0, -0.0))
    raw = raw_states(np.random.default_rng(4), 3, 4, 0.0)
    states = -(np.abs(raw.real) + 1j * np.abs(raw.imag))
    for source in (Witness(zero), table(np.stack([zero, canonical_witness(4, 0.0, 1.0).matrix]))):
        values = _evaluate(source, states)[0]
        assert not np.signbit(values[0]).any()
        assert_kernel_is_oracle(source, states)
