"""Oracle tests for the generator index map and the evaluation kernel.

The reference is the dense path: the generators written out entry by entry
and stacked into a (d**2 - 1, d, d) tensor, then contracted with einsum.  The
library no longer evaluates anything that way; it lives on here only, and
every comparison is bit for bit (array bytes, so signs of zeros count too),
except the built-in family's closed-form values at K != 0, which are held to
a stated rounding bound.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from test_witness import refuse_member_stack

from cohwit import (
    DensityMatrix,
    NonFiniteError,
    Witness,
    WitnessFamily,
    bloch_vector,
    canonical_witness,
    finite_family,
    generator,
    generator_witness,
    sample_ensemble,
    sample_ginibre,
    sample_hermitian,
    sample_incoherent,
    state_from_bloch,
    tailored_witness,
)
from cohwit.generators import _operator
from cohwit.verify import COHERENCE_THRESHOLD, _tally, verify_coverage

DIMS = range(2, 13)


def dense_basis(d):
    """The generalized Gell-Mann matrices in the documented 1-based order."""
    mats = []
    for l in range(d - 1):
        m = np.zeros((d, d), dtype=np.complex128)
        coeff = math.sqrt(2.0 / ((l + 1) * (l + 2)))
        for a in range(l + 1):
            m[a, a] = coeff
        m[l + 1, l + 1] = -(l + 1) * coeff
        mats.append(m)
    pairs = list(combinations(range(d), 2))
    for j, k in pairs:
        m = np.zeros((d, d), dtype=np.complex128)
        m[j, k] = m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=np.complex128)
        m[j, k] = complex(0.0, -1.0)  # the literal -1.0j has a real part of -0.0
        m[k, j] = 1.0j
        mats.append(m)
    return np.stack(mats)


def coefficient_vectors(d):
    """Seeded real vectors: dense, sparse with exact zeros, and with -0.0."""
    rng = np.random.default_rng(d)
    out = []
    for t in range(6):
        v = rng.standard_normal(d * d - 1)
        if t % 3:
            v[rng.random(v.size) < 0.5] = 0.0 if t % 3 == 1 else -0.0
        out.append(v)
    return out


def states(d):
    return [sample_ginibre(d, 500 + d), sample_incoherent(d, 600 + d).as_density_matrix()]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_materialized_basis_matches_written_out_generators(d):
    basis = [generator(d, i) for i in range(1, d * d)]
    assert not any(g.flags.writeable for g in basis)
    assert same_bits(np.stack(basis), dense_basis(d))


@pytest.mark.parametrize("d", DIMS)
def test_operator_matches_dense_contraction(d):
    stack = dense_basis(d)
    for v in coefficient_vectors(d):
        assert same_bits(_operator(d, v), np.einsum("k,kij->ij", v, stack))


@pytest.mark.parametrize("d", DIMS)
def test_state_from_bloch_and_generator_witness_match_dense(d):
    stack = dense_basis(d)
    eye = np.eye(d, dtype=np.complex128)
    for v in coefficient_vectors(d):
        dense = np.einsum("k,kij->ij", v, stack)
        assert same_bits(state_from_bloch(d, v), (eye + dense) / d)
        for K in (0.0, 1.0, -2.5):
            assert same_bits(generator_witness(d, K, v).matrix, (K * eye + dense) / d)


@pytest.mark.parametrize("d", DIMS)
def test_bloch_vector_matches_dense_contraction(d):
    stack = dense_basis(d)
    for rho in states(d):
        want = 0.5 * d * np.real(np.einsum("kij,ji->k", stack, rho.matrix))
        assert same_bits(bloch_vector(rho), want)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_family_kernel_matches_per_member_evaluate(d):
    rho = sample_ginibre(d, 70 + d)
    members = (
        canonical_witness(d, -0.5, 1.5),
        tailored_witness(rho, 0.0, 1.0),
        tailored_witness(rho, 0.25, 0.25),
        Witness(sample_hermitian(d, 80 + d), detect_eps=1e-3),
        Witness(sample_hermitian(d, 90 + d)),
    )
    family = WitnessFamily(label="mixed", members=members)
    ensemble = [DensityMatrix(m) for m in sample_ensemble(d, 12, 100 + d)] + [rho, DensityMatrix(np.eye(d) / d)]
    values, margins, detected = family.evaluate_batch(np.stack([s.matrix for s in ensemble]))
    assert values.shape == margins.shape == detected.shape == (len(members), len(ensemble))
    for m, w in enumerate(members):
        reports = [w.evaluate(s) for s in ensemble]
        assert same_bits(values[m], np.array([r.value for r in reports]))
        assert same_bits(margins[m], np.array([r.margin for r in reports]))
        assert list(detected[m]) == [r.detected for r in reports]
    # Family.evaluate reads the same kernel column by column.
    for t, s in enumerate(ensemble):
        assert [r.value for r in family.evaluate(s)] == list(values[:, t])


def test_margin_is_builtin_max_even_on_a_signed_zero_tie():
    # Interval [-0.0, -0.0] and value +0.0 give lo - value = -0.0 and
    # value - hi = +0.0; max() keeps its first argument on that tie.
    w = canonical_witness(3, -0.0, -0.0)
    report = w.evaluate(DensityMatrix(np.diag([0.5, 0.25, 0.25])))
    lo, hi = w.interval
    want = max(lo - report.value, report.value - hi)
    assert same_bits(report.margin, want)
    assert math.copysign(1.0, report.margin) == -1.0


@pytest.mark.parametrize("entry", [0.1, -0.1j, 0.05 + 0.1j])
@pytest.mark.parametrize("lo", [-0.3, -0.0, 0.0, 0.4])
def test_tailored_point_witness_matches_written_out_operator(entry, lo):
    # Anchor (1, 3): U/2 reads its real part, i(|1><3| - |3><1|)/2 its imaginary part.
    d = 4
    M = np.eye(d, dtype=np.complex128) / d
    M[1, 3], M[3, 1] = entry, np.conj(entry)
    comp = np.zeros((d, d), dtype=np.complex128)
    if abs(entry.real) >= abs(entry.imag):
        comp[1, 3] = comp[3, 1] = 0.5
    else:
        comp[1, 3] = 0.5j
        comp[3, 1] = -0.5j
    assert same_bits(tailored_witness(DensityMatrix(M), lo, lo).matrix, comp + lo * np.eye(d))


def test_generator_family_entries_match_its_members():
    # Members built on demand are (K I + c g) / d over the dense basis.
    for d in (2, 3, 7):
        basis = dense_basis(d)
        eye = np.eye(d, dtype=np.complex128)
        coeffs = np.random.default_rng(d).standard_normal(d * (d - 1))
        for K in (0.0, 37.0, -2.5):
            family = finite_family(d, K, coeffs)
            for t, w in enumerate(family.members):
                eta = np.zeros(d * d - 1)
                eta[d - 1 + t] = coeffs[t]
                assert same_bits(w.matrix, (K * eye + np.einsum("k,kij->ij", eta, basis)) / d)


def kernel_stack(d):
    """Valid states, among them I/d and I/d with -0.0 off-diagonal entries,
    then finite non-Hermitian matrices, one with -0.0 entries."""
    mixed = np.eye(d, dtype=np.complex128) / d
    signed = mixed.copy()
    signed[np.triu_indices(d, 1)] = complex(-0.0, -0.0)
    signed[np.tril_indices(d, -1)] = complex(-0.0, 0.0)
    rng = np.random.default_rng(d)
    raw = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    raw[0][rng.random((d, d)) < 0.3] = complex(-0.0, -0.0)
    return np.concatenate([sample_ensemble(d, 16, 900 + d), mixed[None], signed[None], raw]), [
        DensityMatrix(mixed),
        DensityMatrix(signed),
    ]


def kernel_coefficients(d):
    """Default, signed, tiny and near-overflow member coefficients."""
    n = d * (d - 1)
    signs = np.where(np.arange(n) % 3, 1.0, -1.0)
    random = np.random.default_rng(d).uniform(0.5, 2.0, n) * signs
    return [None, random, 1e-300 * signs, 0.9e308 / d * random / 2.0]


def summation_bound(family, stack):
    """2 gamma_{d+1} times the sum of the summands' moduli, per (member,
    state): how far two recursive sums of the same d + 2 products, each with
    at most d + 1 roundings, can differ.  The (d + 2) u in place of
    gamma_{d+1} = (d + 1) u / (1 - (d + 1) u) absorbs that quotient and the
    rounding of the moduli's own sum."""
    d = family.dim
    W = np.stack([w.matrix for w in family.members])
    moduli = np.einsum("mil,nli->mn", np.abs(W.real), np.abs(stack.real))
    moduli += np.einsum("mil,nli->mn", np.abs(W.imag), np.abs(stack.imag))
    return 2.0 * (d + 2) * 2.0**-53 * moduli


@pytest.mark.parametrize("K", [0.0, 1.0, 37.0, -2.5, 1e6])
@pytest.mark.parametrize("d", [*DIMS, 18])
def test_generator_family_kernel_matches_member_kernel(d, K):
    """finite_family evaluates in closed form, two entries per member, with
    no member object; the oracle is the one-einsum-per-member path over its
    materialized members.  At K = 0 they agree bit for bit.  At K != 0 the
    closed form sums the diagonal terms in another order, so each value is
    held to the recursive-summation bound, every verdict must agree and the
    sweep reports, and the tallies of the targeted states, may differ only
    in their least detected margin."""
    stack, extra = kernel_stack(d)
    targeted = np.array([s.matrix for s in extra])
    for coeffs in kernel_coefficients(d):
        family = finite_family(d, K, coeffs)
        got = family.evaluate_batch(stack)
        report = verify_coverage(family, 16, 900 + d)
        counts, low = _tally(family, COHERENCE_THRESHOLD, targeted)
        assert "members" not in vars(family)  # evaluation built no member
        oracle = WitnessFamily(label=family.label, members=family.members)
        want = oracle.evaluate_batch(stack)
        expected = verify_coverage(oracle, 16, 900 + d)
        expected_counts, expected_low = _tally(oracle, COHERENCE_THRESHOLD, targeted)
        assert same_bits(counts, expected_counts)
        if K == 0.0:
            for a, b in zip(got, want):
                assert same_bits(a, b)
            assert report == expected
            assert same_bits(low, expected_low)
            continue
        bound = summation_bound(family, stack)
        assert np.all(np.abs(got[0] - want[0]) <= bound)
        assert same_bits(got[2], want[2])
        unpinned = dict(min_margin_detected=None)
        assert dataclasses.replace(report, **unpinned) == dataclasses.replace(expected, **unpinned)
        a, b = report.min_margin_detected, expected.min_margin_detected
        assert (a is None) == (b is None)
        if b is not None:
            assert abs(a - b) <= bound.max() + 2 * math.ulp(b)


def test_generator_family_reports_non_finite_states_as_its_members_do():
    family = finite_family(3, 1.0)
    stack = np.stack([np.eye(3) / 3] * 3).astype(np.complex128)
    stack[1, 0, 2] = np.inf
    oracle = WitnessFamily(label=family.label, members=family.members)
    messages = []
    for source in (family, oracle):
        with pytest.raises(NonFiniteError) as exc:
            source.evaluate_batch(stack)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_non_finite_states_are_refused_before_the_member_stack_is_built(monkeypatch):
    family = finite_family(30)
    refuse_member_stack(monkeypatch)
    stack = np.zeros((3, 30, 30), dtype=np.complex128)
    stack[2, 4, 7] = complex(0.0, np.nan)
    with pytest.raises(NonFiniteError, match=r"^state 2 contains non-finite entries$"):
        family.evaluate_batch(stack)
