"""The state check's PSD step: a Cholesky certificate in front of eigvalsh.

A block of states whose shifted Cholesky factorization completes is accepted
without an eigensolve.  These tests check the bound that makes that sound (a
certified state always passes eigvalsh's test), that every state check gives
eigvalsh's verdicts and messages, and that no state check runs eigvalsh on
states the certificate accepts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohwit import (
    CohwitError,
    DensityMatrix,
    InvalidStateError,
    sample_ensemble,
    sample_ginibre,
    validate_states,
)
from cohwit.linalg import PSD_FLOOR, TRACE_DEV, _hermitian_part, _min_eigenvalues, _psd_certified
from cohwit.states import _ginibre_block, _validate


def state_with_min_eigenvalue(d: int, lam: float, seed: int) -> np.ndarray:
    """A unit-trace Hermitian matrix whose smallest eigenvalue is ``lam``,
    with a random eigenbasis and the other eigenvalues positive."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rest = rng.exponential(size=d - 1) + 1e-3
    spectrum = np.concatenate([[lam], rest * (1.0 - lam) / rest.sum()])
    return _hermitian_part(((Q * spectrum) @ Q.conj().T)[None])[0]


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([*range(2, 13), 28]),
    exponent=st.floats(np.log10(1e-12), np.log10(2e-9)),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_certified_state_passes_eigvalsh(d, exponent, sign, seed):
    H = state_with_min_eigenvalue(d, sign * 10.0**exponent, seed)[None]
    if _psd_certified(H):
        assert np.linalg.eigvalsh(H)[0, 0] >= -PSD_FLOOR


@pytest.mark.parametrize("d", [2, 4, 28])
def test_certificate_accepts_interior_states_and_refuses_past_the_shift(d):
    # Not vacuous: Ginibre states and a state at +PSD_FLOOR are certified.
    # A state below -PSD_FLOOR / 2 cannot be: H + PSD_FLOOR/2 * I has a
    # negative eigenvalue far beyond the factorization's backward error.
    assert _psd_certified(_hermitian_part(_ginibre_block(d, range(50))))
    assert _psd_certified(state_with_min_eigenvalue(d, PSD_FLOOR, 3)[None])
    for lam in (-0.6 * PSD_FLOOR, -0.99 * PSD_FLOOR, -1.01 * PSD_FLOOR, -0.5):
        assert not _psd_certified(state_with_min_eigenvalue(d, lam, 3)[None])


def outcome(check, stack):
    try:
        check(stack)
    except CohwitError as exc:
        return type(exc), str(exc)
    return None


def eigvalsh_outcome(stack, what="state {t}"):
    # The reference: eigvalsh's verdict on every state, the first failing
    # state named; the stack is Hermitian with unit traces.
    lam = np.linalg.eigvalsh(_hermitian_part(stack))[:, 0]
    bad = np.flatnonzero(lam < -PSD_FLOOR)
    if len(bad):
        t = int(bad[0])
        return InvalidStateError, f"{what.format(t=t)} is not PSD: min eigenvalue {float(lam[t])}"
    return None


# (d, number of states, {index: smallest eigenvalue}); the blocks hold 256
# states at d = 4 and 5 at d = 28, so the bad states sit in several blocks.
MIXED = [
    (4, 600, {}),
    (4, 600, {3: -0.5}),
    (4, 600, {300: -1.01 * PSD_FLOOR}),
    (4, 600, {300: -0.99 * PSD_FLOOR}),
    (4, 600, {10: -0.99 * PSD_FLOOR, 20: -1.01 * PSD_FLOOR, 599: -0.5}),
    (4, 600, {10: -0.99 * PSD_FLOOR, 520: -0.5}),
    (28, 12, {7: -0.99 * PSD_FLOOR}),
    (28, 12, {6: -0.99 * PSD_FLOOR, 8: -1.01 * PSD_FLOOR}),
    (28, 12, {11: -0.5}),
]


@pytest.mark.parametrize("d,n,bad", MIXED)
def test_sampler_check_matches_eigvalsh_verdicts_and_messages(d, n, bad):
    stack = _ginibre_block(d, range(n))
    for t, lam in bad.items():
        stack[t] = state_with_min_eigenvalue(d, lam, t)
    expected = eigvalsh_outcome(stack)
    assert outcome(validate_states, stack) == expected
    assert outcome(lambda s: _validate(s, "state {t}"), stack) == expected
    failing = sorted(t for t, lam in bad.items() if lam < -PSD_FLOOR)
    if failing:
        assert expected[0] is InvalidStateError
        assert expected[1].startswith(f"state {failing[0]} is not PSD: min eigenvalue ")
    else:
        assert expected is None


@st.composite
def unsampled_states(draw):
    """A trace-1, exactly Hermitian matrix that no sampler makes: a random
    eigenbasis, a diagonal of mixed scale, or a large off-diagonal pair, with
    its smallest eigenvalue near +-PSD_FLOOR or far below -PSD_FLOOR."""
    d = draw(st.integers(2, 8))
    lam = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12, np.log10(2e-9)))
    kind = draw(st.sampled_from(["eigenbasis", "diagonal", "off-diagonal"]))
    if kind == "eigenbasis":
        return state_with_min_eigenvalue(d, lam, draw(st.integers(0, 2**32 - 1)))
    M = np.zeros((d, d), np.complex128)
    j, k = draw(st.permutations(range(d)))[:2]
    if kind == "diagonal":
        # Entries (1 + lam, -lam) or (2**e, 1 - 2**e), which sum to 1 in any order.
        big = draw(st.sampled_from([1.0 + lam, *(2.0**e for e in range(-60, 53))]))
        M[j, j], M[k, k] = big, 1.0 - big
    else:
        # [[p, r], [r*, 1 - p]] has smallest eigenvalue about lam where
        # |r|**2 = p(1 - p) - lam, and about -1e6 where |r| = 1e6.
        p = draw(st.floats(0.01, 0.99))
        r = draw(st.sampled_from([np.sqrt(p * (1.0 - p) - lam), 1e6])) * np.exp(1j * draw(st.floats(0.0, 7.0)))
        M[j, j], M[k, k], M[j, k], M[k, j] = p, 1.0 - p, r, np.conj(r)
    return M


@settings(max_examples=300, deadline=None)
@given(M=unsampled_states())
def test_every_state_check_matches_eigvalsh_on_unsampled_states(M):
    assert abs(np.trace(M) - 1.0) <= TRACE_DEV  # so only the PSD step can refuse M
    assert outcome(validate_states, M[None]) == eigvalsh_outcome(M[None])
    assert outcome(DensityMatrix, M) == eigvalsh_outcome(M[None], "density matrix")


@pytest.mark.parametrize("d,n", [(2, 700), (4, 600), (28, 12)])
def test_min_eigenvalue_returns_the_eigvalsh_bits(d, n):
    stack = _ginibre_block(d, range(n))
    stack[1] = state_with_min_eigenvalue(d, -0.99 * PSD_FLOOR, 1)
    want = [max(lam, 0.0) for lam in _min_eigenvalues(_hermitian_part(stack)).tolist()]
    got = [DensityMatrix(M).min_eigenvalue for M in stack]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[1] == 0.0


def test_samplers_run_no_eigvalsh_on_certified_blocks(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for seed in (0, 1, 2024):
        sample_ensemble(4, 1000, seed)
        sample_ensemble(28, 40, seed)
        validate_states(sample_ensemble(4, 10, seed))
        rho = DensityMatrix(sample_ginibre(5, seed).matrix)
    assert calls == []
    rho.min_eigenvalue
    assert calls == [1]
