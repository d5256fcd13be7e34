"""The samplers' PSD step: a Cholesky certificate in front of eigvalsh.

A block of sampled states whose shifted Cholesky factorization completes is
accepted without an eigensolve.  These tests check the bound that makes that
sound (a certified state always passes eigvalsh's test), that the samplers'
check and validate_states give the same verdicts and messages, and that the
samplers run no eigvalsh on states the certificate accepts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohwit import CohwitError, InvalidStateError, sample_ensemble, sample_ginibre_batch, validate_states
from cohwit.linalg import PSD_FLOOR, _hermitian_part, _min_eigenvalues, _psd_certified
from cohwit.states import _check_sampled, _ginibre_block


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
    expected = outcome(validate_states, stack)
    assert outcome(lambda s: _check_sampled(s, "state {t}"), stack) == expected
    failing = sorted(t for t, lam in bad.items() if lam < -PSD_FLOOR)
    if failing:
        assert expected[0] is InvalidStateError
        assert expected[1].startswith(f"state {failing[0]} is not PSD: min eigenvalue ")
    else:
        assert expected is None


@pytest.mark.parametrize("d,n", [(2, 700), (4, 600), (28, 12)])
def test_validate_states_returns_the_eigvalsh_bits(d, n):
    stack = _ginibre_block(d, range(n))
    stack[1] = state_with_min_eigenvalue(d, -0.99 * PSD_FLOOR, 1)
    lam = validate_states(stack)
    assert lam.tobytes() == _min_eigenvalues(_hermitian_part(stack)).tobytes()


def test_samplers_run_no_eigvalsh_on_certified_blocks(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for seed in (0, 1, 2024):
        sample_ensemble(4, 1000, seed)
        sample_ginibre_batch(28, range(seed, seed + 20))
    assert calls == []
    validate_states(sample_ensemble(4, 10, 0))
    assert calls == [1]
