import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import (
    NotHermitianError,
    is_hermitian,
    min_eigenvalue,
    sample_hermitian,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_is_hermitian_real_symmetric():
    assert is_hermitian(SX)


def test_is_hermitian_rejects_symmetric_imaginary():
    # [[0, i], [i, 0]]: entry (0,1) is not the conjugate of (1,0)
    assert not is_hermitian(np.array([[0, 1j], [1j, 0]]))


def test_is_hermitian_deviation_below_tol():
    A = np.array([[0, 1 + 1e-12j], [1, 0]])
    assert is_hermitian(A)
    # HERMITICITY_TOL is 1e-10: a deviation of 1e-9 is past it.
    assert not is_hermitian(np.array([[0, 1 + 1e-9j], [1, 0]]))


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(-1)


def test_min_eigenvalue_rank_one_projector():
    assert min_eigenvalue(np.full((2, 2), 0.5, dtype=complex)) == pytest.approx(0, abs=1e-12)


def test_min_eigenvalue_two_by_two_quadratic():
    # Eigenvalues of [[1, 1.5], [1.5, 0]] solve x^2 - x - 2.25 = 0.
    expected = (1 - math.sqrt(10)) / 2
    assert min_eigenvalue(np.array([[1, 1.5], [1.5, 0]], dtype=complex)) == pytest.approx(
        expected, abs=1e-10
    )


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        min_eigenvalue(np.array([[0, 1j], [1j, 0]]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    c=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_min_eigenvalue_identity_shift(seed, c):
    d = 2 + seed % 4
    A = sample_hermitian(d, seed)
    assert min_eigenvalue(A + c * np.eye(d)) == pytest.approx(min_eigenvalue(A) + c, abs=1e-9)


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        is_hermitian(np.array([[np.nan, 0], [0, 0]], dtype=complex))
