import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import (
    DensityMatrix,
    DimensionMismatchError,
    GeneratorBasis,
    IndexOutOfRangeError,
    InvalidParameterError,
    LengthMismatchError,
    bloch_vector,
    generator,
    generator_basis,
    l1_coherence,
    offdiag_support,
    qubit_state,
    sample_ginibre,
    sample_incoherent,
    state_from_bloch,
    trace_product,
)
from cohwit import linalg, verify
from cohwit.generators import basis_bytes, generator_bytes

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_qubit_generator_order_is_z_x_y():
    assert np.array_equal(generator(2, 1), SZ)
    assert np.array_equal(generator(2, 2), SX)
    assert np.array_equal(generator(2, 3), SY)


def test_qutrit_second_diagonal_generator():
    assert np.allclose(generator(3, 2), np.diag([1, 1, -2]) / math.sqrt(3), atol=1e-15)


@pytest.mark.parametrize("d,i", [(2, 0), (2, 4), (3, 9), (5, -1)])
def test_generator_index_out_of_range(d, i):
    with pytest.raises(IndexOutOfRangeError):
        generator(d, i)


def test_negative_dim_generator_keeps_its_error():
    with pytest.raises(DimensionMismatchError, match=r"^generator basis needs dim >= 2, got -3$"):
        generator(-3, 1)


@pytest.mark.parametrize("d", range(2, 9))
def test_generator_is_bit_equal_to_its_basis_entry(d):
    basis = generator_basis(d).matrices
    for i in range(1, d * d):
        g = generator(d, i)
        assert g.dtype == basis[i - 1].dtype and g.tobytes() == basis[i - 1].tobytes()
        assert not g.flags.writeable


def test_generator_builds_one_matrix_not_the_basis():
    generator_basis.cache_clear()
    tracemalloc.start()
    try:
        generator(30, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the d = 30 basis is about 13 MB


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_basis_orthonormality_hermiticity_tracelessness(d):
    b = generator_basis(d)
    assert len(b.matrices) == d * d - 1
    for i, gi in enumerate(b.matrices):
        assert np.max(np.abs(gi - gi.conj().T)) <= 1e-12
        assert abs(np.trace(gi)) <= 1e-12
        for j, gj in enumerate(b.matrices):
            want = 2.0 if i == j else 0.0
            assert abs(trace_product(gi, gj) - want) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_basis_block_partition(d):
    b = generator_basis(d)
    n_pairs = d * (d - 1) // 2
    diag_block = b.matrices[: d - 1]
    u_block = b.matrices[d - 1 : d - 1 + n_pairs]
    v_block = b.matrices[d - 1 + n_pairs :]
    assert len(diag_block) == d - 1
    assert len(u_block) == n_pairs
    assert len(v_block) == n_pairs
    for g in diag_block:
        assert np.count_nonzero(g - np.diag(np.diagonal(g))) == 0
    for g in u_block:
        assert np.count_nonzero(np.diagonal(g)) == 0
        assert np.max(np.abs(g.imag)) == 0
    for g in v_block:
        assert np.count_nonzero(np.diagonal(g)) == 0
        assert np.max(np.abs(g.real)) == 0


def test_bloch_vector_diagonal_pure_state():
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(bloch_vector(rho), [1, 0, 0], atol=1e-15)


def test_bloch_vector_plus_state():
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    assert np.allclose(bloch_vector(rho), [0, 1, 0], atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bloch_vector_maximally_mixed_is_zero(d):
    rho = DensityMatrix(np.eye(d, dtype=complex) / d)
    assert np.max(np.abs(bloch_vector(rho))) <= 1e-15


def test_state_from_bloch_zero_vector():
    assert np.allclose(state_from_bloch(2, [0, 0, 0]), np.eye(2) / 2)


def test_state_from_bloch_plus_state():
    assert np.allclose(state_from_bloch(2, [0, 1, 0]), np.full((2, 2), 0.5))


def test_state_from_bloch_length_mismatch():
    with pytest.raises(LengthMismatchError):
        state_from_bloch(3, [0, 1, 0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_bloch_roundtrip(seed):
    d = 2 + seed % 4
    rho = sample_ginibre(d, seed)
    back = state_from_bloch(d, bloch_vector(rho))
    assert np.max(np.abs(back - rho.matrix)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bloch_norm_bound(d):
    bound = math.sqrt(d * (d - 1) / 2) + 1e-9
    for t in range(1000):
        r = bloch_vector(sample_ginibre(d, 9000 + t))
        assert np.linalg.norm(r) <= bound


def test_offdiag_support_incoherent_empty():
    rho = DensityMatrix(np.eye(3, dtype=complex) / 3)
    assert offdiag_support(rho) == set()


def test_offdiag_support_plus_state():
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    assert offdiag_support(rho) == {2}


def test_offdiag_support_imaginary_entry_loads_v_index():
    rho = DensityMatrix(np.array([[0.5, 0.2j], [-0.2j, 0.5]]))
    assert offdiag_support(rho) == {3}


def test_support_empty_iff_l1_small():
    # Cross-check against the l1 oracle over both ensembles.
    for t in range(100):
        rho = sample_ginibre(3, 40_000 + t)
        assert offdiag_support(rho) != set()
        assert l1_coherence(rho) > 1e-6
    for t in range(100):
        delta = sample_incoherent(3, 41_000 + t).as_density_matrix()
        assert offdiag_support(delta) == set()
        assert l1_coherence(delta) <= 3 * 1e-9


def test_qubit_state_matches_bloch_expansion():
    rho = qubit_state(0.3, -0.4, 0.5)
    assert np.allclose(rho.matrix, state_from_bloch(2, [0.5, 0.3, -0.4]), atol=1e-15)


def test_basis_holds_each_generator_once():
    tracemalloc.start()
    try:
        basis = GeneratorBasis(30)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * basis.stack.nbytes
    assert all(m.base is basis.stack for m in basis.matrices)


def test_basis_is_memoized_and_read_only():
    b1 = generator_basis(4)
    b2 = generator_basis(4)
    assert b1 is b2
    with pytest.raises(ValueError):
        b1.matrices[0][0, 0] = 9.0
    with pytest.raises(ValueError):
        b1.stack[0, 0, 0] = 9.0


def test_basis_cache_holds_one_basis():
    generator_basis.cache_clear()
    tracemalloc.start()
    try:
        for d in (20, 25, 30):
            generator_basis(d)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        generator_basis.cache_clear()
    # The d = 30 stack is 12.9 MB; the three bases together are 21.7 MB.
    assert held <= 1.1 * basis_bytes(30)


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [2, 3, 5, 12, 30])
def test_memory_estimates_cover_the_traced_peak(d):
    assert traced_peak(lambda: GeneratorBasis(d)) <= basis_bytes(d)
    for i in (1, d - 1, d, d * d - 1):
        assert traced_peak(lambda: generator(d, i)) <= generator_bytes(d)


def test_generator_estimate_covers_the_traced_peak_at_large_d():
    assert traced_peak(lambda: generator(300, 400)) <= generator_bytes(300)


def test_estimates_place_the_cap():
    assert verify.MAX_COVERAGE_BYTES is linalg.MAX_COVERAGE_BYTES
    assert basis_bytes(90) <= linalg.MAX_COVERAGE_BYTES < basis_bytes(91)  # 1.10 GB at d = 91
    assert generator_bytes(3344) <= linalg.MAX_COVERAGE_BYTES < generator_bytes(3345)
    assert generator_bytes(10**5) > linalg.MAX_COVERAGE_BYTES  # the coefficient row alone is 80 GB


def test_oversized_basis_and_generator_are_refused(monkeypatch):
    # A lowered cap refuses small requests, so no refused request is large.
    generator_basis.cache_clear()
    monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", basis_bytes(4))
    assert GeneratorBasis(4).size == 15
    for build in (lambda: GeneratorBasis(5), lambda: generator_basis(5)):
        with pytest.raises(InvalidParameterError, match="the generator basis at d=5 needs about"):
            build()
    monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", generator_bytes(4))
    assert generator(4, 1).shape == (4, 4)
    with pytest.raises(InvalidParameterError, match="generator 1 at d=5 needs about"):
        generator(5, 1)
    generator_basis.cache_clear()
