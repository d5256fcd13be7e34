import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import (
    DensityMatrix,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParameterError,
    LengthMismatchError,
    bloch_vector,
    generator,
    l1_coherence,
    qubit_state,
    sample_ginibre,
    sample_incoherent,
    state_from_bloch,
)
from cohwit import linalg, verify
from cohwit.generators import _qubit_matrices, generator_bytes

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


def basis_entry(d, i):
    """The i-th generalized Gell-Mann matrix (1-based) written out on its own."""
    m = np.zeros((d, d), dtype=np.complex128)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    if i < d:
        coeff = math.sqrt(2.0 / (i * (i + 1)))
        for a in range(i):
            m[a, a] = coeff
        m[i, i] = -i * coeff
    elif i < d + len(pairs):
        j, k = pairs[i - d]
        m[j, k] = m[k, j] = 1.0
    else:
        j, k = pairs[i - d - len(pairs)]
        m[j, k] = complex(0.0, -1.0)  # the literal -1.0j has a real part of -0.0
        m[k, j] = 1.0j
    return m


@pytest.mark.parametrize("d", range(2, 9))
def test_generator_is_bit_equal_to_its_basis_entry(d):
    for i in range(1, d * d):
        g, want = generator(d, i), basis_entry(d, i)
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
        assert not g.flags.writeable


def test_generator_builds_one_matrix_not_the_basis():
    tracemalloc.start()
    try:
        generator(30, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # all d = 30 generators stacked are about 13 MB


def generators(d):
    return [generator(d, i) for i in range(1, d * d)]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_basis_orthonormality_hermiticity_tracelessness(d):
    basis = generators(d)
    for i, gi in enumerate(basis):
        assert np.max(np.abs(gi - gi.conj().T)) <= 1e-12
        assert abs(np.trace(gi)) <= 1e-12
        for j, gj in enumerate(basis):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(gi @ gj) - want) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_basis_block_partition(d):
    basis = generators(d)
    n_pairs = d * (d - 1) // 2
    diag_block = basis[: d - 1]
    u_block = basis[d - 1 : d - 1 + n_pairs]
    v_block = basis[d - 1 + n_pairs :]
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


def offdiag_support(rho):
    """The 1-based generator indices i >= d whose Bloch component is nonzero."""
    return set((np.flatnonzero(bloch_vector(rho)[rho.dim - 1 :]) + rho.dim).tolist())


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
    # Cross-check against the l1 oracle over both ensembles: a diagonal
    # state loads no off-diagonal index and has l1 coherence exactly 0.
    for t in range(100):
        rho = sample_ginibre(3, 40_000 + t)
        assert offdiag_support(rho) != set()
        assert l1_coherence(rho) > 1e-6
    for t in range(100):
        delta = sample_incoherent(3, 41_000 + t)
        assert offdiag_support(delta) == set()
        assert l1_coherence(delta) == 0.0


def test_qubit_state_matches_bloch_expansion():
    rho = qubit_state(0.3, -0.4, 0.5)
    assert np.allclose(rho.matrix, state_from_bloch(2, [0.5, 0.3, -0.4]), atol=1e-15)


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [2, 3, 5, 12, 30])
def test_memory_estimates_cover_the_traced_peak(d):
    for i in (1, d - 1, d, d * d - 1):
        assert traced_peak(lambda: generator(d, i)) <= generator_bytes(d)


def test_generator_estimate_covers_the_traced_peak_at_large_d():
    assert traced_peak(lambda: generator(300, 400)) <= generator_bytes(300)


def test_estimates_place_the_cap():
    assert verify.MAX_COVERAGE_BYTES is linalg.MAX_COVERAGE_BYTES
    assert generator_bytes(3344) <= linalg.MAX_COVERAGE_BYTES < generator_bytes(3345)
    assert generator_bytes(10**5) > linalg.MAX_COVERAGE_BYTES  # the coefficient row alone is 80 GB


def test_oversized_generator_is_refused(monkeypatch):
    # A lowered cap refuses small requests, so no refused request is large.
    monkeypatch.setattr(linalg, "MAX_COVERAGE_BYTES", generator_bytes(4))
    assert generator(4, 1).shape == (4, 4)
    with pytest.raises(InvalidParameterError, match="generator 1 at d=5 needs about"):
        generator(5, 1)


def test_pauli_matrices_do_not_depend_on_the_batch_length():
    # numpy picks its complex-multiply loop by length and alignment, and
    # some loops give a zero the other sign; the qubit witness and state are
    # built one point at a time, the bloch lattice as one batch.
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, 1e308, -2.5]
    K, a, b, c = (np.ravel(g) for g in np.meshgrid(edges, edges, edges, edges, indexing="ij"))
    batch = _qubit_matrices(K, a, b, c)
    single = np.concatenate([_qubit_matrices(*point) for point in zip(K.tolist(), a.tolist(), b.tolist(), c.tolist())])
    assert batch.shape == (9**4, 2, 2)
    assert np.array_equal(batch.view(np.int64), single.view(np.int64))
