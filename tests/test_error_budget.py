"""One error budget: no diagonal state that validation accepts is Detected.

``DensityMatrix`` and ``Witness`` accept imaginary diagonal parts up to
``HERMITICITY_TOL / 2``, and a state's trace within ``TRACE_DEV`` of 1 and
eigenvalues down to ``-PSD_FLOOR``, so the computed value of such a diagonal
state can leave a witness's interval by up to the slack ``max(|lo|, |hi|) *
(TRACE_DEV + d * 2**-51) + (d - 1) * (hi * PSD_FLOOR - lo * PSD_FLOOR) + d *
HERMITICITY_TOL**2 / 2`` (``witness._slack``).  The verdict requires a margin
above ``detect_eps`` plus that slack, so none is Detected at any
``detect_eps``, zero included.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_finite_reports import tailored

from cohwit import (
    CohwitError,
    DensityMatrix,
    InvalidStateError,
    NumericallyMarginalWarning,
    Witness,
    WitnessFamily,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator_witness,
    qubit_pair_family,
    qubit_witness,
    sample_ginibre,
    sample_hermitian,
    witness_for_state,
)
from cohwit.linalg import DETECT_EPS, HERMITICITY_TOL, PSD_FLOOR, TRACE_DEV
from cohwit.witness import _slack


@pytest.mark.parametrize(
    "witness,diagonal",
    [
        (canonical_witness(2, 10, 20), [1 + 5e-10, -5e-10]),
        (canonical_witness(4, 10, 20), [0, 0, 1 + 9e-10, 0]),
        # The computed trace is 1 - TRACE_DEV, which uses the whole TRACE_DEV
        # term of the slack; the value's rounding, 4e-16 past it, is covered
        # by the d * 2**-51 term.
        (Witness(5 * np.eye(2), 0.0), [0.749999999, 0.25]),
    ],
)
def test_accepted_diagonal_state_on_the_interval_edge_is_not_detected(witness, diagonal):
    report = witness.evaluate(DensityMatrix(np.diag(diagonal)))
    assert report.margin > DETECT_EPS  # outside the interval by more than the default detect_eps
    assert not report.detected


def test_family_does_not_detect_a_diagonal_state_at_the_trace_edge():
    family = finite_family(4, 37.0)
    state = DensityMatrix(np.diag([(1 + 5e-10) / 4] * 4))
    assert family.evaluate_batch(state.matrix[None])[1].max() > DETECT_EPS
    assert not family.detects(state)
    assert family.detect_eps == (DETECT_EPS,) * 12  # the margin reports print is unchanged


def test_detection_beyond_the_slack_is_kept():
    # The canonical witness still detects its own coherent state, one unit
    # out, with a slack of 7e-3 on the interval [-1e6, 1e6].
    report = canonical_witness(4, -1e6, 1e6).evaluate(canonical_coherent(4))
    assert report.margin == 1.0 and report.detected


def test_wide_interval_keeps_a_finite_slack_and_detects():
    # hi - lo overflows here although the slack is about 5e299; lo - value
    # overflows too, and the other side of the margin wins.
    matrix = np.diag([1e308, -1e308, 1e308]).astype(complex)
    matrix[0, 2] = matrix[2, 0] = 5e307
    plus = np.zeros((3, 3), dtype=complex)
    plus[np.ix_([0, 2], [0, 2])] = 0.5
    w = Witness(matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = w.evaluate(DensityMatrix(plus))
    assert report.margin == 5e307 and report.detected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bounds in (w._bounds, canonical_witness(3, 5e-324, 1.7976931348623157e308)._bounds):
            assert np.isfinite(_slack(bounds, 3)).all()


def test_margin_past_the_float_range_detects_nothing_without_a_warning():
    # detect_eps + slack overflows: no finite margin clears it.
    w = Witness(np.array([[1e308, 1e308], [1e308, 0.0]]), 1.7976931348623157e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = w.evaluate(DensityMatrix(np.full((2, 2), 0.5)))
    assert report.margin == 5e307 and not report.detected


@pytest.mark.parametrize("d", [2, 8192])
def test_slack_of_the_widest_interval_is_finite_without_a_warning(d):
    bounds = np.array([[-1.7976931348623157e308], [1.7976931348623157e308], [DETECT_EPS]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slack = _slack(bounds, d)
    assert np.isfinite(slack).all() and (slack >= 0.0).all()


EDGE_TRACES = st.one_of(
    st.sampled_from([1 - TRACE_DEV, 1 + TRACE_DEV, 1.0, 1 - 0.999 * TRACE_DEV, 1 + 0.999 * TRACE_DEV]),
    st.floats(1 - TRACE_DEV, 1 + TRACE_DEV),
)
EDGE_ENTRIES = st.sampled_from([-PSD_FLOOR, -0.999 * PSD_FLOOR, -0.0, 0.0, 5e-324])
# A witness's scale, from 1e-300 to 1e300, times its parameters drawn from UNIT.
SCALES = st.one_of(
    st.sampled_from([1e-300, 1e-9, 1.0, 1e6, 1e300]), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
)
UNIT = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1e-9, 1.0]), st.floats(-1.0, 1.0))
# Imaginary diagonal parts up to the HERMITICITY_TOL / 2 that validation accepts.
HALF_TOL = HERMITICITY_TOL / 2
IMAG = st.one_of(
    st.sampled_from([-HALF_TOL, -0.999 * HALF_TOL, 0.0, 0.999 * HALF_TOL, HALF_TOL]), st.floats(-HALF_TOL, HALF_TOL)
)
EPS = st.one_of(st.sampled_from([0.0, DETECT_EPS]), st.floats(0.0, allow_infinity=False))


def tiled(draw, values, n):
    """n values: a drawn list of at most 8, repeated, so each is drawn
    independently where n <= 8."""
    return np.resize(draw(st.lists(values, min_size=1, max_size=min(n, 8))), n)


@st.composite
def accepted_diagonal_states(draw, d):
    """A diagonal state that validation accepts, with entries and trace at
    the validation edges: some entries pinned at or near -PSD_FLOOR, the
    rest, one drawn index at least, positive weights scaled to the drawn
    trace: an all-pinned diagonal cannot reach it.  Its imaginary diagonal
    parts come in pairs (e, -e), so its trace stays within TRACE_DEV of 1."""
    pinned = tiled(draw, st.one_of(st.none(), EDGE_ENTRIES), d).astype(object)
    pinned[draw(st.integers(0, d - 1))] = None
    free = [k for k, p in enumerate(pinned) if p is None]
    weights = tiled(draw, st.floats(1e-6, 1.0), len(free))
    p = np.array([0.0 if v is None else v for v in pinned])
    p[free] = weights / weights.sum() * (draw(EDGE_TRACES) - p.sum())
    half = tiled(draw, IMAG, d // 2)
    imag = np.zeros(d)
    imag[: 2 * len(half)] = np.stack([half, -half], axis=1).ravel()
    try:
        return DensityMatrix(np.diag(p + 1j * imag))
    except InvalidStateError:
        assume(False)


CONSTRUCTORS = [
    "canonical",
    "tailored",
    "generator",
    "for_state",
    "family",
    "qubit",
    "qubit_pair",
    "hermitian",
]


@st.composite
def witnesses(draw, kind, d):
    """A witness or family of ``kind`` at dim d, its parameters scaled by one
    drawn scale; one that its constructor refuses is not drawn."""
    s, seed = draw(SCALES), draw(st.integers(0, 2**32))

    def big():
        return s * draw(UNIT)

    try:
        if kind in ("canonical", "tailored"):
            lo, hi = sorted((big(), big()))
            if kind == "canonical":
                return canonical_witness(d, lo, hi)
            return tailored(sample_ginibre(d, seed), lo, hi)
        if kind == "generator":
            return generator_witness(d, big(), s * tiled(draw, UNIT, d * d - 1))
        if kind == "for_state":
            return witness_for_state(sample_ginibre(d, seed), big())
        if kind == "family":
            nonzero = UNIT.filter(lambda c: c != 0.0)
            return finite_family(d, big(), s * tiled(draw, nonzero, d * (d - 1)))
        if kind == "qubit":
            return qubit_witness(big(), big(), big(), big())
        if kind == "qubit_pair":
            params = [big() for _ in range(5)]
            # Containment holds for a pair that misses a coherent state too.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericallyMarginalWarning)
                return qubit_pair_family(*params)
        return Witness(s * sample_hermitian(d, seed))
    except CohwitError:
        assume(False)


def held(source, imag, eps):
    """``source`` with every margin ``eps`` and ``imag`` added to the
    imaginary part of each member's diagonal, as one member table.  The
    built-in family's closed form reads a real diagonal; it only takes eps."""
    if not source._holds_matrices:
        source._bounds[2] = eps
        return source
    stack = source._stack + 1j * np.diag(imag)
    return WitnessFamily._from_stack("held", stack, [eps] * len(stack))


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_no_accepted_diagonal_state_is_detected(data):
    kind = data.draw(st.sampled_from(CONSTRUCTORS))
    d = 2 if kind.startswith("qubit") else data.draw(st.integers(2, 8 if kind == "family" else 64))
    source = data.draw(witnesses(kind, d))
    source = held(source, tiled(data.draw, IMAG, d), data.draw(EPS))
    state = data.draw(accepted_diagonal_states(d))
    _, _, detected = source.evaluate_batch(state.matrix[None])
    assert not detected.any()


@pytest.mark.parametrize("d", [2, 5, 28, 200])
@pytest.mark.parametrize("scale", [1e-300, 1e-9, 1.0, 3e5, 1e300])
def test_every_vertex_evaluates_to_its_diagonal_entry_bit_for_bit(d, scale):
    # |k><k| has the extreme values of the interval: a product with 1, then
    # sums with zeros, so the kernel returns Re W_kk exactly.
    diag_imag = np.resize([HALF_TOL, -HALF_TOL, 0.0], d)
    dense = Witness(scale * sample_hermitian(d, 900 + d) + 1j * np.diag(diag_imag), 0.0)
    families = [finite_family(d, K * scale, scale * np.ones(d * (d - 1))) for K in (0.0, 37.0, -2.5)]
    for source in [dense, *families]:
        if source._holds_matrices:
            want = source._stack.diagonal(axis1=1, axis2=2).real
        else:  # the built-in family, whose every diagonal entry is its interval's K/d
            want = np.repeat(source._bounds[:1].T, d, axis=1)
        for start in range(0, d, 16):
            k = np.arange(start, min(start + 16, d))
            vertices = np.zeros((len(k), d, d), dtype=np.complex128)
            vertices[np.arange(len(k)), k, k] = 1.0
            values, margins, detected = source.evaluate_batch(vertices)
            assert values.tobytes() == want[:, k].tobytes()
            assert (margins <= 0.0).all() and not detected.any()
