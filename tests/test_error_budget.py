"""One error budget: no diagonal state that validation accepts is Detected.

``DensityMatrix`` accepts a trace within ``TRACE_DEV`` of 1 and eigenvalues
down to ``-PSD_FLOOR``, so the value of such a diagonal state can leave a
witness's interval by up to the slack ``max(|lo|, |hi|) * TRACE_DEV +
(d - 1) * (hi - lo) * PSD_FLOOR``.  The verdict requires a margin above
``detect_eps`` plus that slack.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohwit import (
    DensityMatrix,
    InvalidStateError,
    Witness,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator_witness,
    qubit_pair_family,
    qubit_witness,
    sample_ginibre,
    sample_hermitian,
    tailored_witness,
    witness_for_state,
)
from cohwit.linalg import DETECT_EPS, PSD_FLOOR, TRACE_DEV
from cohwit.witness import _slack


@pytest.mark.parametrize(
    "witness,diagonal",
    [
        (canonical_witness(2, 10, 20), [1 + 5e-10, -5e-10]),
        (canonical_witness(4, 10, 20), [0, 0, 1 + 9e-10, 0]),
    ],
)
def test_accepted_diagonal_state_on_the_interval_edge_is_not_detected(witness, diagonal):
    report = witness.evaluate(DensityMatrix(np.diag(diagonal)))
    assert report.margin > DETECT_EPS  # outside the interval by more than detect_eps
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
    # (d - 1) * (hi - lo) overflows here although the slack is about 5e299;
    # lo - value overflows too, and the other side of the margin wins.
    matrix = np.diag([1e308, -1e308, 1e308]).astype(complex)
    matrix[0, 2] = matrix[2, 0] = 5e307
    plus = np.zeros((3, 3), dtype=complex)
    plus[np.ix_([0, 2], [0, 2])] = 0.5
    w = Witness(matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = w.evaluate(DensityMatrix(plus))
    assert report.margin == 5e307 and report.detected
    with np.errstate(over="ignore"):
        for bounds in (w._bounds, canonical_witness(3, 5e-324, 1.7976931348623157e308)._bounds):
            assert np.isfinite(_slack(bounds, 3)).all()


EDGE_TRACES = st.one_of(
    st.sampled_from([1 - TRACE_DEV, 1 + TRACE_DEV, 1.0, 1 - 0.999 * TRACE_DEV, 1 + 0.999 * TRACE_DEV]),
    st.floats(1 - TRACE_DEV, 1 + TRACE_DEV),
)
EDGE_ENTRIES = st.sampled_from([-PSD_FLOOR, -0.999 * PSD_FLOOR, -0.0, 0.0, 5e-324])
BIG = st.one_of(st.sampled_from([-1e6, -1.0, -0.0, 0.0, 1e-9, 1.0, 1e6]), st.floats(-1e6, 1e6))


@st.composite
def accepted_diagonal_states(draw, d):
    """A diagonal state that validation accepts, with entries and trace at
    the validation edges: some entries pinned at or near -PSD_FLOOR, the
    rest positive weights scaled to the drawn trace."""
    pinned = draw(st.lists(st.one_of(st.none(), EDGE_ENTRIES), min_size=d, max_size=d))
    free = [k for k, p in enumerate(pinned) if p is None]
    assume(free)
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=len(free), max_size=len(free))))
    p = np.array([0.0 if v is None else v for v in pinned])
    p[free] = weights / weights.sum() * (draw(EDGE_TRACES) - p.sum())
    try:
        return DensityMatrix(np.diag(p))
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
    """A witness or family of ``kind`` at dim d with an interval within about ±1e6."""
    seed = draw(st.integers(0, 2**32))
    if kind in ("canonical", "tailored"):
        lo, hi = sorted((draw(BIG), draw(BIG)))
        if kind == "canonical":
            return canonical_witness(d, lo, hi)
        return tailored_witness(sample_ginibre(d, seed), lo, hi)
    if kind == "generator":
        coeffs = draw(st.lists(st.floats(-1e3, 1e3), min_size=d * d - 1, max_size=d * d - 1))
        return generator_witness(d, draw(BIG), coeffs)
    if kind == "for_state":
        return witness_for_state(sample_ginibre(d, seed), draw(BIG))
    if kind == "family":
        nonzero = st.floats(-1e3, 1e3).filter(lambda c: c != 0.0)
        coeffs = draw(st.lists(nonzero, min_size=d * (d - 1), max_size=d * (d - 1)))
        return finite_family(d, draw(BIG), coeffs)
    if kind == "qubit":
        a, b, c = draw(BIG), draw(BIG), draw(BIG)
        assume(a != 0.0 or b != 0.0 or c != 0.0)
        return qubit_witness(draw(BIG), a, b, c)
    if kind == "qubit_pair":
        a1, b1, a2, b2 = (draw(BIG) for _ in range(4))
        assume(a1 * b2 - a2 * b1 != 0.0)
        return qubit_pair_family(draw(BIG), a1, b1, a2, b2)
    return Witness(draw(st.floats(1e-3, 3e5)) * sample_hermitian(d, seed))


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_no_accepted_diagonal_state_is_detected(data):
    kind = data.draw(st.sampled_from(CONSTRUCTORS))
    d = 2 if kind.startswith("qubit") else data.draw(st.integers(2, 8))
    source = data.draw(witnesses(kind, d))
    state = data.draw(accepted_diagonal_states(d))
    _, _, detected = source.evaluate_batch(state.matrix[None])
    assert not detected.any()
