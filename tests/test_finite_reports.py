"""Finite inputs give finite reports or a CohwitError, library-wide.

Every constructor and sweep is driven with K, intervals, coefficients and
targets near the edges of the float range (±1e308, the largest double, the
subnormal 5e-324 and -0.0) as well as arbitrary finite floats.  Each call
either raises a ``CohwitError`` or returns objects whose every number is
finite: a witness's matrix, interval and margin, its reports on probe states,
a state's matrix and every field of a sweep report.  The
calls run under this suite's ``error::RuntimeWarning`` filter, so a call that
warns on its way to either outcome fails too.  The qubit geometry check's
warnings are recorded: it warns once, with NumericallyMarginalWarning,
exactly when it returns a report on a plane sqrt(a^2 + b^2) that is nonzero
but below 1e-9, and any other warning fails the property.  So are
tailored_witness's and qubit_pair_family's: at most one, a
NumericallyMarginalWarning.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohwit import (
    CohwitError,
    DensityMatrix,
    NumericallyMarginalWarning,
    Witness,
    WitnessFamily,
    canonical_coherent,
    canonical_witness,
    finite_family,
    generator_witness,
    incoherent_with_value,
    qubit_geometry_check,
    qubit_pair_family,
    qubit_witness,
    sample_ginibre,
    tailored_witness,
    verify_coverage,
    witness_for_state,
)

MAX = 1.7976931348623157e308
EXTREMES = [MAX, -MAX, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.0, -1.0]
REALS = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


def finite(value) -> bool:
    """Whether every number in a report, state or witness is finite."""
    if value is None or isinstance(value, (bool, int, str, np.bool_)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if isinstance(value, DensityMatrix):
        return finite(value.matrix)
    if isinstance(value, Witness):
        return finite((value.matrix, value.interval, value.detect_eps))
    if isinstance(value, WitnessFamily):
        return finite((value.detect_eps, value.members))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


def probe_states(d: int, seed: int) -> list[DensityMatrix]:
    return [DensityMatrix(np.eye(d) / d), canonical_coherent(d), sample_ginibre(d, seed)]


def at_most_one_marginal_warning(build, *args):
    """``build(*args)``, which may warn once, with NumericallyMarginalWarning,
    and in no other way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericallyMarginalWarning)
        result = build(*args)
    assert [c.category for c in caught] in ([], [NumericallyMarginalWarning])
    return result


def tailored(state, lo, hi):
    """tailored_witness, which warns at most once, with NumericallyMarginalWarning
    where a wide interval or a small anchor entry makes its scale exceed 1e9."""
    return at_most_one_marginal_warning(tailored_witness, state, lo, hi)


@st.composite
def witnesses(draw, d, seed):
    """A witness of every single-witness constructor, from edge inputs."""
    kind = draw(st.sampled_from(["canonical", "tailored", "generator", "for_state", "qubit"]))
    if kind in ("canonical", "tailored"):
        lo, hi = sorted((draw(REALS), draw(REALS)))
        if kind == "canonical":
            return canonical_witness(d, lo, hi)
        return tailored(draw(st.sampled_from(probe_states(d, seed)[1:])), lo, hi)
    if kind == "generator":
        return generator_witness(d, draw(REALS), draw(st.lists(REALS, min_size=d * d - 1, max_size=d * d - 1)))
    if kind == "for_state":
        return witness_for_state(draw(st.sampled_from(probe_states(d, seed)[1:])), draw(REALS))
    return qubit_witness(draw(REALS), draw(REALS), draw(REALS), draw(REALS))


@st.composite
def families(draw, d):
    if d == 2 and draw(st.booleans()):
        # It warns where its pair leaves a pure coherent state undetected.
        return at_most_one_marginal_warning(qubit_pair_family, *(draw(REALS) for _ in range(5)))
    return finite_family(d, draw(REALS), draw(st.lists(REALS, min_size=d * (d - 1), max_size=d * (d - 1))))


def outcome(build):
    """What ``build()`` returns, or None when it raises a CohwitError."""
    try:
        return build()
    except CohwitError:
        return None


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_finite_inputs_give_finite_reports_or_a_cohwit_error(data):
    kind = data.draw(st.sampled_from(["witness", "family", "incoherent", "geometry"]))
    seed = data.draw(st.integers(0, 2**32))
    d = data.draw(st.integers(2, 5))
    if kind in ("witness", "incoherent"):
        w = outcome(lambda: data.draw(witnesses(d, seed)))
        if w is None:
            return
        assert finite(w)
        d = w.dim  # a qubit witness is 2 x 2 whatever d was drawn
        for state in probe_states(d, seed):
            assert finite(outcome(lambda: w.evaluate(state)))
        if kind == "incoherent":
            target = data.draw(st.one_of(st.sampled_from(w.interval), REALS))
            assert finite(outcome(lambda: incoherent_with_value(w, target)))
    elif kind == "family":
        family = outcome(lambda: data.draw(families(d)))
        if family is None:
            return
        assert finite(family)
        d = family.dim
        for state in probe_states(d, seed):
            assert finite(outcome(lambda: family.evaluate(state)))
        n_states = data.draw(st.integers(0, 8))
        threshold = data.draw(REALS)
        assert finite(outcome(lambda: verify_coverage(family, n_states, seed, coherence_threshold=threshold)))
    else:
        K, a, b, c = (data.draw(REALS) for _ in range(4))
        grid = data.draw(st.integers(2, 6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NumericallyMarginalWarning)
            report = outcome(lambda: qubit_geometry_check(K, a, b, c, grid))
        assert finite(report)
        # A report on a qubit plane that is nonzero but below 1e-9 says so once.
        marginal = report is not None and 0.0 < math.hypot(a, b) < 1e-9
        assert [w.category for w in caught] == [NumericallyMarginalWarning] * marginal


def test_edge_values_reach_every_constructor():
    # The edge inputs are accepted where they make a valid witness, not
    # only refused: the property would pass vacuously otherwise.
    assert finite(canonical_witness(3, -0.0, 1e308))
    assert finite(generator_witness(2, -0.0, [5e-324, -0.0, 1e308]))
    assert finite(finite_family(2, 1e308, [5e-324, -MAX]))
    assert finite(qubit_pair_family(-0.0, 1e308, 0.0, 0.0, -1e308))
    assert finite(incoherent_with_value(canonical_witness(2, -1.0, 1e308), 1e308))
    assert finite(incoherent_with_value(canonical_witness(2, 5e-324, 5e-324), 5e-324))
    with pytest.warns(NumericallyMarginalWarning):
        assert finite(qubit_geometry_check(-0.0, 5e-324, -0.0, 1e308, 3))
    # An interval wider than the float range: hi - lo overflows.
    wide = Witness(np.diag([1e308, -1e308]))
    for target, probs in [(0.0, [0.5, 0.5]), (1e308, [1.0, 0.0]), (-1e308, [0.0, 1.0])]:
        state = incoherent_with_value(wide, target)
        assert state.matrix.diagonal().real.tolist() == probs
        assert wide.evaluate(state).value == target
