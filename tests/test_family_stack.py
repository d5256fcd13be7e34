"""Family documents as one member stack.

``gen --kind family`` writes its member documents from the family's member
stack and ``verify --family`` reads every member at once; neither builds a
Witness.  The one document reader is checked against a reference written out
here: the per-document reader it replaced, which reads one member at a time
and builds one Witness per member.  The generator stack is checked against
``generator_witness``.
"""

import contextlib
import hashlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _defect, matrix_documents, witness_documents

from cohwit import (
    CohwitError,
    DensityMatrix,
    DocumentError,
    NotHermitianError,
    Witness,
    WitnessFamily,
    finite_family,
    generator_witness,
    witness,
)
from cohwit.cli import (
    _KINDS,
    INTERVAL_DOC_TOL,
    _num,
    family_from_document,
    run,
    state_from_document,
    witness_from_document,
)
from cohwit.linalg import DETECT_EPS

# test_golden.py's pin of `gen --kind family --d 5 --K -2.5`.
FAMILY_D5_SHA256 = "2dcf714d660e5365c459587613844b7fe5317b12b5f86ae2c707547a1fd20ef7"


def bits(a) -> list:
    return np.ascontiguousarray(a).view(np.int64).tolist()  # signed zeros kept


# --- the reference reader -------------------------------------------------------


def reference_matrix(doc, what):
    """A matrix document read one entry at a time."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise DocumentError(f"{what}.dim: expected an integer >= 2, got {dim!r}")
    if dim * dim > sys.maxsize:
        raise DocumentError(f"{what}.dim: a {dim.bit_length()}-bit dim is too large")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        got = len(entries) if isinstance(entries, list) else entries
        raise DocumentError(f"{what}.entries: expected {dim * dim} complex pairs, got {got!r}")
    flat = np.empty(dim * dim, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"{what}.entries[{i}]: expected a [re, im] pair, got {pair!r}")
        flat[i] = complex(_num(pair[0], f"{what}.entries[{i}][0]"), _num(pair[1], f"{what}.entries[{i}][1]"))
    return flat.reshape(dim, dim)


def reference_state(doc) -> DensityMatrix:
    M = reference_matrix(doc, "state")
    try:
        return DensityMatrix(M)
    except CohwitError as exc:
        raise DocumentError(f"state: {exc}") from exc


def reference_witness(doc) -> Witness:
    """A witness document read into its own Witness."""
    M = reference_matrix(doc, "witness")
    eps = _num(doc.get("detect_eps", DETECT_EPS), "witness.detect_eps")
    if eps < 0:
        raise DocumentError(f"witness.detect_eps: must be nonnegative, got {eps}")
    kind = doc.get("kind", "custom")
    if kind not in _KINDS:
        raise DocumentError(f"witness.kind: unknown kind {kind!r}")
    try:
        w = Witness(M, eps)
    except NotHermitianError as exc:
        raise DocumentError(f"witness.entries: {exc}") from exc
    interval = doc.get("interval")
    if not isinstance(interval, list) or len(interval) != 2:
        raise DocumentError(f"witness.interval: expected [lo, hi], got {interval!r}")
    for idx, (stored, derived) in enumerate(zip(interval, w.interval)):
        stored = _num(stored, f"witness.interval[{idx}]")
        if abs(stored - derived) > INTERVAL_DOC_TOL:
            raise DocumentError(
                f"witness.interval[{idx}]: stored {stored} inconsistent with "
                f"diagonal-derived {derived}"
            )
    return w


def per_member_family(doc) -> WitnessFamily:
    """The reader that builds one Witness per member document."""
    if "members" not in doc:
        return WitnessFamily(label=str(doc.get("kind", "custom")), members=(reference_witness(doc),))
    return WitnessFamily(label=doc["label"], members=tuple(reference_witness(m) for m in doc["members"]))


def outcome(read, doc):
    try:
        with np.errstate(all="ignore"):  # as cli.run reads documents
            got = read(doc)
    except CohwitError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(got, DensityMatrix):
        return ("ok", bits(got.matrix))
    return ("ok", getattr(got, "label", None), bits(got._stack), bits(got._bounds))


def assert_readers_agree(doc):
    got = outcome(family_from_document, doc)
    assert got == outcome(per_member_family, doc)
    if got[0] == "ok":
        assert "members" not in vars(family_from_document(doc))  # read as one stack
    return got


# --- round trip without Witness objects ---------------------------------------


def test_family_round_trip_builds_no_witness(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a Witness was built")

    out = tmp_path / "doc.json"
    with monkeypatch.context() as patch:
        patch.setattr(witness.Witness, "__init__", refuse)
        assert run(["gen", "--kind", "family", "--d", "5", "--K", "-2.5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FAMILY_D5_SHA256
        assert run(["verify", "--d", "5", "--samples", "40", "--seed", "1", "--K", "-2.5", "--family", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"
    # The members, built on demand, are the ones the document spells out.
    family = family_from_document(json.loads(out.read_text()))
    built = finite_family(5, -2.5)
    for w, v in zip(family.members, built.members, strict=True):
        assert bits(w.matrix) == bits(v.matrix)
        assert (w.interval, w.detect_eps) == (v.interval, v.detect_eps)


@pytest.mark.parametrize("K", [-2.5, -1.0, 0.0, 1.0, 37.0, 1e6])
@pytest.mark.parametrize("d", range(2, 13))
def test_generator_stack_matches_generator_witness(d, K):
    n = d * (d - 1)
    coeffs = np.random.default_rng(d).uniform(0.5, 2.0, n) * np.where(np.arange(n) % 3, 1.0, -1.0)
    family = finite_family(d, K, coeffs)
    assert "members" not in vars(family)
    assert family._stack.shape == (n, d, d) and not family._stack.flags.writeable
    for t in range(n):
        eta = np.zeros(d * d - 1)
        eta[d - 1 + t] = coeffs[t]
        w = generator_witness(d, K, eta)
        assert bits(family._stack[t]) == bits(w.matrix)
        assert bits(family._bounds[:, t]) == bits([*w.interval, w.detect_eps])
    assert "members" not in vars(family)  # the stack builds no member


# --- the reader against the reference ---------------------------------------


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_state_reader_matches_reference(data):
    doc = data.draw(matrix_documents(data.draw(st.sampled_from([1, 2, 3, 4])), hermitian=False))
    doc = json.loads(json.dumps(doc))  # as a document reads back
    assert outcome(state_from_document, doc) == outcome(reference_state, doc)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_witness_reader_matches_reference(data):
    doc = json.loads(json.dumps(data.draw(witness_documents(data.draw(st.sampled_from([1, 2, 3, 4]))))))
    assert outcome(witness_from_document, doc) == outcome(reference_witness, doc)


@st.composite
def member_lists(draw):
    """A family document of 1 to 4 members, each possibly defective, whose
    dims may differ."""
    dim = draw(st.sampled_from([2, 3, 4]))
    dims = [dim if _defect(draw, "dim") is None else draw(st.sampled_from([2, 3, 4])) for _ in range(draw(st.integers(1, 4)))]
    return {"label": "f", "members": [draw(witness_documents(d)) for d in dims]}


@settings(deadline=None, max_examples=300)
@given(doc=member_lists())
def test_batched_reader_matches_per_member_reader(doc):
    assert_readers_agree(json.loads(json.dumps(doc)))  # as a document reads back


def member(dim=2, entries=None, interval=None, **fields):
    entries = entries if entries is not None else [[1.0 if i % (dim + 1) == 0 else 0.0, 0.0] for i in range(dim * dim)]
    if interval is None:
        diag = [entries[i * (dim + 1)][0] for i in range(dim)]
        interval = [min(diag), max(diag)]
    return {"dim": dim, "entries": entries, "interval": interval, "kind": "family-member", **fields}


def family(*members):
    return {"label": "f", "members": list(members)}


OFF = [[0.5, 0.0], [0.0, 0.25], [0.0, -0.25], [-1.5, 0.0]]  # Hermitian, diagonal [0.5, -1.5]


@pytest.mark.parametrize(
    "doc,expected",
    [
        (family(member(entries=[[1, 0], [0, 2], [0, -2], [-3, 0]])), "ok"),  # integer entries
        (family(member(), member(entries=[[True, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])), "DocumentError"),
        (family(member(entries=[[1.0, 0.0], [10**400, 0.0], [10**400, 0.0], [1.0, 0.0]])), "DocumentError"),
        (family(member(interval=[10**400, 1.0])), "DocumentError"),
        (family(member(detect_eps=10**400)), "DocumentError"),
        (family(member(detect_eps=2**70), member(detect_eps=0)), "ok"),
        (family(member(detect_eps=math.nan)), "DocumentError"),
        (family(member(detect_eps=-1e-9)), "DocumentError"),
        (family(member(detect_eps=math.inf)), "DocumentError"),
        (family(member(), member(entries=[[0.5, 0.0], [0.0, 0.25], [0.0, 0.25], [-1.5, 0.0]])), "DocumentError"),
        # An interval defect in member 0 comes before an entry defect in member 1.
        (family(member(interval=[0.0, 2.0]), member(entries=OFF[:3] + [["x", 0.0]], interval=[-1.5, 0.5])), "DocumentError"),
        (family(member(interval=[math.inf, 1.0])), "DocumentError"),
        (family(member(entries=OFF), member(dim=3)), "DimensionMismatchError"),
        (family(member(dim=3), member(entries=OFF, kind="bogus")), "DocumentError"),
        # Signed zeros on the diagonal and off it keep their bits.
        (family(member(entries=[[-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]), member(entries=OFF)), "ok"),
        ({"kind": "lemma2", **member(entries=OFF)}, "ok"),  # a bare witness document
        # Member 0's interval defect comes before the mixed dims.
        (family(member(interval=[0.0, 2.0]), member(dim=3)), "DocumentError"),
    ],
)
def test_batched_reader_edge_documents(doc, expected):
    got = assert_readers_agree(doc)
    assert got[0] == expected, got


ASYMMETRIC = [[0.5, 0.0], [0.0, 0.25], [0.0, 0.25], [-1.5, 0.0]]


@pytest.mark.parametrize(
    "doc,first",
    [
        (member(detect_eps=-1.0, kind="bogus"), "witness.detect_eps: must be nonnegative"),
        (member(entries=ASYMMETRIC, kind="bogus"), "witness.kind: unknown kind"),
        (member(entries=ASYMMETRIC, interval=[0.0, 0.0]), "witness.entries: witness matrix is not Hermitian"),
        (member(entries=OFF[:3] + [[1.0, "x"]], detect_eps=-1.0), "witness.entries[3][1]: expected a number"),
        (member(interval=[0.0, "x"]), "witness.interval[0]: stored 0.0 inconsistent"),
    ],
)
def test_checks_run_in_the_reference_order(doc, first):
    # Two defects in one document: the check the reference runs first names it.
    for read in (witness_from_document, family_from_document):
        got = outcome(read, doc)
        assert got == outcome(reference_witness, doc) and got[1].startswith(first), got


# --- a dim too large to print -------------------------------------------------


def huge_dim_documents(tmp_path):
    dim = "9" * 2300  # dim * dim has more than 4300 digits
    state = tmp_path / "s.json"
    state.write_text(f'{{"dim": {dim}, "entries": [[1.0, 0.0]]}}')
    fam = tmp_path / "f.json"
    fam.write_text(f'{{"label": "f", "members": [{{"dim": {dim}, "entries": [], "interval": [0, 0]}}]}}')
    return str(state), str(fam)


def test_huge_dim_exits_2(tmp_path):
    state, fam = huge_dim_documents(tmp_path)
    for argv, what in [
        (["oracle", "--state", state], "state"),
        (["verify", "--d", "2", "--samples", "3", "--seed", "1", "--family", fam], "witness"),
        (["verify", "--d", "2", "--samples", "3", "--seed", "1", "--family", state], "witness"),
    ]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == 2
        assert err.getvalue() == f"error: {what}.dim: a 7641-bit dim is too large\n"
