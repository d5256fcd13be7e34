"""Byte identity of the CLI's batched I/O against its references.

The document writer is checked against ``json.dumps(doc, indent=2) + "\\n"``
on member tables, as witness and as family documents; the document reader
against the per-entry loop it replaced; and the ``bloch`` CSV against the
per-row format ``f"{x!r},{y!r},{z!r},{value!r},{verdict}\\n"``.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import document
from test_family_stack import reference_matrix
from test_verify import ball_points

from cohwit import DocumentError, Witness, WitnessFamily, finite_family, qubit_witness, sample_ginibre
from cohwit import cli
from cohwit.cli import _read_stack, document_bytes, run, write_bloch_cloud
from cohwit.generators import _qubit_matrices

# --- writer ----------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 0.1, 1 / 3, 1.7976931348623157e308]
LABELS = st.one_of(
    st.text(),
    st.sampled_from(["", "é", "☃", "\U0001f600", '"\\/', "\n\t\x00\x1f", "\ud800", "[]", '"members": []']),
)
EDGE_VALUES = st.sampled_from(EDGE_FLOATS)
PARAMS = st.dictionaries(
    st.sampled_from(["d", "K", "index", "coeff", "eta", "entries", "[]"]),
    st.one_of(
        st.integers(-(2**70), 2**70),
        EDGE_VALUES,
        st.lists(EDGE_VALUES, max_size=3),
        st.fixed_dictionaries({"entries": st.just([])}),  # an entries slot one level down
    ),
    max_size=4,
)


def hermitian_stack(m: int, d: int, seed: int) -> np.ndarray:
    """An (m, d, d) Hermitian stack of EDGE_FLOATS of either sign, signed
    zeros included, with exactly real diagonals."""
    rng = np.random.default_rng(seed)
    parts = np.array(EDGE_FLOATS)[rng.integers(0, len(EDGE_FLOATS), size=(2, m, d, d))]
    parts *= rng.choice([-1.0, 1.0], size=parts.shape)
    stack = np.empty((m, d, d), dtype=np.complex128)
    stack.real, stack.imag = parts
    j, k = np.triu_indices(d, 1)
    stack[:, k, j] = stack[:, j, k].conj()
    i = np.arange(d)
    stack.imag[:, i, i] = np.copysign(0.0, stack.imag[:, i, i])
    return stack


@st.composite
def member_tables(draw):
    """A random Hermitian stack of EDGE_FLOATS, some with more members than
    a block holds, or the built-in family at small d."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 20))
        m = draw(st.integers(1, 2 * max(1, 4096 // (d * d)) + 2))
        seed = draw(st.integers(0, 2**32))
        eps = np.random.default_rng(seed).choice([0.0, -0.0, 5e-324, 1e-9, 1e22], size=m).tolist()
        return WitnessFamily._from_stack("random", hermitian_stack(m, d, seed), eps)
    d = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.sampled_from(EDGE_FLOATS[2:]), min_size=d * (d - 1), max_size=d * (d - 1)))
    return finite_family(d, draw(EDGE_VALUES), coeffs)


def listed(table, kind: str, params: list) -> list[dict]:
    """Every member's witness document, entries as lists."""
    lo, hi, eps = table._bounds.tolist()
    return [
        {
            "dim": W.shape[0],
            "entries": [[z.real, z.imag] for z in W.reshape(-1).tolist()],
            "interval": [lo[t], hi[t]],
            "detect_eps": eps[t],
            "kind": kind,
            "params": params[t],
        }
        for t, W in enumerate(table._stack)
    ]


def written(table, kind: str, params: list, label=None) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        cli._write_document(path, table, kind, params, label)
        with open(path, "rb") as fh:
            return fh.read()


@settings(deadline=None, max_examples=150)
@given(
    table=member_tables(), kind=st.sampled_from(cli._KINDS), pool=st.lists(PARAMS, min_size=1, max_size=3), label=LABELS
)
@example(table=finite_family(12, -1.0), kind="family-member", pool=[{"K": -1.0}], label="d = 12: 5 blocks")
@example(table=finite_family(30, 1e-300), kind="family-member", pool=[{}], label="d = 30: 218 blocks")
@example(
    table=WitnessFamily._from_stack("d = 65", hermitian_stack(2, 65, 7), [1e-9, 0.0]),  # a member past a block
    kind="custom",
    pool=[{"d": 65}, {"eta": [-0.0, 5e-324]}],
    label="two members, each larger than a block",
)
def test_writer_writes_member_tables_as_json_does(table, kind, pool, label):
    # Both document shapes: the family of every member and the witness
    # document of the first member alone.
    params = [pool[t % len(pool)] for t in range(len(table))]
    members = listed(table, kind, params)
    family = {"label": label, "members": members}
    assert written(table, kind, params, label) == (json.dumps(family, indent=2) + "\n").encode("utf-8")
    first = Witness(table._stack[0], table._bounds[2, 0])
    assert written(first, kind, params[:1]) == (json.dumps(members[0], indent=2) + "\n").encode("utf-8")


GEN_K = ["-2.5", "-0.0", "0", "37", "1e-300"]
GEN_ARGV = {
    "lemma2": lambda K: ["--kind", "lemma2", "--d", "3", "--m", K, "--M", "37"],
    "qubit": lambda K: ["--kind", "qubit", "--K", K, "--a", "-0.0", "--b", "1e-300", "--c", "-2"],
    "eta": lambda K: ["--kind", "eta", "--d", "3", "--K", K, "--eta", "1,-0.0,-2.5,1e-300,37,-1,0.5,-0.125"],
    "family": lambda K: ["--kind", "family", "--d", "4", "--K", K],
    "family-signed-s": lambda K: ["--kind", "family", "--d", "3", "--K", K, "--s", "1,-1,-0.5,2.5,-37,1e-300"],
}


@pytest.mark.parametrize("K", GEN_K)
@pytest.mark.parametrize("kind", GEN_ARGV)
def test_gen_writes_json_of_its_own_document(tmp_path, kind, K):
    path = tmp_path / "doc.json"
    assert run(["gen", *GEN_ARGV[kind](K), "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_gen_family_d30_matches_json_within_its_memory_bound(tmp_path):
    # The row budget bounds what the writer holds: the traced peak is 0.12 of
    # document_bytes at d = 30 with rows rendered 4096 at a time.
    path = tmp_path / "fam.json"
    tracemalloc.start()
    try:
        assert run(["gen", "--kind", "family", "--d", "30", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.13 * document_bytes(30, 30 * 29)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_writer_on_a_witness_family_document(tmp_path):
    path = tmp_path / "fam.json"
    assert run(["gen", "--kind", "family", "--d", "4", "--K", "-0.5", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


def rendered_as_json(arrays, ind: str) -> list[str]:
    """Each (r, 2) array as json.dumps(array.tolist(), indent=2) renders it
    on a line indented by ind."""
    return [json.dumps(a.tolist(), indent=2).replace("\n", ind) for a in arrays]


FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@settings(deadline=None, max_examples=300)
@given(
    rows=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=12),
    k=st.integers(1, 4),
    depth=st.sampled_from([0, 2, 6]),
)
def test_writer_renders_float_arrays_as_their_lists(rows, k, depth):
    # A (k, r, 2) float64 block is rendered as each array's list of
    # [re, im] pairs, strided views included.
    a = np.array(rows, dtype=np.float64)
    block = np.stack([a, a[::-1], a[:, ::-1], -a][:k])
    ind = "\n" + " " * depth
    for view in (block, block[::-1], block[:, ::-1], block[:, :, ::-1]):
        assert cli._render_pairs(view, ind) == rendered_as_json(view, ind)


def test_writer_array_edge_values():
    values = EDGE_FLOATS + [math.nan, -math.nan, math.inf, -math.inf]
    a = np.array([[x, y] for x in values for y in values[::-1]])
    [text] = cli._render_pairs(a[None], "\n")
    assert text == json.dumps(a.tolist(), indent=2)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text


def test_entries_arrays_edge_values_match_json():
    # The entries of a family member, at its indentation.
    values = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, math.nan, math.inf, -math.inf]
    a = np.array([[x, y] for x in values for y in values[::-1]])
    ind = "\n      "
    for entries in (a, a[::-1], a[:, ::-1], a[::3], np.asfortranarray(a)):  # strided views included
        [text] = cli._render_pairs(entries[None], ind)
        assert text == json.dumps(entries.tolist(), indent=2).replace("\n", ind)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "5e-324" in text and "1e+22" in text


# --- reader ----------------------------------------------------------------


def outcome(read, doc):
    try:
        return ("ok", read(doc).view(np.float64).view(np.int64).tolist())  # bits, signed zeros kept
    except DocumentError as exc:
        return ("error", str(exc))


ODD = [math.nan, math.inf, -math.inf, 10**400, True, False, None, "0.5", [0.5], {}, [0.5, 0.0]]
ENTRY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
)


@st.composite
def entry_lists(draw, dim):
    entries = [[draw(ENTRY_VALUES), draw(ENTRY_VALUES)] for _ in range(dim * dim)]
    index = st.integers(0, dim * dim - 1)
    # Up to three bad values and up to two bad entries, anywhere.
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(index)][draw(st.integers(0, 1))] = draw(st.sampled_from(ODD))
    for _ in range(draw(st.integers(0, 2))):
        entries[draw(index)] = draw(st.sampled_from([[1.0], [1.0, 0.0, 0.0], (1.0, 0.0), "x", None, 1.0]))
    return entries


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_reader_matches_per_entry_loop(data):
    dim = data.draw(st.integers(2, 4))
    doc = {"dim": dim, "entries": data.draw(entry_lists(dim))}
    read = lambda doc: _read_stack([doc], "matrix")[0]  # noqa: E731
    assert outcome(read, doc) == outcome(lambda doc: reference_matrix(doc, "matrix"), doc)


def test_reader_keeps_signed_zeros_and_every_bit():
    M = sample_ginibre(3, 7).matrix.copy()
    M[0, 0] = complex(-0.0, 0.0)
    M[1, 2] = complex(0.0, -0.0)
    M[2, 1] = complex(-0.0, -0.0)
    doc = json.loads(json.dumps(document(M)))
    assert np.array_equal(_read_stack([doc], "matrix")[0].view(np.int64), M.view(np.int64))


def test_document_entries_match_per_entry_floats(tmp_path):
    M = sample_ginibre(4, 3).matrix.T  # not C-contiguous
    M = np.where(np.abs(M) < 0.1, -0.0, M)
    old = [[float(z.real), float(z.imag)] for z in M.reshape(-1)]
    path = tmp_path / "w.json"
    cli._write_document(str(path), Witness(M), "custom", [{}])
    assert json.dumps(json.loads(path.read_text())["entries"]) == json.dumps(old)


def test_huge_integer_entry_exits_2(tmp_path):
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"dim": 2, "entries": [[0.5, 0], [10**400, 0], [0, 0], [0.5, 0]]}))
    witness = tmp_path / "w.json"
    doc = {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]], "interval": [10**400, 1]}
    witness.write_text(json.dumps(doc))
    for argv, where in [
        (["oracle", "--state", str(state)], "state.entries[1][0]"),
        (["detect", "--witness", str(witness), "--state", str(state)], "witness.interval[0]"),
    ]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == 2
        assert err.getvalue() == f"error: {where}: number out of float range\n"


@pytest.mark.parametrize(
    "data",
    [
        b'{"dim": 2, "entries": [[1' + b"0" * 5000 + b', 0]]}',  # past the int digit limit
        b'{"dim": 2, "entries": "\xff\xfe"}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested too deep
    ],
)
def test_unreadable_document_exits_2(tmp_path, data):
    state = tmp_path / "s.json"
    state.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["oracle", "--state", str(state)]) == 2
    assert err.getvalue().startswith(f"error: {state}: invalid JSON (")
    assert err.getvalue().count("\n") == 1


# --- bloch CSV -------------------------------------------------------------


def reference_csv(K, a, b, c, grid):
    # The meshgrid coordinates, one evaluation of them all and per-row
    # f-strings: no step of the command's lattice or its index-addressed
    # rendering.
    x, y, z = ball_points(grid)
    values, _, detected = qubit_witness(K, a, b, c).evaluate_batch(_qubit_matrices(1.0, x, y, z))
    verdicts = ["Detected" if hit else "NotDetected" for hit in detected.tolist()]
    rows = zip(x.tolist(), y.tolist(), z.tolist(), values.tolist(), verdicts)
    return "x,y,z,value,verdict\n" + "".join(f"{x!r},{y!r},{z!r},{v!r},{verdict}\n" for x, y, z, v, verdict in rows)


COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-3.0, 3.0))


@settings(deadline=None, max_examples=60)
@given(grid=st.integers(2, 15), K=COEFFS, a=COEFFS, b=COEFFS, c=COEFFS)
def test_csv_matches_per_row_format(grid, K, a, b, c):
    if a == 0.0 and b == 0.0 and c == 0.0:
        c = 1.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.csv")
        argv = ["bloch", f"--K={K!r}", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}", f"--grid={grid}"]
        assert run([*argv, "--out", path]) == 0
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(K, a, b, c, grid).encode()


def test_grid_2_is_header_only(tmp_path):
    path = tmp_path / "cloud.csv"
    assert run(["bloch", "--K", "0", "--a", "1", "--b", "0", "--c", "0", "--grid", "2", "--out", str(path)]) == 0
    assert path.read_bytes() == b"x,y,z,value,verdict\n"


def test_csv_keeps_zero_and_negative_zero_apart():
    axis = np.array([0.0, -0.0, 0.5])
    i, j = np.array([0, 1, 0, 1]), np.array([1, 0, 2, 2])
    x, y = axis[i], axis[j]  # [0.0, -0.0, 0.0, -0.0] and [-0.0, 0.0, 0.5, 0.5]
    values = np.array([-0.0, 0.0, 0.0, -0.0])
    detected = np.array([True, False, False, True])
    out = io.StringIO()
    write_bloch_cloud(out, axis, (i, j, j), values, detected)
    verdicts = ["Detected" if hit else "NotDetected" for hit in detected]
    rows = zip(x.tolist(), y.tolist(), y.tolist(), values.tolist(), verdicts)
    assert out.getvalue() == "x,y,z,value,verdict\n" + "".join(f"{p!r},{q!r},{r!r},{v!r},{s}\n" for p, q, r, v, s in rows)


def test_csv_spans_several_write_chunks():
    n = 2 * cli._CSV_CHUNK_ROWS + 5
    x = np.linspace(-0.5, 0.5, n)
    writes = []

    class Stream:
        def write(self, text):
            writes.append(text)

    ijk = (np.arange(n), n + np.arange(n), 2 * n + np.arange(n))
    write_bloch_cloud(Stream(), np.concatenate([x, -x, x * x]), ijk, x / 3, x > 0)
    assert len(writes) == 4  # header and three chunks
    lines = "".join(writes).splitlines()
    assert len(lines) == n + 1
    last = float(x[-1])
    assert lines[-1] == f"{last!r},{-last!r},{last * last!r},{last / 3!r},Detected"


# --- parser ----------------------------------------------------------------


def test_parser_reuse_keeps_help_and_errors():
    outs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = (run(["--help"]), run(["verify", "--d", "2"]), run(["bloch", "--bogus"]))
        outs.append((codes, out.getvalue(), err.getvalue()))
    assert outs[0] == outs[1]
    assert outs[0][0] == (0, 2, 2)
    assert outs[0][1].startswith("usage: cohwit")
