"""Command-line surface and document serialization.

Subcommands: ``gen`` (construct a witness or family and write it to JSON),
``detect`` (evaluate a witness document against a state document), ``oracle``
(print the l1 coherence of a state document), ``verify`` (coverage sweep),
and ``bloch`` (CSV point cloud over the qubit ball).

Documents are single JSON objects; complex entries are two-element arrays
[re, im] in row-major order.  Floats serialize with shortest-roundtrip
decimals, so written documents reload bit-for-bit.  Exit codes: 0 success or
PASS, 2 malformed input, 3 verification FAIL.

Byte contract.  A written document is exactly ``json.dumps(doc, indent=2)``
plus a newline.  ``gen`` writes every document from the member table of a
witness (one member) or family: a (members, d, d) matrix stack and its
(lo, hi, eps) table.  Members are written one sampling block
(``states._blocks``) at a time: json encodes the block's members with empty
entries lists, and each member's entries, a (d*d, 2) float64 view of its
stack row, are rendered into its slot by one renderer that spells floats as
json does.  A family document is its label and members list written around
its members.  Each piece is written once it is made, so the text held stays
bounded by the block, not the document; the member stack is held whole, 16
bytes per member matrix entry (about 115 MB for ``gen --kind family`` at
d = 52, the largest ``document_bytes`` allows).

``gen`` and ``bloch`` write ``--out`` through :class:`_Output`: an existing
file is overwritten in place and cut to the length written at the end, also
when a write fails part-way (exit 2), so it holds exactly the bytes that
reached it.  Truncating it on open instead freed its cached pages first,
1.1-1.3 ms for ``bloch --grid 41``'s 2.4 MB CSV (ext4, 2 vCPUs).  A target
that is not a regular file is never cut.  A process killed before it can
exit (SIGKILL, SIGTERM, the OOM killer) is never cut either, so it can leave
the new bytes followed by the old file's tail; its exit status tells it
apart.  A file size limit is not such a kill: Python ignores SIGXFSZ, so the
refused write fails with EFBIG and exits 2.  Input is checked before
``--out`` is opened, so an exit 2 for malformed input leaves an existing
file as it was.

One reader reads a list of documents with one set of checks: a state or
witness document is its one-item case, and a family's members are read at
once into a member table, with one entry conversion, one stacked Hermiticity
check and no Witness built.  A malformed entry is reported at its first
index; members that fail together are read again one at a time, so the
error is the first failing member's own.  Every document is read with the
cyclic garbage collector paused until its parse tree is freed: a JSON tree
holds no reference cycle, yet its lists would count toward the collector's
thresholds and trigger passes that find nothing; cyclic garbage made
elsewhere meanwhile waits for a later pass.

A ``bloch`` CSV row is exactly ``f"{x!r},{y!r},{z!r},{value!r},{verdict}\n"``
of Python floats.  The command holds the lattice as its one axis and the
index triples of its in-ball points, with each point's value and verdict; a
row is gathered from one ``repr`` per axis value and one per distinct float64
bit pattern of the value column.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import stat
import sys
from itertools import chain
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import CohwitError, DimensionMismatchError, DocumentError, NotHermitianError
from .linalg import DETECT_EPS, _require_bytes
from .states import DensityMatrix, _blocks, l1_coherence
from .verify import COHERENCE_THRESHOLD, _qubit_lattice, verify_coverage
from .witness import (
    Witness,
    WitnessFamily,
    canonical_witness,
    finite_family,
    generator_witness,
    qubit_witness,
)

# Stored interval endpoints may differ from the diagonal-derived ones by at
# most this much before a document is rejected.
INTERVAL_DOC_TOL = 1e-12

# Rows of the bloch CSV joined into one write.
_CSV_CHUNK_ROWS = 4096

_KINDS = ("lemma2", "tailored", "qubit", "eta", "family-member", "custom")
_NUMBER_TYPES = frozenset({int, float})

T = TypeVar("T")


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        raise DocumentError(f"{where}: number out of float range") from None
    if not math.isfinite(out):
        raise DocumentError(f"{where}: non-finite value")
    return out


def _number_pairs(items: list) -> np.ndarray | None:
    """A list of two-element lists whose elements are all ints or floats as
    an (n, 2) float64 array, from one type pass and one conversion; None for
    any other list or an integer beyond the float range."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        return None
    try:
        return np.array(flat, dtype=np.float64).reshape(-1, 2)
    except OverflowError:
        return None


def _read_stack(docs: list, what: str) -> np.ndarray:
    """The (n, d, d) stack of n matrix documents: each document's fields
    checked in turn, their dims compared, then every entry converted in one
    pass, the (re, im) float rows viewed as complex to keep every bit."""
    for doc in docs:
        if not isinstance(doc, dict):
            raise DocumentError(f"{what}: expected a JSON object, got {type(doc).__name__}")
        dim = doc.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
            raise DocumentError(f"{what}.dim: expected an integer >= 2, got {dim!r}")
        if dim * dim > sys.maxsize:  # no list is that long, and the count may not print
            raise DocumentError(f"{what}.dim: a {dim.bit_length()}-bit dim is too large")
        entries = doc.get("entries")
        if not isinstance(entries, list) or len(entries) != dim * dim:
            got = len(entries) if isinstance(entries, list) else entries
            raise DocumentError(f"{what}.entries: expected {dim * dim} complex pairs, got {got!r}")
    dims = sorted({doc["dim"] for doc in docs})
    if len(dims) > 1:
        raise DimensionMismatchError(f"family members have mixed dims {dims}")
    entries = list(chain.from_iterable(doc["entries"] for doc in docs))
    flat = _number_pairs(entries)
    if flat is None or not np.isfinite(flat).all():
        # Name the first entry that is not a pair of finite numbers.
        for doc in docs:
            for i, pair in enumerate(doc["entries"]):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise DocumentError(f"{what}.entries[{i}]: expected a [re, im] pair, got {pair!r}")
                _num(pair[0], f"{what}.entries[{i}][0]")
                _num(pair[1], f"{what}.entries[{i}][1]")
        flat = np.array(entries, dtype=np.float64)  # numbers of int or float subclasses
    return flat.view(np.complex128).reshape(len(docs), dims[0], dims[0])


def _read_members(label: str, members: list) -> WitnessFamily:
    """The family of witness documents ``members``: :func:`_read_stack`, then
    each margin and kind, one stacked Hermiticity check, and the stored
    intervals against the diagonal-derived table."""
    stack = _read_stack(members, "witness")
    eps = [_num(doc.get("detect_eps", DETECT_EPS), "witness.detect_eps") for doc in members]
    for doc, margin in zip(members, eps):
        if margin < 0:
            raise DocumentError(f"witness.detect_eps: must be nonnegative, got {margin}")
        kind = doc.get("kind", "custom")
        if kind not in _KINDS:
            raise DocumentError(f"witness.kind: unknown kind {kind!r}")
    try:
        family = WitnessFamily._from_stack(label, stack, eps, "witness matrix")
    except NotHermitianError as exc:
        raise DocumentError(f"witness.entries: {exc}") from exc
    for doc, derived in zip(members, family._bounds[:2].T.tolist()):
        interval = doc.get("interval")
        if not isinstance(interval, list) or len(interval) != 2:
            raise DocumentError(f"witness.interval: expected [lo, hi], got {interval!r}")
        for idx, (stored, bound) in enumerate(zip(interval, derived)):
            stored = _num(stored, f"witness.interval[{idx}]")
            if abs(stored - bound) > INTERVAL_DOC_TOL:
                raise DocumentError(
                    f"witness.interval[{idx}]: stored {stored} inconsistent with "
                    f"diagonal-derived {bound}"
                )
    return family


def state_from_document(doc) -> DensityMatrix:
    M = _read_stack([doc], "state")[0]
    try:
        return DensityMatrix(M)
    except CohwitError as exc:
        raise DocumentError(f"state: {exc}") from exc


def witness_from_document(doc) -> Witness:
    return _read_members("witness", [doc]).members[0]


def family_from_document(doc) -> WitnessFamily:
    if not isinstance(doc, dict):
        raise DocumentError(f"family: expected a JSON object, got {type(doc).__name__}")
    if "members" not in doc:
        # A bare witness document acts as a one-member family.
        label, members = str(doc.get("kind", "custom")), [doc]
    else:
        members = doc["members"]
        if not isinstance(members, list) or not members:
            raise DocumentError(f"family.members: expected a nonempty list, got {members!r}")
        label = doc.get("label")
        if not isinstance(label, str):
            raise DocumentError(f"family.label: expected a string, got {label!r}")
    try:
        return _read_members(label, members)
    except CohwitError:  # name the first member that fails alone, else the dims
        for member in members:
            _read_members(label, [member])
        raise


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integers
    # past the interpreter's digit limit; RecursionError, nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def _read_document(path: str, convert: Callable[[object], T]) -> T:
    """``convert`` of the JSON document at ``path``, with the cyclic garbage
    collector paused from the parse until ``convert`` has returned and the
    parse tree is freed; it is enabled again only if it was on at entry.

    A parsed document is a tree of dicts, lists and numbers: it holds no
    reference cycle, so the collector has nothing to find in it, yet each of
    its containers counts toward the collector's thresholds (a d = 12 family
    document holds about 19,000 [re, im] lists).  Paused, the parse and the
    conversion trigger no pass, and once the tree is freed its containers no
    longer count.  Cyclic garbage made elsewhere meanwhile is only collected
    later, by the next pass.  The enabled flag is process-wide, so two threads
    reading at once can change when a pass runs, never what is read.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        # The tree is only ever a temporary argument, so it is freed as
        # convert returns, before the collector is enabled again.
        return convert(_load_json(path))
    finally:
        if enabled:
            gc.enable()


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer array, ascending, and the index of
    each element's value among them.  On float64 bit patterns this keeps 0.0
    and -0.0 apart."""
    values = np.sort(codes, axis=None)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    values = values[first]
    return values, np.searchsorted(values, codes)


def _render_pairs(block: np.ndarray, ind: str) -> list[str]:
    """The text of each (r, 2) float64 array of a (k, r, 2) block as
    ``json.dumps(array.tolist(), indent=2)`` renders it on a line indented by
    ``ind`` (a newline and spaces).  The block is rendered at once: each
    distinct float64 bit pattern is spelled once, each distinct pair once,
    and the rows of every array come from one gather."""
    bits, index = _distinct(block.view(np.int64))
    texts = [json.dumps(v) for v in bits.view(np.float64).tolist()]
    pairs, which = _distinct(index[..., 0] * len(bits) + index[..., 1])
    re, im = np.divmod(pairs, len(bits))
    items = [
        f"{ind}  [{ind}    {texts[r]},{ind}    {texts[i]}{ind}  ]" for r, i in zip(re.tolist(), im.tolist())
    ]
    return ["[" + ",".join(rows) + ind + "]" for rows in np.array(items, dtype=object)[which].tolist()]


class _Output:
    """The ``--out`` file of ``gen`` and ``bloch``, as UTF-8 text with no
    newline translation, written in place and cut to length on exit.

    It is created as ``open(path, "w")`` creates a file (mode 0o666 less the
    umask) but not truncated, so an existing file's cached pages are
    overwritten instead of freed.  On exit, whether the write succeeded or
    not, a regular file is cut at the descriptor's own offset: it holds
    exactly the bytes that reached it, also when a flush failed, and no tail
    of the old file.  A pipe, a terminal or a device is never cut.  A process
    killed before it exits (SIGKILL, SIGTERM) never reaches the cut, so it can
    leave the new bytes followed by the old file's tail."""

    def __init__(self, path: str) -> None:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        self.stream = open(fd, "w", encoding="utf-8", newline="")

    def __enter__(self):
        return self.stream

    def __exit__(self, *exc_info) -> None:
        with self.stream:
            fd = self.stream.fileno()
            try:
                self.stream.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_document(
    path: str, table: Witness | WitnessFamily, kind: str, params: list[dict], label: str | None = None
) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline, where ``doc`` is
    the witness document of the one member of ``table`` or, given ``label``,
    the family document ``{"label": label, "members": [...]}`` of all its
    members.  Member t has kind ``kind`` and params ``params[t]``; its entries
    are its row of the member stack and its interval and margin its column of
    the (lo, hi, eps) table.

    Members are written one ``states._blocks`` block at a time.  json encodes
    the block's members with empty entries lists, in one call, since each
    call of json's indenting encoder leaves a reference cycle behind for the
    collector; each member's rendered entries then fill its slot.  Each piece
    is written as it is made, so the text held stays bounded by the block;
    the member stack is held whole."""
    stack = table._stack
    m, d = stack.shape[:2]
    entries = stack.reshape(m, d * d).view(np.float64).reshape(m, d * d, 2)
    lo, hi, eps = table._bounds.tolist()
    encode = json.JSONEncoder(indent=2).encode
    # A member's own keys start lines of this indentation and keys nested in
    # its params start deeper ones, so ind + '"entries": []' marks its slot.
    ind = "\n  " if label is None else "\n      "
    with _Output(path) as fh:
        if label is not None:
            # "members" is the last key, so its [] is the last one in the text.
            head, _, tail = encode({"label": label, "members": []}).rpartition("[]")
            fh.write(head + "[")
        for s in _blocks(m, d):
            members = [
                {"dim": d, "entries": [], "interval": [a, z], "detect_eps": x, "kind": kind, "params": p}
                for a, z, x, p in zip(lo[s], hi[s], eps[s], params[s])
            ]
            if label is None:
                text = encode(members[0])
            else:
                # The block's list items at the family's indentation, brackets cut.
                text = ("," if s.start else "") + encode(members).replace("\n", "\n  ")[1:-4]
            first, *rest = text.split(ind + '"entries": []')
            fh.write(first)
            for rendered, piece in zip(_render_pairs(entries[s], ind), rest):
                fh.writelines((ind, '"entries": ', rendered, piece))
        fh.write("\n" if label is None else "\n  ]" + tail + "\n")


def _parse_csv_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DocumentError(f"{flag}: could not parse {text!r} as comma-separated reals") from exc


def document_bytes(d: int, n_members: int) -> int:
    """An upper bound on the bytes ``gen`` holds at once for n_members
    witnesses of dim d: per member and matrix entry, the complex entry and a
    [re, im] list of two Python floats (128 bytes), plus four complex d x d
    temporaries while one member is built.  No kind builds those lists any
    more: every document is written from its matrix stack one block of
    members at a time, and at d = 30 the traced peak of ``gen --kind family``
    is about 0.12 of this bound.  A negative d builds nothing."""
    return (144 * n_members + 64) * max(d, 0) ** 2


def _require(args: argparse.Namespace, names: Sequence[str], kind: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise DocumentError(f"gen --kind {kind} requires {', '.join(missing)}")


def write_bloch_cloud(stream, axis, ijk, values, detected) -> None:
    """Write a point cloud as CSV: a header line, then for point t the row
    ``f"{x!r},{y!r},{z!r},{value!r},{verdict}\\n"`` of its coordinates
    (x, y, z) = (axis[i[t]], axis[j[t]], axis[k[t]]), where (i, j, k) is
    ``ijk``, and its value as Python floats, then its verdict, "Detected"
    where ``detected[t]`` is true, else "NotDetected".

    Each axis value is formatted once, and each distinct float64 bit pattern
    of ``values`` once, so 0.0 and -0.0 stay apart.  Rows are written
    _CSV_CHUNK_ROWS at a time: each chunk's (rows, 5) index into the
    formatted cells is stacked from ``ijk``, the value index and the
    verdict, and its cells are gathered and joined in one write.
    """
    stream.write("x,y,z,value,verdict\n")
    bits, which = _distinct(values.view(np.int64))
    cells = [f"{v!r}," for v in chain(axis.tolist(), bits.view(np.float64).tolist())]
    pieces = np.array(cells + ["NotDetected\n", "Detected\n"], dtype=object)
    columns = (*ijk, len(axis) + which, len(cells) + detected)
    for start in range(0, len(values), _CSV_CHUNK_ROWS):
        index = np.stack([column[start : start + _CSV_CHUNK_ROWS] for column in columns], axis=1)
        stream.write("".join(pieces[index].ravel().tolist()))


def _cmd_gen(args) -> int:
    if args.kind == "lemma2":
        _require(args, ("d", "m", "M"), "lemma2")
        _require_bytes(document_bytes(args.d, 1), f"gen --kind lemma2 at d={args.d}")
        w = canonical_witness(args.d, args.m, args.M)
        params = {"d": args.d, "m": args.m, "M": args.M}
    elif args.kind == "qubit":
        _require(args, ("a", "b", "c"), "qubit")
        w = qubit_witness(args.K, args.a, args.b, args.c)
        params = {"K": args.K, "a": args.a, "b": args.b, "c": args.c}
    elif args.kind == "eta":
        _require(args, ("d", "eta"), "eta")
        coeffs = _parse_csv_floats(args.eta, "--eta")
        w = generator_witness(args.d, args.K, coeffs)
        params = {"d": args.d, "K": args.K, "eta": coeffs}
    if args.kind != "family":
        _write_document(args.out, w, args.kind, [params])
    else:
        _require(args, ("d",), "family")
        n = args.d * (args.d - 1)
        _require_bytes(document_bytes(args.d, n), f"gen --kind family at d={args.d}")
        coeffs = _parse_csv_floats(args.s, "--s") if args.s is not None else None
        family = finite_family(args.d, args.K, coeffs)
        params = [
            {"d": args.d, "K": args.K, "index": args.d + t, "coeff": c}
            for t, c in enumerate(coeffs if coeffs is not None else [1.0] * n)
        ]
        _write_document(args.out, family, "family-member", params, family.label)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_detect(args) -> int:
    w = _read_document(args.witness, witness_from_document)
    if args.eps is not None:
        if args.eps < 0:
            raise DocumentError(f"--eps: must be nonnegative, got {args.eps}")
        w = Witness(w.matrix, args.eps)
    state = _read_document(args.state, state_from_document)
    report = w.evaluate(state)
    print(
        json.dumps(
            {
                "value": report.value,
                "interval": list(report.interval),
                "margin": report.margin,
                "verdict": report.verdict.value,
                "detect_eps": w.detect_eps,
            }
        )
    )
    return 0


def _cmd_oracle(args) -> int:
    state = _read_document(args.state, state_from_document)
    print(json.dumps({"dim": state.dim, "l1_coherence": l1_coherence(state)}))
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise DocumentError(f"--samples: must be >= 1, got {args.samples}")
    if args.family is not None:
        family = _read_document(args.family, family_from_document)
        if family.dim != args.d:
            raise DocumentError(f"family dim {family.dim} does not match --d {args.d}")
    else:
        family = finite_family(args.d, args.K)
    report = verify_coverage(family, args.samples, args.seed, coherence_threshold=args.threshold)
    print(
        json.dumps(
            {
                "dim": report.dim,
                "n_states": report.n_states,
                "n_coherent": report.n_coherent,
                "n_detected": report.n_detected,
                "n_false_alarm": report.n_false_alarm,
                "min_margin_detected": report.min_margin_detected,
                "per_witness_hits": list(report.per_witness_hits),
                "seed": report.seed,
                "coherence_threshold": report.coherence_threshold,
                "detect_eps": report.detect_eps,
                "family": report.family_label,
                "verdict": "PASS" if report.passed else "FAIL",
            }
        )
    )
    return 0 if report.passed else 3


def _cmd_bloch(args) -> int:
    # Validated before --out is opened, so exit 2 leaves no file behind and an
    # existing one as it was.
    _, cloud = _qubit_lattice(args.K, args.a, args.b, args.c, args.grid)
    if args.out is not None:
        with _Output(args.out) as fh:
            write_bloch_cloud(fh, *cloud)
    else:
        write_bloch_cloud(sys.stdout, *cloud)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="cohwit", description="Coherence witness construction, detection, and verification."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a witness (or family) and write a JSON document")
    gen.add_argument("--kind", required=True, choices=["lemma2", "qubit", "eta", "family"])
    gen.add_argument("--d", type=int, help="dimension")
    gen.add_argument("--m", type=float, help="interval lower endpoint (kind lemma2)")
    gen.add_argument("--M", type=float, help="interval upper endpoint (kind lemma2)")
    gen.add_argument("--K", type=float, default=0.0, help="identity coefficient")
    gen.add_argument("--a", type=float, help="sigma_x coefficient (kind qubit)")
    gen.add_argument("--b", type=float, help="sigma_y coefficient (kind qubit)")
    gen.add_argument("--c", type=float, help="sigma_z coefficient (kind qubit)")
    gen.add_argument("--eta", type=str, help="comma-separated d^2-1 coefficients (kind eta)")
    gen.add_argument("--s", type=str, help="comma-separated d(d-1) coefficients (kind family)")
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=_cmd_gen)

    detect = sub.add_parser("detect", help="evaluate a witness document on a state document")
    detect.add_argument("--witness", required=True)
    detect.add_argument("--state", required=True)
    detect.add_argument("--eps", type=float, default=None, help="override detection margin")
    detect.set_defaults(func=_cmd_detect)

    oracle = sub.add_parser("oracle", help="print the l1 coherence of a state document")
    oracle.add_argument("--state", required=True)
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="coverage sweep of a witness family")
    verify.add_argument("--d", type=int, required=True)
    verify.add_argument("--samples", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--K", type=float, default=0.0)
    verify.add_argument("--threshold", type=float, default=COHERENCE_THRESHOLD)
    verify.add_argument("--family", type=str, default=None, help="family document (default: built-in)")
    verify.set_defaults(func=_cmd_verify)

    bloch = sub.add_parser("bloch", help="CSV point cloud of verdicts over the qubit ball")
    bloch.add_argument("--K", type=float, required=True)
    bloch.add_argument("--a", type=float, required=True)
    bloch.add_argument("--b", type=float, required=True)
    bloch.add_argument("--c", type=float, required=True)
    bloch.add_argument("--grid", type=int, required=True)
    bloch.add_argument("--out", type=str, default=None)
    bloch.set_defaults(func=_cmd_bloch)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code) if exc.code else 0
    try:
        # Overflow in user-supplied numbers surfaces as a finiteness error
        # below, not as numpy warnings on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (CohwitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
