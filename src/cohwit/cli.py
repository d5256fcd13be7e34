"""Command-line surface and document serialization.

Subcommands: ``gen`` (construct a witness or family and write it to JSON),
``detect`` (evaluate a witness document against a state document), ``oracle``
(print the l1 coherence of a state document), ``verify`` (coverage sweep),
and ``bloch`` (CSV point cloud over the qubit ball).

Documents are single JSON objects; complex entries are two-element arrays
[re, im] in row-major order.  Floats serialize with shortest-roundtrip
decimals, so written documents reload bit-for-bit.  Exit codes: 0 success or
PASS, 2 malformed input, 3 verification FAIL.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator, Sequence

import numpy as np

from .errors import CohwitError, DocumentError, NotHermitianError
from .linalg import DETECT_EPS
from .rng import Seed
from .states import DensityMatrix, l1_coherence
from .verify import COHERENCE_THRESHOLD, bloch_grid, qubit_states_stack, verify_coverage
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

_KINDS = ("lemma2", "tailored", "qubit", "eta", "family-member", "custom")


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if out != out or out in (float("inf"), float("-inf")):
        raise DocumentError(f"{where}: non-finite value")
    return out


def matrix_to_document(matrix) -> dict:
    M = np.asarray(matrix, dtype=np.complex128)
    return {
        "dim": int(M.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)],
    }


def matrix_from_document(doc, *, what: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise DocumentError(f"{what}.dim: expected an integer >= 2, got {dim!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        got = len(entries) if isinstance(entries, list) else entries
        raise DocumentError(f"{what}.entries: expected {dim * dim} complex pairs, got {got!r}")
    flat = np.empty(dim * dim, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"{what}.entries[{i}]: expected a [re, im] pair, got {pair!r}")
        flat[i] = complex(
            _num(pair[0], f"{what}.entries[{i}][0]"), _num(pair[1], f"{what}.entries[{i}][1]")
        )
    return flat.reshape(dim, dim)


def state_from_document(doc) -> DensityMatrix:
    M = matrix_from_document(doc, what="state")
    try:
        return DensityMatrix(M)
    except CohwitError as exc:
        raise DocumentError(f"state: {exc}") from exc


def witness_to_document(witness: Witness, kind: str = "custom", params: dict | None = None) -> dict:
    doc = matrix_to_document(witness.matrix)
    doc["interval"] = [witness.interval_lo, witness.interval_hi]
    doc["detect_eps"] = witness.detect_eps
    doc["kind"] = kind
    doc["params"] = params or {}
    return doc


def witness_from_document(doc) -> Witness:
    M = matrix_from_document(doc, what="witness")
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


def family_to_document(family: WitnessFamily, member_docs: list[dict]) -> dict:
    return {"label": family.label, "members": member_docs}


def family_from_document(doc) -> WitnessFamily:
    if not isinstance(doc, dict):
        raise DocumentError(f"family: expected a JSON object, got {type(doc).__name__}")
    if "members" not in doc:
        # A bare witness document acts as a one-member family.
        return WitnessFamily(label=str(doc.get("kind", "custom")), members=(witness_from_document(doc),))
    members = doc["members"]
    if not isinstance(members, list) or not members:
        raise DocumentError(f"family.members: expected a nonempty list, got {members!r}")
    label = doc.get("label")
    if not isinstance(label, str):
        raise DocumentError(f"family.label: expected a string, got {label!r}")
    return WitnessFamily(label=label, members=tuple(witness_from_document(m) for m in members))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_csv_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DocumentError(f"{flag}: could not parse {text!r} as comma-separated reals") from exc


def _require(args: argparse.Namespace, names: Sequence[str], kind: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise DocumentError(f"gen --kind {kind} requires {', '.join(missing)}")


def bloch_cloud(
    K: float, a: float, b: float, c: float, grid_n: int
) -> Iterator[tuple[float, float, float, float, str]]:
    """Iterate (x, y, z, value, verdict) over the in-ball lattice.

    Point order matches :func:`cohwit.verify.bloch_grid`: x, then y, then z
    ascending.  Inputs are validated and every verdict computed before the
    iterator is returned.
    """
    x, y, z = bloch_grid(grid_n)
    w = qubit_witness(K, a, b, c)
    values, _, detected = w.evaluate_batch(qubit_states_stack(x, y, z))
    verdicts = ["Detected" if hit else "NotDetected" for hit in detected.tolist()]
    return zip(x.tolist(), y.tolist(), z.tolist(), values.tolist(), verdicts)


def write_bloch_cloud(stream, K, a, b, c, grid_n) -> None:
    rows = bloch_cloud(K, a, b, c, grid_n)
    stream.write("x,y,z,value,verdict\n")
    for x, y, z, value, verdict in rows:
        stream.write(f"{x!r},{y!r},{z!r},{value!r},{verdict}\n")


def _cmd_gen(args) -> int:
    if args.kind == "lemma2":
        _require(args, ("d", "m", "M"), "lemma2")
        w = canonical_witness(args.d, args.m, args.M)
        doc = witness_to_document(w, "lemma2", {"d": args.d, "m": args.m, "M": args.M})
    elif args.kind == "qubit":
        _require(args, ("a", "b", "c"), "qubit")
        w = qubit_witness(args.K, args.a, args.b, args.c)
        doc = witness_to_document(w, "qubit", {"K": args.K, "a": args.a, "b": args.b, "c": args.c})
    elif args.kind == "eta":
        _require(args, ("d", "eta"), "eta")
        coeffs = _parse_csv_floats(args.eta, "--eta")
        w = generator_witness(args.d, args.K, coeffs)
        doc = witness_to_document(w, "eta", {"d": args.d, "K": args.K, "eta": coeffs})
    else:  # family
        _require(args, ("d",), "family")
        coeffs = _parse_csv_floats(args.s, "--s") if args.s is not None else None
        family = finite_family(args.d, args.K, coeffs)
        used = list(coeffs) if coeffs is not None else [1.0] * (args.d * (args.d - 1))
        member_docs = [
            witness_to_document(
                w, "family-member", {"d": args.d, "K": args.K, "index": args.d + t, "coeff": used[t]}
            )
            for t, w in enumerate(family.members)
        ]
        doc = family_to_document(family, member_docs)
    _write_json(args.out, doc)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_detect(args) -> int:
    w = witness_from_document(_load_json(args.witness))
    if args.eps is not None:
        if args.eps < 0:
            raise DocumentError(f"--eps: must be nonnegative, got {args.eps}")
        w = w.with_eps(args.eps)
    state = state_from_document(_load_json(args.state))
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
    state = state_from_document(_load_json(args.state))
    print(json.dumps({"dim": state.dim, "l1_coherence": l1_coherence(state)}))
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise DocumentError(f"--samples: must be >= 1, got {args.samples}")
    if args.family is not None:
        family = family_from_document(_load_json(args.family))
        if family.dim != args.d:
            raise DocumentError(f"family dim {family.dim} does not match --d {args.d}")
    else:
        family = finite_family(args.d, args.K)
    report = verify_coverage(
        family, args.d, args.samples, args.seed, coherence_threshold=args.threshold
    )
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
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_bloch_cloud(fh, args.K, args.a, args.b, args.c, args.grid)
    else:
        write_bloch_cloud(sys.stdout, args.K, args.a, args.b, args.c, args.grid)
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
