"""Benchmark workloads: the argv each one sends to ``cohwit.cli.run`` and the
correctness gate its outputs must pass.

A workload is a closed loop with one client: one *operation* is issued only
after the previous one returned.  Every operation of a run uses the same argv,
derived from the benchmark seed alone, so its output bytes must repeat exactly.

Sizes are chosen so that one operation takes a few tenths of a second on a
2-core x86 machine, which gives each 20 s run enough operations for a median
and a tail percentile with ten samples beyond it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

# The CLI's default detection margin (README: "default detect_eps 1e-9").
DETECT_EPS = 1e-9


@dataclass
class Outcome:
    """Gate verdict for one operation's outputs."""

    ok: bool
    items: int = 0
    reason: str = ""
    rows_written: int = 0


@dataclass
class Command:
    argv: list[str]
    out_path: str | None = None  # file the command writes, part of its output
    in_path: str | None = None  # file the command reads


@dataclass
class Workload:
    name: str
    predicted: tuple[str, ...]  # layers predicted to dominate self time
    commands: list[Command]  # one operation, issued in order
    warmup: list[str]  # small command that fills the same caches
    gate: Callable[[list[tuple[int, bytes]]], Outcome]
    params: dict = field(default_factory=dict)


def _program_seed(workload: str, seed: int) -> int:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}").getrandbits(31)


# --- gates -----------------------------------------------------------------


def check_verify(output: bytes, rc: int, *, d: int, samples: int, seed: int) -> Outcome:
    """A ``verify`` report that proves the guarantee on this ensemble."""
    if rc != 0:
        return Outcome(False, reason=f"exit code {rc}")
    try:
        rep = json.loads(output)
    except ValueError as exc:
        return Outcome(False, reason=f"stdout is not JSON: {exc}")
    if not isinstance(rep, dict):
        return Outcome(False, reason="report is not a JSON object")
    expected = {"verdict": "PASS", "n_false_alarm": 0, "dim": d, "n_states": samples, "seed": seed}
    for key, want in expected.items():
        if rep.get(key) != want:
            return Outcome(False, reason=f"{key} = {rep.get(key)!r}, expected {want!r}")
    if rep.get("n_detected") != rep.get("n_coherent"):
        return Outcome(False, reason=f"n_detected {rep.get('n_detected')} != n_coherent {rep.get('n_coherent')}")
    if len(rep.get("per_witness_hits", ())) != d * (d - 1):
        return Outcome(False, reason="per_witness_hits does not list d(d-1) members")
    return Outcome(True, items=samples)


def lattice_count(grid: int) -> int:
    """In-ball points of the grid**3 lattice over [-1, 1]^3 (README, ``bloch``)."""
    # The points of np.linspace(-1, 1, grid), in the same rounding: i * step
    # + start, with the last point snapped to the endpoint.
    step = 2.0 / (grid - 1)
    axis = [i * step + -1.0 for i in range(grid)]
    axis[-1] = 1.0
    sq = [v * v for v in axis]
    return sum(1 for x in sq for y in sq for z in sq if x + y + z <= 1.0)


def check_bloch(output: bytes, rc: int, *, K: float, a: float, b: float, c: float, grid: int) -> Outcome:
    """CSV rows over the in-ball lattice whose verdicts match the plane rule.

    A point is detected iff ``|ax + by + cz| > |c| + 2 detect_eps``, recomputed
    here from the printed coordinates; the printed value must be
    ``(K + ax + by + cz) / 2``.
    """
    if rc != 0:
        return Outcome(False, reason=f"exit code {rc}")
    lines = output.decode("utf-8").split("\n")
    if lines[0] != "x,y,z,value,verdict" or lines[-1] != "":
        return Outcome(False, reason="missing header or trailing newline")
    rows = lines[1:-1]
    want = lattice_count(grid)
    if len(rows) != want:
        return Outcome(False, reason=f"{len(rows)} rows, expected {want} lattice points")
    cut = abs(c) + 2.0 * DETECT_EPS
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 5:
            return Outcome(False, reason=f"row {i}: {len(parts)} fields")
        try:
            x, y, z, value = (float(p) for p in parts[:4])
        except ValueError:
            return Outcome(False, reason=f"row {i}: non-numeric field")
        if x * x + y * y + z * z > 1.0:
            return Outcome(False, reason=f"row {i}: point outside the ball")
        s = a * x + b * y + c * z
        verdict = "Detected" if abs(s) > cut else "NotDetected"
        if parts[4] != verdict:
            return Outcome(False, reason=f"row {i}: verdict {parts[4]}, plane rule says {verdict}")
        if abs(value - 0.5 * (K + s)) > 1e-12:
            return Outcome(False, reason=f"row {i}: value {value} != (K + ax + by + cz)/2")
    return Outcome(True, items=len(rows), rows_written=len(rows))


def check_family(output: bytes, *, d: int) -> Outcome:
    """A family document with the d(d-1) single-generator members."""
    try:
        doc = json.loads(output)
    except ValueError as exc:
        return Outcome(False, reason=f"family document is not JSON: {exc}")
    members = doc.get("members") if isinstance(doc, dict) else None
    if not isinstance(members, list) or len(members) != d * (d - 1):
        got = len(members) if isinstance(members, list) else members
        return Outcome(False, reason=f"family has {got} members, expected {d * (d - 1)}")
    if any(not isinstance(m, dict) or m.get("dim") != d for m in members):
        return Outcome(False, reason=f"a family member is not a dim-{d} witness")
    return Outcome(True, items=len(members), rows_written=len(members))


# --- workloads -------------------------------------------------------------


def _verify(name: str, d: int, samples: int, seed: int, predicted: tuple[str, ...]) -> Workload:
    s = _program_seed(name, seed)
    return Workload(
        name=name,
        predicted=predicted,
        commands=[Command(["verify", "--d", str(d), "--samples", str(samples), "--seed", str(s)])],
        warmup=["verify", "--d", str(d), "--samples", "2", "--seed", str(s)],
        gate=lambda outs: check_verify(outs[0][1], outs[0][0], d=d, samples=samples, seed=s),
        params={"d": d, "samples": samples, "seed": s},
    )


def verify_small_d(seed: int, workdir: str) -> Workload:
    # Sampling and validating 1000 states outweighs the 12-member family.
    return _verify("verify-small-d", 4, 1000, seed, ("rng", "states"))


def verify_large_d(seed: int, workdir: str) -> Workload:
    # Building the 306-member family (a dense generator einsum per member)
    # outweighs sampling 40 states.
    return _verify("verify-large-d", 18, 40, seed, ("generators", "witness"))


def bloch_csv(seed: int, workdir: str) -> Workload:
    # CSV streaming of 33389 rows outweighs the one witness evaluation.  Signs
    # of (a, b, c) and K vary with the seed; every choice is a |±x ± y ± z| > 1
    # plane pair, so the work per operation stays the same.
    rnd = random.Random(f"bloch-csv:{seed}")
    K = rnd.choice([-1.0, -0.5, 0.0, 0.5, 1.0])
    a, b, c = (rnd.choice([-1.0, 1.0]) for _ in range(3))
    grid = 41
    out = os.path.join(workdir, "cloud.csv")
    coeffs = ["--K", repr(K), "--a", repr(a), "--b", repr(b), "--c", repr(c)]
    return Workload(
        name="bloch-csv",
        predicted=("cli",),
        commands=[Command(["bloch", *coeffs, "--grid", str(grid), "--out", out], out_path=out)],
        warmup=["bloch", *coeffs, "--grid", "3", "--out", os.path.join(workdir, "warm.csv")],
        gate=lambda outs: check_bloch(outs[0][1], outs[0][0], K=K, a=a, b=b, c=c, grid=grid),
        params={"K": K, "a": a, "b": b, "c": c, "grid": grid},
    )


def family_doc(seed: int, workdir: str) -> Workload:
    # Writing the 132-member document, then parsing and revalidating it,
    # outweighs sampling 40 states.
    d, samples, s = 12, 40, _program_seed("family-doc", seed)
    K = random.Random(f"family-doc:K:{seed}").choice([-1.0, 0.0, 1.0, 2.0])
    path = os.path.join(workdir, "family.json")

    def gate(outs):
        (gen_rc, gen_out), (ver_rc, ver_out) = outs
        if gen_rc != 0:
            return Outcome(False, reason=f"gen exit code {gen_rc}")
        fam = check_family(gen_out, d=d)
        if not fam.ok:
            return fam
        ver = check_verify(ver_out, ver_rc, d=d, samples=samples, seed=s)
        if not ver.ok:
            return ver
        # Items: family members written, then reloaded by verify.
        return Outcome(True, items=fam.items, rows_written=fam.rows_written)

    return Workload(
        name="family-doc",
        predicted=("cli",),
        commands=[
            Command(["gen", "--kind", "family", "--d", str(d), "--K", repr(K), "--out", path], out_path=path),
            Command(
                ["verify", "--d", str(d), "--samples", str(samples), "--seed", str(s), "--family", path],
                in_path=path,
            ),
        ],
        warmup=["verify", "--d", str(d), "--samples", "2", "--seed", str(s)],
        gate=gate,
        params={"d": d, "samples": samples, "seed": s, "K": K},
    )


WORKLOADS = {
    "verify-small-d": verify_small_d,
    "verify-large-d": verify_large_d,
    "bloch-csv": bloch_csv,
    "family-doc": family_doc,
}

