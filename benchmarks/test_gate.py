"""Self-check of the benchmark's correctness gate.

    python3 -m pytest benchmarks/test_gate.py

Real CLI outputs pass the gate.  Corrupted copies (a flipped verdict, a
dropped row, a failed or short report, a short family document, output bytes
that change between repetitions) are counted as failed by the same loop the
benchmark times.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import cohwit.cli  # noqa: E402
from run import Loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _loop(name, tmp_path, ops=2, stdout=None, out_file=None):
    """Run ``ops`` operations of a workload; ``stdout(text, op)`` and
    ``out_file(text, op)`` may rewrite what each command printed or wrote."""
    wl = WORKLOADS[name](3, str(tmp_path))
    op = [0]

    def call(fn, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = fn(argv)
        text = buf.getvalue()
        sys.stdout.write(stdout(text, op[0]) if stdout and argv[0] == "verify" else text)
        if out_file and "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path, encoding="utf-8") as fh:
                body = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out_file(body, op[0]))
        if argv[0] == wl.commands[-1].argv[0]:
            op[0] += 1
        return rc

    loop = Loop(wl, cohwit.cli.run)
    for _ in range(ops):
        loop.operation(call)
    return loop


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_outputs_pass(name, tmp_path):
    loop = _loop(name, tmp_path)
    assert loop.failed == 0, loop.reasons
    assert loop.items > 0 and len(loop.sha256) == 64


def _edit_report(**changes):
    def edit(text, op):
        rep = json.loads(text)
        rep.update(changes)
        return json.dumps(rep) + "\n"

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _edit_report(verdict="FAIL"),
        _edit_report(n_false_alarm=1),
        _edit_report(n_detected=499),
        _edit_report(n_states=999),
        lambda text, op: "",
    ],
    ids=["verdict-fail", "false-alarm", "missed-state", "short-ensemble", "no-output"],
)
def test_corrupted_verify_report_counts_as_failed(edit, tmp_path):
    loop = _loop("verify-small-d", tmp_path, stdout=edit)
    assert loop.failed == 2, loop.reasons


def _flip_first_verdict(text, op):
    lines = text.split("\n")
    for i, line in enumerate(lines[1:], start=1):
        if line.endswith(",NotDetected"):
            lines[i] = line[: -len("NotDetected")] + "Detected"
            break
    return "\n".join(lines)


def _drop_last_row(text, op):
    lines = text.split("\n")
    return "\n".join(lines[:-2] + [""])


@pytest.mark.parametrize("edit", [_flip_first_verdict, _drop_last_row], ids=["flipped-verdict", "dropped-row"])
def test_corrupted_csv_counts_as_failed(edit, tmp_path):
    loop = _loop("bloch-csv", tmp_path, out_file=edit)
    assert loop.failed == 2, loop.reasons


def test_short_family_document_counts_as_failed(tmp_path):
    def drop_member(text, op):
        doc = json.loads(text)
        if "members" in doc:
            doc["members"].pop()
        return json.dumps(doc)

    loop = _loop("family-doc", tmp_path, out_file=drop_member)
    assert loop.failed == 2, loop.reasons


def test_output_that_changes_between_repetitions_counts_as_failed(tmp_path):
    # Still a valid PASS report, but not byte-identical to the first one.
    loop = _loop("verify-small-d", tmp_path, ops=3, stdout=lambda text, op: text + " " * op)
    assert loop.failed == 2, loop.reasons
