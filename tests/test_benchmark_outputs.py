"""The benchmark's workloads, run once each, must keep their recorded output.

Each workload of ``benchmarks/workloads.py`` is built at the baseline seed and
at the hold-out seed, its commands run once through ``cohwit.cli.run``, its
correctness gate is checked, and the SHA-256 of its outputs (stdout, then the
file a command writes) is compared with ``benchmarks/results/baseline.json``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

import pytest

from cohwit.cli import run

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
with open(os.path.join(BENCH, "results", "baseline.json"), encoding="utf-8") as fh:
    BASELINE = json.load(fh)


@pytest.mark.parametrize("run_name", ["seed", "holdout"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_matches_baseline(tmp_path, name, run_name):
    record = BASELINE["workloads"][name][run_name]["record"]
    workload = WORKLOADS[name](record["seed"], str(tmp_path))
    outputs = []
    for cmd in workload.commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = run(cmd.argv)
        data = stdout.getvalue().encode("utf-8")
        if cmd.out_path is not None:
            with open(cmd.out_path, "rb") as out:
                data += out.read()
        outputs.append((rc, data))
    outcome = workload.gate(outputs)
    assert outcome.ok, outcome.reason
    digest = hashlib.sha256(b"".join(data for _, data in outputs)).hexdigest()
    assert digest == record["output_sha256"]
