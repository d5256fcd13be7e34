"""Time the built-in family's evaluation kernel in two checkouts and write a BENCH_<topic>.json.

    python3 tools/bench_kernel.py --parent DIR --change DIR --out BENCH_closed_form.json

Each checkout is a full tree (for example ``git archive`` of a commit) whose
``src/`` holds the library.  Run i of each side is a fresh process that
imports the library from that tree; the sides alternate which runs first.
One run, on ``sample_ensemble(d, n, seed)`` and ``finite_family(d)``, times:

- ``sample_s``: ``sample_ensemble`` less ``validate_s``;
- ``validate_s``: the state checks inside that ``sample_ensemble`` call,
  timed around each ``states._validate_block`` call it makes, so both trees
  are timed on the check their sampler really runs;
- ``kernel_s``: the family's ``_values`` on the ensemble, the kernel alone;
- ``evaluate_s``: ``evaluate_batch`` (kernel, margins and verdicts);
- ``reduce_s``: ``verify_coverage`` less the time spent inside its own
  sampling and ``evaluate_batch`` calls (size check, l1 coherence and the
  report's counts).  The sweep samples its states a chunk at a time, and
  its sampling is timed around each ``states._ensemble_rows`` call;
- ``verify_coverage_s``: the whole sweep;
- ``parts_s``: ``sample_s + validate_s + evaluate_s + reduce_s`` of the
  same run, to set beside ``verify_coverage_s`` (each median comes from its
  own run, so the medians of the parts need not add up).

Both trees are called as ``verify_coverage(family, n_states, seed)``, with
the dimension read from the family, so a tree whose ``verify_coverage``
still takes ``d`` cannot be timed with this tool.

The file records the machine, every run, each side's median, the
change/parent median ratios, and whether both sides produced the same
kernel values and the same report on every run (the SHA-256 of each).
Only one process runs at a time; the default size holds about 0.5 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
TIMINGS = ("sample_s", "validate_s", "kernel_s", "evaluate_s", "reduce_s", "verify_coverage_s", "parts_s")


def worker(tree: str, d: int, n: int, seed: int) -> dict:
    """One run's timings and output digests, with the library from ``tree``."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import numpy as np
    from cohwit import finite_family, sample_ensemble, states, verify_coverage

    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - start

    inside = {"validate": 0.0, "sample": 0.0, "evaluate": 0.0}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            out, spent = timed(fn, *args, **kwargs)
            inside[key] += spent
            return out

        return wrapped

    family = finite_family(d)
    verify_coverage(family, 2, seed)  # imports, tables and caches, before timing
    validate_block = states._validate_block
    states._validate_block = spy("validate", validate_block)
    stack, sample = timed(sample_ensemble, d, n, seed)
    states._validate_block = validate_block
    values, kernel = timed(family._values, stack)
    digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
    del values
    _, evaluate = timed(family.evaluate_batch, stack)
    del stack
    states._ensemble_rows = spy("sample", states._ensemble_rows)  # the sweep samples one chunk a call
    family.evaluate_batch = spy("evaluate", family.evaluate_batch)
    report, sweep = timed(verify_coverage, family, n, seed)
    reduce = sweep - inside["sample"] - inside["evaluate"]
    return {
        "sample_s": sample - inside["validate"],
        "validate_s": inside["validate"],
        "kernel_s": kernel,
        "evaluate_s": evaluate,
        "reduce_s": reduce,
        "verify_coverage_s": sweep,
        "parts_s": sample + evaluate + reduce,
        "kernel_values_sha256": digest,
        "report_sha256": hashlib.sha256(repr(report).encode()).hexdigest(),
        "numpy": np.__version__,
    }


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": model,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def run_side(tree: str, d: int, n: int, seed: int) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--worker", tree,
            "--d", str(d), "--n", str(n), "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--d", type=int, default=28)
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5, help="runs per side")
    parser.add_argument("--out", help="where to write the JSON")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.d, args.n, args.seed)))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {side: [] for side in SIDES}
    for i in range(args.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_side(trees[side], args.d, args.n, args.seed))
            print(f"run {i + 1} {side}: kernel_s {runs[side][-1]['kernel_s']:.4g}", file=sys.stderr)
    median = {side: {k: statistics.median(r[k] for r in runs[side]) for k in TIMINGS} for side in SIDES}
    digests = {k: {r[k] for side in SIDES for r in runs[side]} for k in ("kernel_values_sha256", "report_sha256")}
    report = {
        "topic": f"finite_family({args.d}) evaluation on sample_ensemble({args.d}, {args.n}, {args.seed})",
        "command": f"python3 tools/bench_kernel.py --d {args.d} --n {args.n} --seed {args.seed} --runs {args.runs} "
        "(parent and change checkouts, one fresh process per run, alternating which runs first)",
        "machine": {**machine(), "numpy": runs["change"][0]["numpy"]},
        "median": median,
        "change_over_parent_median": {k: median["change"][k] / median["parent"][k] for k in TIMINGS},
        "kernel_values_equal": len(digests["kernel_values_sha256"]) == 1,
        "report_equal": len(digests["report_sha256"]) == 1,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
