"""Run every workload and print the full benchmark report.

    python3 benchmarks/suite.py --seed 1 --seconds 20 [--out benchmarks/results/baseline.json]

For each workload this runs ``run.py`` as a fresh process four times:
untraced at ``--seed``, untraced at the named hold-out seed, and traced twice
at ``--seed``.  It prints every end-to-end metric with its unit and
``failed_frac``, the per-layer self-time table with the measured dominant layer
beside the predicted one, the tracing overhead, and whether the exact counts
repeated across the two traced runs.  ``--out`` also writes all of it as JSON.
It exits 1 when an output failed its gate or an exact count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from tracer import LAYERS, UNATTRIBUTED
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

# Seed kept out of tuning, so a later claim can be confirmed on inputs it was
# not developed against.
HOLDOUT_SEED = 8_675_309

END_TO_END = ("setup_s", "cmd_p50_s", "cmd_tail_s", "items_per_s", "peak_rss_mb")
EXACT_COUNTS = (
    "rng.draws",
    "states.sampled",
    "linalg.calls",
    "witness.eval_pairs",
    "cli.bytes_written",
    "cli.rows_written",
)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=None, help="also write the report as JSON here")
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "holdout_seed": HOLDOUT_SEED, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = {
            "seed": run_once(name, args.seed, args.seconds, 0),
            "holdout": run_once(name, HOLDOUT_SEED, args.seconds, 0),
            "traced": run_once(name, args.seed, args.seconds, 1),
            "traced_again": run_once(name, args.seed, args.seconds, 1),
        }
        a, b = (runs[k]["result"]["metrics"] for k in ("traced", "traced_again"))
        repeat = {k: a[k]["value"] == b[k]["value"] for k in EXACT_COUNTS}
        repeat["within_run"] = runs["traced"]["record"]["counts_repeat_within_run"]
        ok &= all(repeat.values()) and all(r["result"]["correct"] for r in runs.values())
        report["workloads"][name] = {**runs, "exact_counts_repeat": repeat}
    report["machine"] = report["workloads"][name]["seed"]["record"]["machine"]
    print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def print_report(report: dict) -> None:
    m = report["machine"]
    print(
        f"machine: {m['cpu_model']}, nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, "
        f"{m['blas']} with {m['blas_threads']} threads, commit {m['git_commit']}"
    )
    print(
        f"\nEnd to end, times at reference machine speed ({report['seconds']:g} s per run; "
        f"seed {report['seed']}, hold-out seed {report['holdout_seed']})"
    )
    for name, w in report["workloads"].items():
        for label in ("seed", "holdout"):
            rec, res = w[label]["record"], w[label]["result"]
            vals = "  ".join(
                f"{k}={res['metrics'][k]['value']:.4g} {res['metrics'][k]['unit']}" for k in END_TO_END
            )
            print(
                f"  {name:15s} {label:8s} {vals}  failed_frac={res['failed'] / res['attempted']:g} "
                f"({res['attempted']} cmds, tail = p{rec['cmd_tail_percentile']:.0f}, "
                f"unscaled p50 {rec['wall']['cmd_p50_s']:.4g} s, sha256 {rec['output_sha256'][:12]})"
            )
    print("\nPer-layer self time per command, traced run (share of traced command time)")
    cols = (*LAYERS, UNATTRIBUTED)
    print("  " + f"{'workload':15s}" + "".join(f"{c:>17s}" for c in cols) + "   dominant / predicted")
    for name, w in report["workloads"].items():
        met = w["traced"]["result"]["metrics"]
        rec = w["traced"]["record"]
        cells = "".join(f"{met[c + '.busy_s']['value'] * 1e3:8.2f}ms ({met[c + '.share']['value']:4.0%})" for c in cols)
        verdict = "match" if rec["dominant_layer"] in rec["predicted_layers"] else "MISMATCH"
        print(f"  {name:15s}{cells}   {rec['dominant_layer']} / {'+'.join(rec['predicted_layers'])}: {verdict}")
    print("\nTracing overhead and exact counts")
    for name, w in report["workloads"].items():
        met = w["traced"]["result"]["metrics"]
        counts = ", ".join(f"{k}={met[k]['value']}" for k in EXACT_COUNTS)
        same = "repeat" if all(w["exact_counts_repeat"].values()) else "DIFFER"
        print(
            f"  {name:15s} traced p50 {met['trace.cmd_p50_s']['value']:.4f} s, "
            f"overhead {met['trace.overhead_s']['value']:+.4f} s; {counts}: {same}"
        )


if __name__ == "__main__":
    sys.exit(main())
