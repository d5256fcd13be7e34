"""Compare two checkouts on the benchmark workloads and write a BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --claim verify-large-d \
        --pairs verify-large-d=10,verify-small-d=5,bloch-csv=5,family-doc=5 \
        --topic "..." --out BENCH_topic.json

``--claim`` names the workload whose ``cmd_p50_s`` the change claims to
improve; without it no gain is claimed and the summary has no claim line.
The summary always lists every workload's ``cmd_p50_s`` medians and pair
wins and each end-to-end metric's change/parent median ratio.

Each checkout is a full tree (for example ``git archive`` of a commit) with
its own ``benchmarks/run.py``.  Pair i of a workload runs both checkouts at
seed i + 1, one after the other, alternating which runs first.  Then each
checkout runs once at the hold-out seed and once traced (``--trace 1``) at
seed 1.  Every run is a fresh ``run.py`` process; nothing runs concurrently.
The file records the machine, every run's end-to-end metrics, their medians
and quartiles, how many pairs the change won, and the traced per-layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HOLDOUT_SEED = 8_675_309
END_TO_END = {  # metric -> True when higher is better
    "setup_s": False,
    "cmd_p50_s": False,
    "cmd_tail_s": False,
    "items_per_s": True,
    "peak_rss_mb": False,
}
SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(record, result) of one ``run.py`` process in ``tree``."""
    argv = [sys.executable, os.path.join(tree, "benchmarks", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(trees: dict, workload: str, pairs: int, seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(trees[side], workload, i + 1, seconds, 0))
            print(f"{workload} seed {i + 1} {side}: "
                  f"cmd_p50_s {runs[side][-1][1]['metrics']['cmd_p50_s']['value']:.4g}", file=sys.stderr)
    metrics = {}
    for name, higher in END_TO_END.items():
        values = {side: [res["metrics"][name]["value"] for _, res in runs[side]] for side in SIDES}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "change_wins": wins,
            "change_over_parent_median": statistics.median(values["change"]) / statistics.median(values["parent"]),
            "parent_runs": values["parent"],
            "change_runs": values["change"],
        }
    holdout = {}
    for side in SIDES:
        rec, res = run_once(trees[side], workload, HOLDOUT_SEED, seconds, 0)
        holdout[side] = {k: v["value"] for k, v in res["metrics"].items()}
        holdout[side]["output_sha256"] = rec["output_sha256"]
    return {
        "pairs": pairs,
        "seeds": list(range(1, pairs + 1)),
        "metrics": metrics,
        "failed": {side: sum(res["failed"] for _, res in runs[side]) for side in SIDES},
        "attempted": {side: sum(res["attempted"] for _, res in runs[side]) for side in SIDES},
        "output_sha256_equal_every_seed": all(
            p[0]["output_sha256"] == c[0]["output_sha256"] for p, c in zip(runs["parent"], runs["change"])
        ),
        f"holdout_seed_{HOLDOUT_SEED}": holdout,
        "output_sha256_seed1": runs["change"][0][0]["output_sha256"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", required=True, help="comma-separated WORKLOAD=PAIRS")
    parser.add_argument("--claim", help="workload whose cmd_p50_s the change claims (default: no claim)")
    parser.add_argument("--topic", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs.split(","))]
    if args.claim is not None and args.claim not in dict(plan):
        parser.error(f"--claim {args.claim} is not among the --pairs workloads")
    report = {
        "topic": args.topic,
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 "
        "(parent and change checkouts, alternating which runs first)",
        "machine": None,
        "summary": {},
        "workloads": {},
        "per_layer_trace_seed1": {},
    }
    for workload, pairs in plan:
        report["workloads"][workload] = compare(trees, workload, pairs, args.seconds)
    for workload, _ in plan:
        traced = {}
        for side in SIDES:
            rec, res = run_once(trees[side], workload, 1, args.seconds, 1)
            traced[side] = {k: v["value"] for k, v in res["metrics"].items()}
            traced[side]["dominant_layer"] = rec["dominant_layer"]
        report["per_layer_trace_seed1"][workload] = traced
    report["machine"] = {k: v for k, v in rec["machine"].items() if k != "git_commit"}

    summary = {}
    if args.claim is not None:
        held = report["workloads"][args.claim][f"holdout_seed_{HOLDOUT_SEED}"]
        summary["claim"] = f"cmd_p50_s on {args.claim} improves"
        summary[f"hold-out seed {HOLDOUT_SEED}, {args.claim} cmd_p50_s"] = (
            f"parent {held['parent']['cmd_p50_s']:.4f} s, change {held['change']['cmd_p50_s']:.4f} s"
        )
    for workload, result in report["workloads"].items():
        p50 = result["metrics"]["cmd_p50_s"]
        summary[f"{workload} cmd_p50_s"] = (
            f"parent median {p50['parent']['median']:.4f} s (IQR {p50['parent']['q1']:.4f}-{p50['parent']['q3']:.4f}), "
            f"change {p50['change']['median']:.4f} s (IQR {p50['change']['q1']:.4f}-{p50['change']['q3']:.4f}); "
            f"change faster in {p50['change_wins']} of {result['pairs']} pairs"
        )
    summary["change_over_parent_median"] = {
        w: {name: m["change_over_parent_median"] for name, m in r["metrics"].items()}
        for w, r in report["workloads"].items()
    }
    summary["failed"] = {w: r["failed"] for w, r in report["workloads"].items()}
    summary["output_sha256_equal_every_seed"] = {w: r["output_sha256_equal_every_seed"] for w, r in report["workloads"].items()}
    report["summary"] = summary
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
