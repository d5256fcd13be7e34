"""Compare two checkouts on the benchmark workloads and write a BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --claim family-doc:items_per_s \
        --pairs verify-large-d=10,verify-small-d=5,bloch-csv=5,family-doc=5 \
        --topic "..." --out BENCH_topic.json

``--claim WORKLOAD:METRIC`` names the workload and the end-to-end metric
the change claims to improve (a plain ``WORKLOAD`` means its ``cmd_p50_s``);
without it no gain is claimed and the summary has no claim lines.  The metric
must be one BENCHMARK.json declares, and wins and the median gap are counted
in the direction its ``better`` gives.  ``claim_met`` is true when the change
is better in at least nine tenths of that workload's pairs and its median is
better than the parent's by more than the parent's interquartile range; the
hold-out seed's result is reported beside it.  The summary always lists every
workload's ``cmd_p50_s`` medians and pair wins, each end-to-end metric's
change/parent median ratio, and under ``beyond_bound`` every (workload,
metric) whose ratio is worse than that metric's bound in the change
checkout's ``BENCHMARK.json``, which the tool only reads.  Under ``unresolved`` it lists every (workload, metric)
whose parent runs spread wider than the bound (interquartile range over
median), unless every change run reads better than every parent run: there
the ratio cannot tell a change within the bound from one beyond it.  Under
``per_layer_median_busy_s`` it gives, for each workload and layer, each
side's median ``busy_s`` over its traced runs, the spread (max - min) of
those runs, and the change - parent median delta; ``unresolved_layers``
lists every (workload, layer) whose delta is smaller than either side's
spread, where the traced runs cannot tell the sign of the change.  Every
workload needs at least two pairs, so that its runs have quartiles.

Each checkout is a full tree (for example ``git archive`` of a commit) with
its own ``benchmarks/run.py``.  Pair i of a workload runs both checkouts at
seed i + 1, one after the other, alternating which runs first.  Then each
checkout runs once at the hold-out seed, and TRACED_RUNS times traced
(``--trace 1``) at seed 1, again alternating which runs first.  Every run is
a fresh ``run.py`` process; nothing runs concurrently.  The file records the
machine, every run's end-to-end metrics, their medians and quartiles, how
many pairs the change won, and every traced run's per-layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HOLDOUT_SEED = 8_675_309
# Traced runs per side: a traced run's timings spread more than an untraced
# run's, so one traced run can give a layer's delta the wrong sign.
TRACED_RUNS = 3
SIDES = ("parent", "change")


def end_to_end_metrics(tree: str) -> dict:
    """{metric: (higher_is_better, bound)} of the end-to-end metrics that
    ``tree``'s BENCHMARK.json declares."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]}


def beyond_bound(ratio: float, higher: bool, bound: float) -> bool:
    """Whether a change/parent median ratio is worse than ``bound`` allows."""
    return ratio < 1.0 - bound if higher else ratio > 1.0 + bound


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(record, result) of one ``run.py`` process in ``tree``."""
    argv = [sys.executable, os.path.join(tree, "benchmarks", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def unresolved(parent: list[float], change: list[float], higher: bool, bound: float) -> bool:
    """Whether the parent runs spread wider than ``bound`` allows (IQR over
    median) while the change runs do not all read better than every parent run."""
    p = spread(parent)
    if (p["q3"] - p["q1"]) / p["median"] <= bound:
        return False
    return not (min(change) > max(parent) if higher else max(change) < min(parent))


def layer_busy(traced: dict) -> dict:
    """{layer: each side's median busy_s and spread (max - min) over its
    traced runs, and the change - parent median delta} of one workload."""
    out = {}
    for key in traced["parent"][0]:
        if key.endswith(".busy_s"):
            row = {}
            for side in SIDES:
                values = [run[key] for run in traced[side]]
                row[side], row[f"{side}_spread"] = statistics.median(values), max(values) - min(values)
            row["change_minus_parent"] = row["change"] - row["parent"]
            out[key[: -len(".busy_s")]] = row
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(trees: dict, workload: str, pairs: int, seconds: float, end_to_end: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(trees[side], workload, i + 1, seconds, 0))
            print(f"{workload} seed {i + 1} {side}: "
                  f"cmd_p50_s {runs[side][-1][1]['metrics']['cmd_p50_s']['value']:.4g}", file=sys.stderr)
    metrics = {}
    for name, (higher, _) in end_to_end.items():
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
    parser.add_argument("--claim", help="WORKLOAD[:METRIC] the change claims to improve; METRIC "
                        "defaults to cmd_p50_s (default: no claim)")
    parser.add_argument("--topic", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs.split(","))]
    too_few = [f"{w}={n}" for w, n in plan if n < 2]
    if too_few:
        parser.error(f"every workload needs at least 2 pairs, got {', '.join(too_few)}")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    end_to_end = end_to_end_metrics(trees["change"])
    if args.claim is not None:
        claim_workload, _, claim_metric = args.claim.partition(":")
        claim_metric = claim_metric or "cmd_p50_s"
        if claim_workload not in dict(plan):
            parser.error(f"--claim {args.claim}: {claim_workload} is not among the --pairs workloads")
        if claim_metric not in end_to_end:
            parser.error(f"--claim {args.claim}: BENCHMARK.json declares no end-to-end metric {claim_metric}")
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
        report["workloads"][workload] = compare(trees, workload, pairs, args.seconds, end_to_end)
    for workload, _ in plan:
        traced = {side: [] for side in SIDES}
        for i in range(TRACED_RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                rec, res = run_once(trees[side], workload, 1, args.seconds, 1)
                traced[side].append({k: v["value"] for k, v in res["metrics"].items()})
                traced[side][-1]["dominant_layer"] = rec["dominant_layer"]
        report["per_layer_trace_seed1"][workload] = traced
    report["machine"] = {k: v for k, v in rec["machine"].items() if k != "git_commit"}

    summary = {}
    if args.claim is not None:
        claimed = report["workloads"][claim_workload]
        metric = claimed["metrics"][claim_metric]
        higher = end_to_end[claim_metric][0]
        gap = metric["change"]["median"] - metric["parent"]["median"]
        gap = gap if higher else -gap
        iqr = metric["parent"]["q3"] - metric["parent"]["q1"]
        held = claimed[f"holdout_seed_{HOLDOUT_SEED}"]
        summary["claim"] = f"{claim_metric} on {claim_workload} improves"
        summary["claim_met"] = 10 * metric["change_wins"] >= 9 * claimed["pairs"] and gap > iqr
        summary["claim_rule"] = (
            f"change better ({'higher' if higher else 'lower'}) in {metric['change_wins']} of "
            f"{claimed['pairs']} pairs (needs 9/10); median gap {gap:.6g} against parent IQR "
            f"{iqr:.6g} (gap must be larger)"
        )
        summary[f"hold-out seed {HOLDOUT_SEED}, {claim_workload} {claim_metric}"] = (
            f"parent {held['parent'][claim_metric]:.6g}, change {held['change'][claim_metric]:.6g}"
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
    summary["beyond_bound"] = [
        {"workload": w, "metric": name, "change_over_parent_median": m["change_over_parent_median"],
         "bound": end_to_end[name][1]}
        for w, r in report["workloads"].items()
        for name, m in r["metrics"].items()
        if beyond_bound(m["change_over_parent_median"], *end_to_end[name])
    ]
    summary["unresolved"] = [
        {"workload": w, "metric": name,
         "parent_iqr_over_median": (m["parent"]["q3"] - m["parent"]["q1"]) / m["parent"]["median"],
         "bound": end_to_end[name][1]}
        for w, r in report["workloads"].items()
        for name, m in r["metrics"].items()
        if unresolved(m["parent_runs"], m["change_runs"], *end_to_end[name])
    ]
    summary["per_layer_median_busy_s"] = {
        w: layer_busy(traced) for w, traced in report["per_layer_trace_seed1"].items()
    }
    summary["unresolved_layers"] = [
        {"workload": w, "layer": layer, **row}
        for w, layers in summary["per_layer_median_busy_s"].items()
        for layer, row in layers.items()
        if abs(row["change_minus_parent"]) < max(row["parent_spread"], row["change_spread"])
    ]
    summary["failed"] = {w: r["failed"] for w, r in report["workloads"].items()}
    summary["output_sha256_equal_every_seed"] = {w: r["output_sha256_equal_every_seed"] for w, r in report["workloads"].items()}
    report["summary"] = summary
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
