"""Run one cohwit benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload verify-small-d --seed 1 --seconds 20 --trace 0

The workload's commands go through the real CLI entry point,
``cohwit.cli.run(argv)``, in this process: a closed loop with one client,
each operation issued after the previous one returned.  Every operation's
outputs pass the workload's correctness gate (``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics from traced operations (``tracer.py``) and the tracing
overhead against untraced operations alternating with them.  The last stdout line is the
JSON result; the line before it is the full record (machine, argv, output
SHA-256, sample counts).  Run from the repository root; the package is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7

_SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import cohwit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    sys.exit(cohwit.cli.run(json.loads(sys.argv[2])))
"""


def _cap_blas_threads() -> int:
    """Never more BLAS threads than usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return nproc


# Before anything imports numpy, which reads these once.
NPROC = _cap_blas_threads()

import calibrate  # noqa: E402  (imports numpy)


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, if it can be asked."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def scale(times: list[float], cals: list[float], reference: float) -> list[float]:
    """Times at reference speed, given calibration times with cals[i] taken
    just before times[i] and cals[i + 1] just after, and their typical value
    on the reference machine.  Each time is scaled by the median of the six
    calibration times around it, so one jittery calibration does not skew it."""
    return [t * reference / statistics.median(cals[max(i - 2, 0) : i + 4]) for i, t in enumerate(times)]


def measure_setup(warmup: list[str]) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import cohwit and run the
    warm-up, raw and scaled by the reference start-up process run between
    them."""
    times, cals = [], [calibrate.measure_startup()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, SRC, json.dumps(warmup)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=False,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed ({proc.returncode}): {proc.stderr.decode()[-500:]}")
        cals.append(calibrate.measure_startup())
    return times, scale(times, cals, calibrate.REFERENCE_STARTUP_S)


class Loop:
    """Closed loop over one workload's operation, gating every output."""

    def __init__(self, workload, cli_run, calibrated=False):
        self.wl = workload
        self.cli_run = cli_run
        self.times: list[float] = []  # wall seconds per operation
        # With ``calibrated``, the calibration kernel runs before and after
        # each operation: cals[i] before operation i, cals[i + 1] after it.
        self.cals: list[float] | None = [] if calibrated else None
        self.items = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.sha256: str | None = None
        self.bytes_written = 0
        self.bytes_read = 0
        self.rows_written = 0
        self._gated: dict[str, object] = {}  # output digest -> gate outcome

    def _invoke(self, argv, call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(self.cli_run, argv)
        return rc, out.getvalue().encode("utf-8")

    def operation(self, call=lambda fn, argv: fn(argv)) -> None:
        """Run the workload's commands once; time them and gate the outputs."""
        outputs = []
        elapsed = 0.0
        read = written = 0
        if self.cals == []:
            self.cals.append(calibrate.measure())
        for cmd in self.wl.commands:
            t0 = time.perf_counter()
            try:
                rc, stdout = self._invoke(cmd.argv, call)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                rc, stdout = -1, repr(exc).encode("utf-8")
            elapsed += time.perf_counter() - t0
            if cmd.out_path is not None:
                with open(cmd.out_path, "rb") as fh:
                    stdout += fh.read()
            if cmd.in_path is not None:
                read += os.path.getsize(cmd.in_path)
            written += len(stdout)
            outputs.append((rc, stdout))
        if self.cals is not None:
            self.cals.append(calibrate.measure())
        digest = hashlib.sha256(b"".join(o for _, o in outputs)).hexdigest()
        if digest not in self._gated:
            self._gated[digest] = self.wl.gate(outputs)
        outcome = self._gated[digest]
        if self.sha256 is None:
            self.sha256 = digest
        ok = outcome.ok and digest == self.sha256
        if not ok:
            self.failed += 1
            self.reasons.append(outcome.reason or "output bytes differ from the first operation's")
        self.times.append(elapsed)
        self.items += outcome.items
        self.bytes_written, self.bytes_read, self.rows_written = written, read, outcome.rows_written

    def run_for(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.operation()


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are ten or fewer."""
    v = sorted(times)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, 0
    return v[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl, cli_run, seconds: float) -> tuple[dict, dict, Loop]:
    setup_raw, setup = measure_setup(wl.warmup)
    Loop(wl, cli_run).operation()  # warm-up in this process: caches filled, as after set-up
    loop = Loop(wl, cli_run, calibrated=True)
    loop.run_for(seconds)
    scaled = scale(loop.times, loop.cals, calibrate.REFERENCE_S)
    t_value, t_pct, beyond = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_s": (statistics.median(scaled), "s"),
        "cmd_tail_s": (t_value, "s"),
        "items_per_s": (loop.items / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_tail = tail(loop.times)[0]
    record = {
        "setup_samples_s": setup,
        "cmd_samples": len(loop.times),
        "cmd_tail_percentile": t_pct,
        "cmd_tail_samples_beyond": beyond,
        "failed_frac": loop.failed / len(loop.times),
        # Unscaled figures, as measured on this host.
        "wall": {
            "setup_s": statistics.median(setup_raw),
            "cmd_p50_s": statistics.median(loop.times),
            "cmd_tail_s": raw_tail,
            "items_per_s": loop.items / sum(loop.times),
            "speed_vs_reference": statistics.median(loop.times) / statistics.median(scaled),
        },
    }
    return metrics, record, loop


def per_layer(wl, cli_run, seconds: float, trace_path: str) -> tuple[dict, dict, Loop]:
    from tracer import CLI_PARSE, CLI_WRITE, LAYERS, UNATTRIBUTED, WITNESS_EVAL, Tracer

    tracer = Tracer()
    loop = Loop(wl, cli_run)
    with tracer:
        loop.operation(tracer.command)  # traced warm-up: builds the caches under the tracer
    builds = tracer.counts["generators.basis_builds"]
    basis_bytes = tracer.counts["generators.basis_bytes"]
    # Spans of one traced operation are kept and written out.
    tracer.reset()
    tracer.spans = []
    with tracer:
        loop.operation(tracer.command)
    tracer.write_spans(trace_path)
    tracer.spans = None
    first_counts = dict(tracer.counts)
    first_io = (loop.bytes_written, loop.bytes_read, loop.rows_written)
    tracer.reset()
    # Traced and untraced operations alternate, so the overhead is measured
    # against the same machine state.  Exact counts must repeat on every
    # traced operation.
    traced, untraced = Loop(wl, cli_run), Loop(wl, cli_run)
    repeat = True
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        before = tracer.counts.copy()
        with tracer:
            traced.operation(tracer.command)
        repeat &= dict(tracer.counts - before) == first_counts
        repeat &= (traced.bytes_written, traced.bytes_read, traced.rows_written) == first_io
        untraced.operation()
    n = len(traced.times)

    c = first_counts
    busy = {layer: t / n for layer, t in tracer.layer_self_time().items()}
    total = sum(busy.values())
    eval_s = tracer.named_self_time(WITNESS_EVAL) / n
    pairs = c.get("witness.eval_pairs", 0)
    m = {
        "rng.draws": (c.get("rng.draws", 0), "count"),
        "rng.busy_s": (busy["rng"], "s"),
        "states.sampled": (c.get("states.sampled", 0), "count"),
        "states.rejected": (c.get("states.rejected", 0), "count"),
        "states.busy_s": (busy["states"], "s"),
        "linalg.calls": (c.get("linalg.calls", 0), "count"),
        "linalg.coerce_per_state": (
            c.get("linalg.coerce", 0) / c["states.validated"] if c.get("states.validated") else 0.0,
            "ratio",
        ),
        "linalg.busy_s": (busy["linalg"], "s"),
        "generators.basis_builds": (builds, "count"),
        "generators.basis_bytes_computed": (basis_bytes, "B"),
        "generators.busy_s": (busy["generators"], "s"),
        "witness.constructed": (c.get("witness.constructed", 0), "count"),
        "witness.build_s": (busy["witness"] - eval_s, "s"),
        "witness.eval_pairs": (pairs, "count"),
        "witness.eval_s": (eval_s, "s"),
        "witness.eval_bytes_computed": (c.get("witness.eval_bytes", 0), "B"),
        "witness.hit_frac": (c.get("witness.eval_hits", 0) / pairs if pairs else 0.0, "ratio"),
        "witness.busy_s": (busy["witness"], "s"),
        "verify.states": (c.get("verify.states", 0), "count"),
        "verify.busy_s": (busy["verify"], "s"),
        "cli.rows_written": (first_io[2], "count"),
        "cli.bytes_written": (first_io[0], "B"),
        "cli.write_s": (tracer.named_self_time(CLI_WRITE) / n, "s"),
        "cli.bytes_read": (first_io[1], "B"),
        "cli.parse_s": (tracer.named_self_time(CLI_PARSE) / n, "s"),
        "cli.busy_s": (busy["cli"], "s"),
        "unattributed.busy_s": (busy[UNATTRIBUTED], "s"),
    }
    for layer in (*LAYERS, UNATTRIBUTED):
        m[f"{layer}.share"] = (busy[layer] / total, "ratio")
    traced_p50 = statistics.median(traced.times)
    m["trace.cmd_p50_s"] = (traced_p50, "s")
    m["trace.overhead_s"] = (traced_p50 - statistics.median(untraced.times), "s")
    record = {
        "traced_cmds": n,
        "untraced_cmds": len(untraced.times),
        "counts_repeat_within_run": repeat,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "dominant_layer": max(busy, key=busy.get),
        "predicted_layers": list(wl.predicted),
    }
    # Both loops were gated; report them as one.
    traced.times += untraced.times
    traced.failed += untraced.failed
    traced.reasons += untraced.reasons
    if untraced.sha256 != traced.sha256:
        traced.failed += 1
        traced.reasons.append("traced and untraced outputs differ")
    traced.failed += 0 if repeat else 1
    return m, record, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "cohwit", "cli.py")):
        print(f"error: cohwit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cohwit.cli

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
            metrics, extra, loop = per_layer(wl, cohwit.cli.run, args.seconds, trace_path)
        else:
            metrics, extra, loop = end_to_end(wl, cohwit.cli.run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.times)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [[os.path.relpath(a, ROOT) if a.startswith(workdir) else a for a in c.argv] for c in wl.commands],
        "params": wl.params,
        "output_sha256": loop.sha256,
        "items_per_op": loop.items // max(attempted, 1),
        "failures": sorted(set(loop.reasons))[:5],
        "machine": machine_record(),
        **extra,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": min(loop.failed, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
