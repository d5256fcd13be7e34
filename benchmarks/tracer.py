"""Span tracing of cohwit's modules from outside the program.

Each module is one layer.  Inside ``with tracer:`` every public function of
each layer module, and every public method (plus ``__init__``) of the classes
it defines, is wrapped, and the wrappers are bound wherever ``cohwit``
modules imported the originals.  ``cohwit.cli``'s ``json`` reference is
replaced by a proxy whose ``dump``/``dumps``/``load``/``loads`` are cli spans,
so document I/O is timed where it happens.  Leaving the block puts every
original back.

A span is recorded only where a call crosses into another layer; a call from
a layer into itself opens none, so nested helpers (a draw inside ``normals``,
a coercion inside ``min_eigenvalue``) stay cheap.  Count hooks run on every
call, so counts do not depend on that shortcut.

Spans hold (name, start, end, parent) and stay in memory; a span's self time
is its duration minus its children's.  The benchmark opens a root span per
command, whose self time is the command's unattributed time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rng", "states", "linalg", "generators", "witness", "verify", "cli")
UNATTRIBUTED = "unattributed"

# Entry points the benchmark itself calls; they are the root span, not cli work.
_ENTRY_POINTS = {"cohwit.cli.run", "cohwit.cli.main"}

WITNESS_EVAL = {"Witness.evaluate", "Witness.evaluate_batch", "WitnessFamily.evaluate", "WitnessFamily.detects"}
CLI_WRITE = {
    "json.dump",
    "json.dumps",
    "write_bloch_cloud",
    "bloch_cloud",
    "matrix_to_document",
    "witness_to_document",
    "family_to_document",
}
CLI_PARSE = {
    "json.load",
    "json.loads",
    "matrix_from_document",
    "state_from_document",
    "witness_from_document",
    "family_from_document",
}


def _count(key):
    def hook(c, args, result):
        c[key] += 1

    return hook


def _evaluate_hook(c, args, result):
    c["witness.eval_pairs"] += 1
    c["witness.eval_hits"] += bool(result.detected)
    c["witness.eval_bytes"] += 2 * args[0].matrix.nbytes  # witness and state matrices


def _evaluate_batch_hook(c, args, result):
    values, _, detected = result
    n = values.size
    d = args[0].dim
    c["witness.eval_pairs"] += n
    c["witness.eval_hits"] += int(detected.sum())
    c["witness.eval_bytes"] += (n + 1) * d * d * 16  # complex128 stack plus the witness


def _basis_hook(c, args, result):
    c["generators.basis_builds"] += 1
    c["generators.basis_bytes"] += args[0].stack.nbytes


def _coverage_hook(c, args, result):
    c["verify.states"] += result.n_states


# Counts taken on every call (even inside a layer), keyed by span name.
HOOKS = {
    "SplitMix64.next_uint64": _count("rng.draws"),
    "sample_ginibre": _count("states.sampled"),
    "sample_incoherent": _count("states.sampled"),
    "sample_hermitian": _count("states.sampled"),
    "DensityMatrix.__init__": _count("states.validated"),
    "as_complex_matrix": _count("linalg.coerce"),
    "GeneratorBasis.__init__": _basis_hook,
    "Witness.__init__": _count("witness.constructed"),
    "Witness.evaluate": _evaluate_hook,
    "Witness.evaluate_batch": _evaluate_batch_hook,
    "verify_coverage": _coverage_hook,
}
# Failures counted on every call, keyed by span name.
ERROR_COUNTS = {"DensityMatrix.__init__": "states.rejected"}


class Tracer:
    def __init__(self):
        self.self_time: defaultdict[str, float] = defaultdict(float)  # span name -> self seconds
        self.layer_of: dict[str, str] = {UNATTRIBUTED: UNATTRIBUTED}
        self.counts: Counter = Counter()  # includes "<layer>.calls", spans opened per layer
        self.spans: list[tuple[str, float, float, int]] | None = None  # kept while recording
        self._stack: list[list] = []  # open spans: [name, start, child_time, span_id, outer layer]
        self._layer = None
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        span_id = -1
        if self.spans is not None:
            span_id = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, time.perf_counter(), 0.0, span_id, self._layer]
        self._stack.append(frame)
        self._layer = layer
        self.counts[layer + ".calls"] += 1
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id, outer = frame
        dur = end - start
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self._layer = outer
        if span_id >= 0:
            self.spans[span_id] = (name, start, end, self.spans[span_id][3])

    def command(self, fn, *args):
        """Run ``fn(*args)`` under a root span."""
        frame = self._open(UNATTRIBUTED, UNATTRIBUTED)
        try:
            return fn(*args)
        finally:
            self._close(frame)

    def reset(self) -> None:
        self.self_time.clear()
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        error_key = ERROR_COUNTS.get(name)
        counts = self.counts
        self.layer_of[name] = layer

        open_, close = self._open, self._close

        # The layer test comes first: inside a layer the original runs with
        # nothing but the count hook, which keeps per-draw calls cheap.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layer == layer:
                if error_key is None:
                    result = fn(*args, **kwargs)
                else:
                    try:
                        result = fn(*args, **kwargs)
                    except Exception:
                        counts[error_key] += 1
                        raise
            else:
                frame = open_(name, layer)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    if error_key is not None:
                        counts[error_key] += 1
                    raise
                finally:
                    close(frame)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        import cohwit  # noqa: F401  (loads every layer module)

        plan = []
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"cohwit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if f"{mod.__name__}.{attr}" in _ENTRY_POINTS:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException) or hasattr(obj, "__members__"):
                        continue  # errors and enums carry no work
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            plan.append((obj, meth, fn, self._wrap(fn, f"{obj.__name__}.{meth}", layer)))
                elif callable(obj):
                    wrapped[id(obj)] = self._wrap(obj, attr, layer)
        # Rebind every module-level reference to a wrapped function, including
        # the package namespace and `from .x import f` sites in other layers.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cohwit" or mod_name.startswith("cohwit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    plan.append((mod, attr, obj, wrapped[id(obj)]))
        cli = sys.modules["cohwit.cli"]
        plan.append((cli, "json", cli.json, _JsonProxy(self)))
        return plan

    def __enter__(self) -> "Tracer":
        """Install the wrappers; leaving the block puts every original back."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        out = dict.fromkeys((*LAYERS, UNATTRIBUTED), 0.0)
        for name, t in self.self_time.items():
            out[self.layer_of[name]] += t
        return out

    def named_self_time(self, names) -> float:
        return sum(t for name, t in self.self_time.items() if name in names)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent"],
                    "spans": [[n, self.layer_of[n], s, e, p] for n, s, e, p in self.spans or ()],
                },
                fh,
            )
            fh.write("\n")


class _JsonProxy:
    """Stand-in for the ``json`` module inside ``cohwit.cli``."""

    def __init__(self, tracer: Tracer):
        for fn in ("dump", "dumps", "load", "loads"):
            setattr(self, fn, tracer._wrap(getattr(json, fn), f"json.{fn}", "cli"))

    def __getattr__(self, attr):
        return getattr(json, attr)
