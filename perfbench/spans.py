"""In-memory span recorder for the traced run.

Tracer replaces each public function of the nrgit modules, at every module
binding that refers to it, with a wrapper that records a span around the
call, and puts the originals back when switched off.  Spans are timed on
the process CPU clock, like the operations in oneop.py, and folded
into per-name totals as they close: calls, total time and self time, where
self time is the span's duration minus the durations of its child spans.
The recorder's own bookkeeping is charged to neither the span nor its
parent.  Some spans also add counters (points out, moves out, hull sizes).

AffineN arithmetic, weight2, cmp and the Divisor check validate are not
wrapped: they run for every weight or profile built and a wrapper would swamp
the trace, so oneop.py times AffineN with an untraced microbenchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("polytope", "hilbert_mumford", "binary_forms", "envelope", "vgit", "oracle", "cli")
# leaf helpers called for every weight or Divisor built
NOT_WRAPPED = {"polytope.weight2", "polytope.cmp", "binary_forms.validate"}
# private bindings wrapped for a per-layer count: vgit's full profile census
EXTRA = ("vgit._all_profiles",)


def _hull_bucket(args, result):
    k = len(args[0].distinct())
    bucket = "k_le_6" if k <= 6 else "k_7_12" if k <= 12 else "k_gt_12"
    return {f"polytope.contains_origin.calls.{bucket}": 1}


def _points_out(name):
    return lambda args, result: {f"{name}.points_out": len(result)}


def _moves_out(args, result):
    return {f"oracle.moves_for.{args[0].value}.moves_out": len(result.moves)}


# name -> function of the call's arguments giving the span name
LABELS = {
    "oracle.moves_for": lambda args: f"oracle.moves_for.{args[0].value}",
}
# name -> function of (args, result) giving counter increments
COUNTERS = {
    "polytope.contains_origin": _hull_bucket,
    "polytope.scaled_minkowski": _points_out("polytope.scaled_minkowski"),
    "envelope.point_polytope": _points_out("envelope.point_polytope"),
    "oracle.moves_for": _moves_out,
}


class Recorder:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self._stack = [[0]]  # child time of the open spans, root first

    def wrap(self, fn, name):
        stack, spans, counts = self._stack, self.spans, self.counts
        label = LABELS.get(name)
        counter = COUNTERS.get(name)
        clock = time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_pre = clock()
            span = label(args) if label else name
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                entry = spans.get(span)
                if entry is None:
                    entry = spans[span] = [0, 0, 0]
                entry[0] += 1
                entry[1] += t1 - t0
                entry[2] += t1 - t0 - frame[0]
            if counter:
                for key, value in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            stack[-1][0] += clock() - t_pre
            return result

        return wrapper


def targets(package) -> dict[str, object]:
    """'module.function' -> function, for every public function that one of
    the package's modules defines."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"{package.__name__}.{short}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == mod.__name__ and f"{short}.{attr}" not in NOT_WRAPPED:
                out[f"{short}.{attr}"] = value
    return out


def bindings(package) -> list[tuple[object, str, object, str]]:
    """(module, attribute, function, span name) for every binding of a
    wrapped function in the package and its submodules, plus EXTRA."""
    by_id = {id(fn): name for name, fn in targets(package).items()}
    prefix = package.__name__
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != prefix and not mod_name.startswith(prefix + "."):
            continue
        for attr, value in vars(mod).items():
            name = by_id.get(id(value))
            if name is not None:
                out.append((mod, attr, value, name))
    for name in EXTRA:
        short, attr = name.split(".")
        mod = sys.modules[f"{prefix}.{short}"]
        out.append((mod, attr, getattr(mod, attr), name))
    return out


class Tracer:
    """Switches every binding between the original and a recording wrapper."""

    def __init__(self, package):
        self.recorder = Recorder()
        wrappers = {}
        self._on = []
        self._off = []
        for mod, attr, fn, name in bindings(package):
            if name not in wrappers:
                wrappers[name] = self.recorder.wrap(fn, name)
            self._on.append((mod, attr, wrappers[name]))
            self._off.append((mod, attr, fn))

    def on(self):
        for mod, attr, value in self._on:
            setattr(mod, attr, value)

    def off(self):
        for mod, attr, value in self._off:
            setattr(mod, attr, value)
