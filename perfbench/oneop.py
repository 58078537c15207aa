"""Run one benchmark operation in a fresh interpreter, as a user runs one command.

    echo '{"op": null}' | python3 perfbench/oneop.py

worker.py starts this script once per operation and waits for it; it is not
meant to be run by hand.  It first times `import nrgit.cli` plus
`build_parser()` on the CPU clock, before it imports anything else, then
reads one JSON request from standard input:

    {"op": <input dict from inputs.py, or null>, "trace": null, "off" or "on"}
    {"affine": <census input dict>}

and prints one JSON line: the set-up time, the CPU time of a fixed reference
computation run right after set-up (and again after an operation), and for
an operation its CPU and wall time, exit code, output and error, with
"trace": "on" the span totals of spans.py as well; for "affine", the AffineN
operations per second.

An operation's time is the CPU time of this process plus that of any child
process it started and waited for.  The commands are single-threaded and
CPU-bound, so this is their wall time minus the time the host takes the
virtual CPU away.  An operation that leaves a child process running, whose
time would go unmeasured, or a thread, which would slow the reference
computation after it, is reported with an error.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
t0 = time.process_time()
sys.path.insert(0, SRC)
import nrgit.cli  # noqa: E402

nrgit.cli.build_parser()
SETUP_S = time.process_time() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from fractions import Fraction  # noqa: E402

AFFINE_REPEATS = 5
REFERENCE_TERMS = 1000
clock = time.process_time


def reference() -> float:
    """CPU time of a fixed piece of work: small-number arithmetic in the
    standard library's Fraction, which nrgit spends most of its time in.
    nrgit cannot change it, so it measures only how fast the machine runs
    Python at this moment."""
    t0 = clock()
    total = Fraction(0)
    for i in range(REFERENCE_TERMS):
        total = (total + Fraction(i % 7 + 1, i % 11 + 2)) % 3
    return clock() - t0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def left_child_running() -> bool:
    """True if this process has a child process it has not waited for."""
    try:
        return os.waitpid(-1, os.WNOHANG) is not None
    except ChildProcessError:
        return False


def left_thread_running() -> bool:
    """True if this process runs a thread besides the main one."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return threading.active_count() > 1


def call(op: dict):
    """Run one input; return (exit code, output), where the output of a
    threshold input is N0."""
    if op["kind"] == "threshold":
        lin = nrgit.binary_forms.LinParam(op["m"], op["r"])
        return 0, nrgit.envelope.n_threshold(op["n"], lin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = nrgit.cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
    return rc, out.getvalue()


def run(op: dict, trace: str | None) -> dict:
    """Time one input.  trace "on" records spans; "off" builds the span
    wrappers but leaves them off, so that the untraced twin of a traced
    operation starts from the same state."""
    if trace:
        import spans

        tracer = spans.Tracer(nrgit)
        if trace == "on":
            tracer.on()
    rc = out = error = None
    c0, w0, t0 = children_cpu(), time.perf_counter(), clock()
    try:
        rc, out = call(op)
    except Exception as exc:  # a crash is a failed answer, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    t1, w1, c1 = clock(), time.perf_counter(), children_cpu()
    if trace == "on":
        tracer.off()
    if left_child_running():
        error = "left a child process running, whose time is not measured"
    elif left_thread_running():
        error = "left a thread running, which would slow the reference computation"
    result = {"cpu": t1 - t0 + c1 - c0, "wall": w1 - w0, "rc": rc, "out": out, "error": error}
    if trace == "on":
        result.update(spans=tracer.recorder.spans, counts=tracer.recorder.counts)
    return result


def affine_ops_per_s(op: dict) -> float:
    """Untraced AffineN add, mul and compare over one census's weights."""
    n, m, r = op["n"], op["m"], op["r"]
    params = nrgit.envelope.EnvParams(n, nrgit.binary_forms.LinParam(m, r))
    coords = [c for _, _, w in nrgit.envelope.fixed_point_weights(params) for c in w]
    scale = nrgit.polytope.AffineN(0, m)
    pairs = [(a, b) for a in coords for b in coords]
    rates = []
    for _ in range(AFFINE_REPEATS):
        t0 = clock()
        for a, b in pairs:
            a + b
            a * scale
            a < b
        rates.append(3 * len(pairs) / (clock() - t0))
    return statistics.median(rates)


def main() -> int:
    if os.path.dirname(os.path.realpath(nrgit.__file__)) != os.path.realpath(os.path.join(SRC, "nrgit")):
        sys.exit(f"nrgit was imported from {nrgit.__file__}, not from {SRC}")
    request = json.loads(sys.stdin.read())
    result = {"setup": SETUP_S, "ref": [reference()]}
    if request.get("affine"):
        result["affine_ops_per_s"] = affine_ops_per_s(request["affine"])
    elif request.get("op"):
        result.update(run(request["op"], request.get("trace")))
        result["ref"].append(reference())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
