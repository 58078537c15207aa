"""Run one workload and print its result as JSON.

    python3 perfbench/worker.py --workload census --seed 1 --seconds 20 --trace 0

run.py starts this script; it is not meant to be run by hand.  The worker
runs passes over the workload's input set until the time is up, checks
every answer, and prints one JSON line: attempted, failed, the first few
errors, its metrics, and the median wall time of an operation for
reference.  With --trace 0 those are the untraced end-to-end metrics; with
--trace 1 every input runs untraced and then traced, and the metrics are the
per-layer ones.

Every operation runs in a fresh interpreter of its own (oneop.py), one after
another, as each command of a user runs in its own process: nothing an
operation leaves in memory (a memo, a cached parser) reaches the next one.
The worker itself never imports nrgit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import metrics

HERE = Path(__file__).resolve().parent
MAX_ERRORS = 5
# fewest set-up samples in a run; the operations' own interpreters give more
SETUP_RUNS = 20
# CPU seconds of oneop.reference() on the machine named in README.md when
# it was quiet.  Times are reported scaled to that speed: measured CPU time
# times REFERENCE_S over the reference's time in the same interpreter.
REFERENCE_S = 0.004


def scaled(seconds: float, refs: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.fmean(refs)


class Workload:
    """Runs and checks single inputs; counts attempts, failures and work, and
    keeps the set-up time of every interpreter it starts."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setups: list[float] = []
        self._census_work: dict[tuple, int] = {}

    def execute(self, request: dict) -> dict:
        """Run oneop.py on one request in a fresh interpreter and wait for it."""
        proc = subprocess.run(
            [sys.executable, "-S", str(HERE / "oneop.py")],
            input=json.dumps(request), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"oneop.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(scaled(result["setup"], result["ref"][:1]))
        if "cpu" in result:
            result["scaled"] = scaled(result["cpu"], result["ref"])
        return result

    def run(self, op: dict, trace: str | None = None) -> dict:
        """Run, time and check one input; return what oneop.py reported, or
        None times if it could not run."""
        self.attempted += 1
        try:
            res = self.execute({"op": op, "trace": trace})
            error = res["error"] or checks.check(op, res["rc"], res["out"], self.golden)
        except Exception as exc:  # a crash is a failed answer, not the end of the run
            res, error = {"cpu": None, "scaled": None, "wall": None}, f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{op.get('argv', op)}: {error}")
        return res

    def work(self, op: dict) -> int:
        """Units of work in one input: census checks, walls regions, or 1."""
        if op["kind"] == "census":
            key = (op["n"], op["m"], op["r"])
            if key not in self._census_work:
                self._census_work[key] = checks.census_expected(*key)["checks_run"]
            return self._census_work[key]
        if op["kind"] == "walls":
            return checks.walls_regions(op["n"])
        return 1


def peak_rss_mb() -> float:
    """Peak resident set of the largest interpreter the worker has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def measure(w: Workload, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics.  An input's time is its median over the run's
    passes; the run stops when the time is up, after at least one whole
    pass.  Extra set-up samples are spread over the run."""
    ops = inputs.input_set(workload, seed)
    samples: list[list[float]] = [[] for _ in ops]
    raw_times, wall_times = [], []
    w.setups.clear()
    start = time.perf_counter()
    for n, (i, op) in enumerate(itertools.chain.from_iterable(inputs.passes(workload, seed))):
        if n >= len(ops) and time.perf_counter() - start >= seconds:
            break
        res = w.run(op)
        if res["cpu"] is not None:
            samples[i].append(res["scaled"])
            raw_times.append(res["cpu"])
            wall_times.append(res["wall"])
        while len(w.setups) < SETUP_RUNS * (time.perf_counter() - start) / seconds:
            w.execute({})
    while len(w.setups) < SETUP_RUNS:
        w.execute({})
    if not all(samples):
        raise SystemExit(f"{samples.count([])} inputs never ran: {w.errors}")
    per_input = [statistics.median(s) for s in samples]
    values = {
        "op_ms": statistics.median(per_input) * 1e3,
        "work_per_s": sum(w.work(op) for op in ops) / sum(per_input),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(w.setups),
    }
    info = {
        "op_cpu_ms": statistics.median(raw_times) * 1e3,
        "op_wall_ms": statistics.median(wall_times) * 1e3,
    }
    return values, info


def measure_traced(w: Workload, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    spans: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    untraced = traced = 0.0
    runs = 0
    start = time.perf_counter()
    for order in inputs.passes(workload, seed):
        for _, op in order:
            untraced += w.run(op, trace="off")["scaled"] or 0.0
            res = w.run(op, trace="on")
            traced += res["scaled"] or 0.0
            for name, entry in res.get("spans", {}).items():
                spans[name] = [a + b for a, b in zip(spans.get(name, (0, 0, 0)), entry)]
            for key, value in res.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
            runs += 1
        if time.perf_counter() - start >= seconds:
            break
    census_op = inputs.input_set("census", seed)[0]
    computed = {
        "polytope.affine_ops_per_s": w.execute({"affine": census_op})["affine_ops_per_s"],
        "vgit.census_enumerations": spans.get("vgit._all_profiles", (0,))[0] / runs,
        "trace.overhead_frac": traced / untraced,
    }
    return metrics.per_layer_values(spans, counts, runs, computed), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    golden = json.loads((HERE / "golden.json").read_text())
    w = Workload(golden)
    w.execute({})  # fails at once if nrgit cannot be imported; writes the bytecode caches
    measure_fn = measure_traced if args.trace else measure
    values, info = measure_fn(w, args.workload, args.seed, args.seconds)
    print(json.dumps({
        "attempted": w.attempted, "failed": w.failed, "errors": w.errors, "metrics": values, "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
