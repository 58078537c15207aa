"""The nrgit benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory, so nothing needs installing.  Workloads: census, walls, query,
threshold (see README.md).  It runs the workload in a fresh interpreter
(worker.py), which runs each operation in a fresh interpreter of its own
(oneop.py).  With --trace 0 it reports the end-to-end metrics of an
untraced run; with --trace 1 the per-layer metrics of a traced run.  It
prints the machine, a table of every metric by name and unit, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  It exits 1 without that line if the package cannot be imported or
a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import inputs
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], deadline: float) -> str:
    """Run cmd in a session of its own; on time-out, kill the whole session
    (the worker and its operation processes) and wait for it."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def run_worker(args, deadline: float) -> dict:
    cmd = [
        sys.executable, "-s", str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return json.loads(run_child(cmd, deadline).strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nrgit benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = run_worker(args, deadline)
    except (ChildFailed, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    values = result["metrics"]
    if args.trace:
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
    else:
        units = {name: unit for name, (unit, _) in metrics.END_TO_END.items()}
    print(f"machine: nproc={os.cpu_count()} arch={platform.machine()} python={platform.python_version()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for error in result["errors"]:
        print(f"failed: {error}")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    for name, value in result["info"].items():
        print(f"  ({name} {value:.6g}: median measured, not scaled; not a metric)")
    print(f"attempted={result['attempted']} failed={result['failed']}")
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
