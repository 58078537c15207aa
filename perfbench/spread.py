"""Run the benchmark once per seed and print each end-to-end metric's median and spread.

    python3 perfbench/spread.py --workload census --seeds 1-10 --seconds 20

The spread is the distance between the first and third quartiles of the
per-seed values (statistics.quantiles, n=4) as a share of their median: the
figure BENCHMARK.json's bounds are checked against.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-5"))
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        report = json.loads(out.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in report["metrics"].items()}
        print(f"seed {seed}: correct={report['correct']} attempted={report['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in line.items()), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<48} median={med:.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
