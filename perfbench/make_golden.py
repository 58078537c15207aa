"""Record the reference answers for the walls and threshold workloads.

    python3 perfbench/make_golden.py

Writes perfbench/golden.json: the SHA-256 of `nrgit walls` output for each
format the walls generator can draw, and n_threshold's N0 for
every input the threshold generator can draw.  The committed file was made
at the commit that introduced the benchmark; rerun it only when the walls
report or the threshold scan is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from nrgit import cli
    from nrgit.binary_forms import LinParam
    from nrgit.envelope import n_threshold

    walls = {}
    k = inputs.WALLS_K
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["walls", "--n", str(k), "--format", fmt])
        if rc != 0:
            raise SystemExit(f"walls --n {k} exited {rc}")
        walls[checks.walls_key({"n": k, "format": fmt})] = checks.digest(out.getvalue())
    threshold = {}
    for m in inputs.THRESHOLD_M:
        op = {"n": inputs.THRESHOLD_N, "m": m, "r": inputs.THRESHOLD_R}
        threshold[checks.threshold_key(op)] = n_threshold(op["n"], LinParam(m, op["r"]))
    text = json.dumps({"walls": walls, "threshold": threshold}, indent=2, sort_keys=True)
    (HERE / "golden.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
