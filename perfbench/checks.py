"""Answer checks for every workload, against references nrgit does not produce.

Nothing here imports nrgit.  The query references recompute the paper's
formulas directly: the multiplicity thresholds of the Borel, SL(2) and
unipotent classifications, the torus weight polytope of an embedded
configuration, the 3(n+1) fixed-point weights, and the flip data at an
interior wall.  The census reference counts profiles and completion points
on its own and classifies every profile with the same thresholds.  Walls
outputs and thresholds N0 are compared with values recorded in golden.json
when the benchmark was added (make_golden.py rebuilds that file).

Every check returns an error string, or None when the answer is right.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import inputs

STABLE = "Stable"
STRICT = "StrictlySemistable"
UNSTABLE = "Unstable"


def _status(stable: bool, semistable: bool) -> str:
    return STABLE if stable else STRICT if semistable else UNSTABLE


def borel_status(n: int, m: int, r: int, inf: int, others: list[int]) -> str:
    """Borel status at slope r/m: [1:0] mass against (n - tau)/2, every other
    root mass against (n + tau)/2, strict for stability."""
    if r < 0 or r > n * m:
        return UNSTABLE
    top = max([inf, *others])
    if r == 0:
        return _status(False, 2 * top <= n)
    lo, hi = n * m - r, n * m + r
    ss = 2 * inf * m <= lo and all(2 * v * m <= hi for v in others)
    st = 2 * inf * m < lo and all(2 * v * m < hi for v in others)
    return _status(st, ss)


def reductive_status(n: int, mults: list[int]) -> str:
    """SL(2) (and unipotent) status: stable iff every mass < n/2."""
    top = 2 * max(mults)
    return _status(top < n, top <= n)


def embedded_torus_status(n: int, m: int, r: int, inf: int, zero: int) -> str:
    """Rank-2 torus status of x -> ([1:1:0], x).  Its weights are the rows
    (m(2i - n), r) and (N + m(2i - n), r - N) for i in [inf, n - zero].  With
    a = m(2 inf - n) and b = m(n - 2 zero), for r >= 0 and large N the hull
    crosses the x-axis along [a + r, b + r]: 0 is in it iff a <= -r <= b, and
    interior iff moreover r > 0 and both inequalities are strict."""
    if r < 0:
        return UNSTABLE
    a = m * (2 * inf - n)
    b = m * (n - 2 * zero)
    return _status(r > 0 and a < -r < b, a <= -r <= b)


def _partitions(total: int, cap: int | None = None):
    if total == 0:
        yield ()
        return
    cap = total if cap is None else cap
    for part in range(min(total, cap), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def profiles(n: int):
    """Every (inf, zero, generic) profile of degree n."""
    for inf in range(n + 1):
        for zero in range(n + 1 - inf):
            for generic in _partitions(n - inf - zero):
                yield inf, zero, generic


def census_expected(n: int, m: int, r: int) -> dict:
    """checks_run and the intrinsic (stable, strict, unstable) counts."""
    counts = [0, 0, 0]
    n_profiles = n_points = 0
    order = {STABLE: 0, STRICT: 1, UNSTABLE: 2}
    for inf, zero, generic in profiles(n):
        n_profiles += 1
        others = ([zero] if zero else []) + list(generic)
        counts[order[borel_status(n, m, r, inf, others or [0])]] += 1
        # v-supports {0}, {1}, {2}, {0,1}, {0,2} give one point each; {1,2}
        # and {0,1,2} give one per marked multiplicity in {0} + generic.
        n_points += 5 + 2 * len({0, *generic})
    return {"checks_run": n_profiles + n_points, "counts": counts}


def _affine(a: int, b) -> str:
    if a == 0:
        return str(b)
    head = "N" if a == 1 else "-N" if a == -1 else f"{a}N"
    if b == 0:
        return head
    return f"{head}{'+' if b > 0 else '-'}{abs(b)}"


def weights_result(n: int, m: int, r: int) -> dict:
    rows = []
    labels = ("[1:0:0]", "[0:1:0]", "[0:0:1]")
    for label, (ex, ey) in zip(labels, ((0, 0), (1, -1), (-1, -1))):
        for i in range(n + 1):
            x = _affine(ex, m * (2 * i - n))
            y = _affine(ey, r)
            rows.append({"point": label, "i": i, "weight": f"({x}, {y})"})
    return {"rows": rows}


def flips_result(n: int, tau: int) -> dict:
    s = (n - tau) // 2
    return {
        "flip": {
            "s": s,
            "e_plus": list(range(1, s + 1)),
            "e_minus": list(range(1, n - s + 1)),
            "slice": list(range(-2 * s, 0, 2)),
        }
    }


def classify_result(op: dict) -> dict:
    n, m, r = op["n"], op["m"], op["r"]
    inf, zero, roots = op["inf"], op["zero"], list(op["roots"])
    others = ([zero] if zero else []) + roots
    mults = [k for k in (inf, zero, *roots) if k > 0]
    tau = Fraction(r, m)
    reductive = reductive_status(n, mults)
    borel = borel_status(n, m, r, inf, others or [0])
    return {
        "status_h": borel,
        "status_sl2": reductive,
        "status_u": reductive,
        "thresholds": {
            "inf_bound": str((n - tau) / 2),
            "other_bound": str((n + tau) / 2),
        },
        "envelope": {
            # the envelope computes the intrinsic loci (paper's equalities)
            "group": borel,
            "torus": embedded_torus_status(n, m, r, inf, zero),
            "unipotent": reductive,
        },
    }


def flatten(prefix: str, value, lines: list[str]) -> None:
    """The text report layout: dotted keys, [i] for list items, and
    [a, b] for lists of scalars."""
    if isinstance(value, dict):
        for k in value:
            flatten(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{prefix}: [{', '.join(str(v) for v in value)}]")
        else:
            for i, v in enumerate(value):
                flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix}: {value}")


def _result_matches(out: str, fmt: str, expected: dict) -> str | None:
    if fmt == "json":
        try:
            got = json.loads(out)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable json report: {exc}"
        return None if got == expected else f"result {got!r} != expected {expected!r}"
    want: list[str] = []
    flatten("result", expected, want)
    got_lines = [line for line in out.splitlines() if line.startswith("result")]
    for i, (got, exp) in enumerate(itertools.zip_longest(got_lines, want, fillvalue="<missing>")):
        if got != exp:
            return f"text report line {i} is {got!r}, expected {exp!r}"
    return None


def check_query(op: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    kind = op["kind"]
    if kind == "classify":
        expected = classify_result(op)
    elif kind == "weights":
        expected = weights_result(op["n"], op["m"], op["r"])
    else:
        expected = flips_result(op["n"], op["tau"])
    return _result_matches(out, op["format"], expected)


def check_census(op: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        result = json.loads(out)["result"]
        env = result["envelope"]
        if result["census_diff"]:
            return f"census_diff has {len(result['census_diff'])} rows"
        if not (env["stable_equal"] and env["semistable_equal"] and env["chain_ok"]) or env["violations"]:
            return "envelope report not ok"
        want = census_expected(op["n"], op["m"], op["r"])
        if result["checks_run"] != want["checks_run"]:
            return f"checks_run {result['checks_run']} != {want['checks_run']}"
        if env["counts_intrinsic"] != want["counts"] or env["counts_envelope"] != want["counts"]:
            return f"counts {env['counts_intrinsic']}/{env['counts_envelope']} != {want['counts']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable census report: {exc}"
    return None


def walls_regions(k: int) -> int:
    """Walls plus chambers of the slope line in degree k."""
    return 2 * len(inputs.wall_values(k)) - 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def walls_key(op: dict) -> str:
    return f"{op['n']}/{op['format']}"


def threshold_key(op: dict) -> str:
    return f"{op['n']}/{op['m']}/{op['r']}"


def check_walls(op: dict, rc: int, out: str, golden: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    want = golden["walls"].get(walls_key(op))
    if want is None:
        return f"no recorded digest for walls {walls_key(op)}"
    return None if digest(out) == want else "walls output differs from the recorded digest"


def check_threshold(op: dict, n0, golden: dict) -> str | None:
    want = golden["threshold"].get(threshold_key(op))
    if want is None:
        return f"no recorded N0 for {threshold_key(op)}"
    return None if n0 == want else f"N0 {n0} != recorded {want}"


def check(op: dict, rc: int, out, golden: dict) -> str | None:
    """Dispatch on the op kind; out is stdout text, or N0 for threshold."""
    kind = op["kind"]
    if kind == "census":
        return check_census(op, rc, out)
    if kind == "walls":
        return check_walls(op, rc, out, golden)
    if kind == "threshold":
        return check_threshold(op, out, golden)
    return check_query(op, rc, out)
