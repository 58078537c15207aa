"""Seeded input generators for the benchmark workloads.

This module imports nothing from nrgit: the program under test receives only
the inputs generated here.  Each workload is a closed loop with one client.
A run draws one *set* of inputs from the seed and runs the whole set again
and again, each *pass* in a new seeded order, until the time is up.  Every
set has the same mix of input sizes, so all runs see the same mix whatever
the seed; the seed chooses everything else (slopes, profiles, formats,
order).
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("census", "walls", "query", "threshold")

# census: one degree; the set is the whole acceptance grid of that degree.
CENSUS_N = 4
# walls: one degree, reports in the set, half of them in each format.  A
# report's cost grows about 1.5 times per degree, so a mix of degrees would
# leave the run's median on the reports of one degree.
WALLS_K = 16
WALLS_SET = 4
# threshold: interior slopes r/m with r = 1 and m <= 3 at this degree; each
# of them had the same scan length (N0 = 2) when the benchmark was added.
THRESHOLD_N = 3
THRESHOLD_M = (1, 2, 3)
THRESHOLD_R = 1
# query: commands in the set, command mix and ranges.
QUERY_SET = 50
QUERY_N_MAX = 40
QUERY_M_MAX = 7
QUERY_FLIPS_N = (4, 40)
QUERY_MIX = (("classify", 8), ("weights", 1), ("flips", 1))
QUERY_JSON_SHARE = 0.25


def wall_values(n: int) -> list[Fraction]:
    """Walls of the slope line in degree n: 0, n and 0 < q < n with n - q even."""
    return sorted({Fraction(0), Fraction(n), *(Fraction(q) for q in range(n - 2, 0, -2))})


def _pairs(taus) -> list[tuple[int, int]]:
    return [(t.denominator, t.numerator) for t in taus]


def census_slopes(n: int) -> dict[str, list[tuple[int, int]]]:
    """(m, r) pairs of the acceptance grid by kind: walls plus one twist r
    outside [0, nm], walls +- 1/7, and chamber midpoints."""
    walls = wall_values(n)
    near = sorted({w + d for w in walls for d in (Fraction(-1, 7), Fraction(1, 7))})
    mids = [(lo + hi) / 2 for lo, hi in zip(walls, walls[1:])]
    return {"wall": _pairs(walls) + [(1, n + 1)], "near_wall": _pairs(near), "chamber": _pairs(mids)}


def _census_set(rng: random.Random) -> list[dict]:
    out = []
    for slopes in census_slopes(CENSUS_N).values():
        for m, r in slopes:
            argv = ["census", "--n", str(CENSUS_N), "--m", str(m), "--r", str(r), "--format", "json"]
            out.append({"kind": "census", "argv": argv, "n": CENSUS_N, "m": m, "r": r})
    return out


def _walls_set(rng: random.Random) -> list[dict]:
    formats = ("text", "json") * (WALLS_SET // 2)
    return [{"kind": "walls", "argv": ["walls", "--n", str(WALLS_K), "--format", f], "n": WALLS_K, "format": f}
            for f in formats]


def _threshold_set(rng: random.Random) -> list[dict]:
    return [{"kind": "threshold", "n": THRESHOLD_N, "m": m, "r": THRESHOLD_R} for m in THRESHOLD_M]


def _random_profile(rng: random.Random, n: int) -> tuple[int, int, tuple[int, ...]]:
    inf = rng.randint(0, n)
    zero = rng.randint(0, n - inf)
    rest = n - inf - zero
    roots = []
    while rest:
        part = rng.randint(1, rest)
        roots.append(part)
        rest -= part
    return inf, zero, tuple(roots)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers in [lo, hi], one drawn from each of count equal strata."""
    width = (hi - lo + 1) / count
    return [lo + int((j + rng.random()) * width) for j in range(count)]


def _query_set(rng: random.Random) -> list[dict]:
    """QUERY_MIX in fixed counts, n spread evenly over its range for each
    command, and a fixed share of JSON output, so the mix of costs is the
    same in every set."""
    total = sum(weight for _, weight in QUERY_MIX)
    ops = []
    for kind, weight in QUERY_MIX:
        count = QUERY_SET * weight // total
        lo, hi = QUERY_FLIPS_N if kind == "flips" else (1, QUERY_N_MAX)
        json_at = set(rng.sample(range(count), round(count * QUERY_JSON_SHARE)))
        for j, n in enumerate(_stratified(rng, lo, hi, count)):
            ops.append(_query(rng, kind, n, "json" if j in json_at else "text"))
    return ops


def _query(rng: random.Random, kind: str, n: int, fmt: str) -> dict:
    if kind == "flips":
        s = rng.randint(1, (n - 1) // 2)
        tau = n - 2 * s
        argv = ["flips", "--n", str(n), "--tau", str(tau), "--format", fmt]
        return {"kind": kind, "argv": argv, "n": n, "tau": tau, "format": fmt}
    m = rng.randint(1, QUERY_M_MAX)
    r = rng.randint(-1, n * m + 1)
    argv = [kind, "--n", str(n), "--m", str(m), "--r", str(r), "--format", fmt]
    op = {"kind": kind, "argv": argv, "n": n, "m": m, "r": r, "format": fmt}
    if kind == "classify":
        inf, zero, roots = _random_profile(rng, n)
        text = f"inf={inf},zero={zero},roots={'+'.join(str(k) for k in roots)}"
        argv += ["--profile", text]
        op.update(inf=inf, zero=zero, roots=roots)
    return op


_SETS = {
    "census": _census_set,
    "walls": _walls_set,
    "query": _query_set,
    "threshold": _threshold_set,
}


def input_set(workload: str, seed: int) -> list[dict]:
    """The set of input dicts that one run of a workload runs in every pass."""
    if workload not in _SETS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SETS[workload](random.Random(f"{workload}:{seed}"))


def passes(workload: str, seed: int):
    """Endless iterator of passes: lists of (index in the set, input dict),
    the whole set in a new seeded order each time."""
    ops = input_set(workload, seed)
    rng = random.Random(f"{workload}:{seed}:order")
    while True:
        yield [(i, ops[i]) for i in rng.sample(range(len(ops)), len(ops))]


def first_passes(workload: str, seed: int, count: int) -> list[list[dict]]:
    gen = passes(workload, seed)
    return [[op for _, op in next(gen)] for _ in range(count)]
