"""Independent verification oracles shared by the test modules.

The geometry oracle here deliberately avoids the package's decision path:
it evaluates every coordinate at one concrete large value N_STAR and answers
membership by exhaustive segment/triangle tests with Cramer determinants
(Caratheodory), and interiority by walking the edges of a freshly computed
hull polygon.  The package's hull kernel (polytope._locate) also decides at
one value of N, but at its own N = B, certified per row set, and from where
the hull meets the x-axis: the on-axis points and the crossings of the
segments that straddle it.  The two differ in the point at which they
evaluate and in their algorithm, so an agreement between the two is
meaningful evidence.  N_STAR and the origin are ints, so an integer weight
set is decided in int arithmetic; a Fraction coordinate makes its points
Fractions.

Soundness of the concrete evaluation: every sign the oracle consults is a
cross product of differences of points or a dot product of two points, so
for integer rows (a_x, b_x, a_y, b_y) with entries of at most M it is an
integer polynomial in N whose real roots all lie below
B = polytope._certified_n(rows) = 24*M^2 + 1 (_locate's docstring bounds
its coefficients), and the points' order and distinctness are those of
the rows for any N > 2M, as two rows differ in a coordinate by d1*N + d0
with |d0| <= 2M.  So the oracle's signs at N_STAR are the eventual signs
for large N, which is what the package computes, whenever B < N_STAR.
assert_n_star_past_certified_n asserts that for every polytope class row
set the oracles evaluate: degree at most 8, every tau_grid slope.  The
random sets of the property tests are not covered by it.
"""

import itertools
import json
from fractions import Fraction

from nrgit import (
    ZERO,
    AffineN,
    DegreeOverflowError,
    EnvParams,
    LinParam,
    Status,
    Weight2,
    WeightSet,
    concrete_torus_case_status,
    enumerate_env_points,
    torus_case_status,
    wall_values,
    weight2,
)
from nrgit.envelope import _class_rows, _polytope_class
from nrgit.polytope import _certified_n

N_STAR = 10**7

ORIGIN = (0, 0)


def concrete_points(weight_set, n_value=N_STAR):
    """Distinct (x, y) pairs of a WeightSet at a concrete N, sorted: ints
    when the weights and N are, else Fractions."""
    return sorted({(w.x.eval_at(n_value), w.y.eval_at(n_value)) for w in weight_set})


def cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_polygon(pts):
    """Convex hull of rational points, counterclockwise, collinear dropped."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross3(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def origin_in_hull(pts):
    """Caratheodory membership: origin is a point, on a segment, or in a
    nondegenerate triangle with all barycentric signs consistent."""
    if ORIGIN in pts:
        return True
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            p, q = pts[i], pts[j]
            if cross3(ORIGIN, p, q) == 0 and p[0] * q[0] + p[1] * q[1] <= 0:
                return True
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                a, b, c = pts[i], pts[j], pts[k]
                den = cross3(a, b, c)
                if den == 0:
                    continue
                l1 = cross3(ORIGIN, b, c)
                l2 = cross3(ORIGIN, c, a)
                l3 = cross3(ORIGIN, a, b)
                if den < 0:
                    l1, l2, l3 = -l1, -l2, -l3
                if l1 >= 0 and l2 >= 0 and l3 >= 0:
                    return True
    return False


def origin_strictly_inside(pts):
    poly = hull_polygon(pts)
    if len(poly) < 3:
        return False
    return all(
        cross3(a, b, ORIGIN) > 0 for a, b in zip(poly, poly[1:] + poly[:1])
    )


def oracle_location(weight_set, n_value=N_STAR):
    """Independent Outside/Boundary/Interior verdict for a WeightSet."""
    pts = concrete_points(weight_set, n_value)
    if not origin_in_hull(pts):
        return "Outside"
    return "Interior" if origin_strictly_inside(pts) else "Boundary"


def oracle_status(weight_set, n_value=N_STAR) -> Status:
    return {
        "Outside": Status.UNSTABLE,
        "Boundary": Status.STRICTLY_SEMISTABLE,
        "Interior": Status.STABLE,
    }[oracle_location(weight_set, n_value)]


def lin_for(tau) -> LinParam:
    """Exact LinParam with slope tau."""
    tau = Fraction(tau)
    return LinParam(tau.denominator, tau.numerator)


def tau_grid(n, eps=Fraction(1, 7)):
    """Walls, walls +- eps, and chamber midpoints, sorted and distinct."""
    ws = wall_values(n)
    taus = set()
    for w in ws:
        taus.update((w, w + eps, w - eps))
    for a, b in zip(ws, ws[1:]):
        taus.add(Fraction(a + b, 2))
    return sorted(taus)


def assert_n_star_past_certified_n(n_max=8):
    """The soundness argument above as an assertion: N_STAR exceeds the
    kernel's certified N of every polytope class of degree at most n_max,
    at every tau_grid slope."""
    for n in range(1, n_max + 1):
        keys = dict.fromkeys(map(_polytope_class, enumerate_env_points(n)))
        for tau in tau_grid(n):
            lin = lin_for(tau)
            for key in keys:
                rows = _class_rows(key, n, lin.m, lin.r)
                assert _certified_n(rows) < N_STAR, (n, tau, key)


def n_threshold_by_points(n, lin, max_n0=1 << 20):
    """Reference for n_threshold: the point-by-point window scan.

    The least N0 in 1, 2, 4, ... such that every degree-n point of the
    completion, evaluated at every integer N in [N0, 4*N0] in increasing
    order, has its symbolic torus status; nothing is grouped or memoised.
    """
    params = EnvParams(n, lin)
    census = [(p, torus_case_status(p, params)) for p in enumerate_env_points(n)]
    n0 = 1
    while n0 <= max_n0:
        if all(
            concrete_torus_case_status(p, params, n_value) is symbolic
            for n_value in range(n0, 4 * n0 + 1)
            for p, symbolic in census
        ):
            return n0
        n0 *= 2
    raise RuntimeError(f"scan exhausted at {max_n0} for n={n}, lin={lin}")


def scaled_minkowski(parts, shift) -> WeightSet:
    """All sums {sum_i scale_i * s_i + shift : s_i in S_i}, as a multiset.

    The hull of the output is the Minkowski sum of the scaled hulls plus the
    shift.  Scales must be nonnegative (in the AffineN order) and at most one
    part may carry an N-linear scale, otherwise products would overflow the
    degree-one domain.  The tests' reference for the full monomial
    intervals that point_polytope reduces to their endpoints; it sums
    through AffineN arithmetic, which the package's decisions never use.
    """
    if not isinstance(shift, Weight2):
        shift = weight2(shift[0], shift[1])
    prepared = []
    n_linear = 0
    for scale, part in parts:
        scale = AffineN.of(scale)
        if scale < ZERO:
            raise ValueError(f"scaled_minkowski: negative scale {scale}")
        if scale.n_coeff != 0:
            n_linear += 1
        if not isinstance(part, WeightSet):
            part = WeightSet(part)
        prepared.append((scale, part))
    if n_linear > 1:
        raise DegreeOverflowError(
            "scaled_minkowski: more than one N-linear scale"
        )
    sums = []
    for combo in itertools.product(*(p.points for _, p in prepared)):
        x = shift.x
        y = shift.y
        for (scale, _), pt in zip(prepared, combo):
            x = x + scale * pt.x
            y = y + scale * pt.y
        sums.append(Weight2(x, y))
    return WeightSet(sums)


# The report emitter's two formats as cli wrote them before its direct
# writers: the oracles the writers must match byte for byte.

def report_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def report_flatten(prefix: str, value, lines: list[str]):
    if isinstance(value, dict):
        for k in value:
            report_flatten(f"{prefix}.{k}", value[k], lines)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            lines.append(f"{prefix}: [{', '.join(str(v) for v in value)}]")
        else:
            for i, v in enumerate(value):
                report_flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix}: {value}")
