"""The projective completion P^2 x P(V) and its symbolic-N stability data.

The configuration space of n points on the line embeds into P^2 x P(V) via
x -> ([1:1:0], x); the big group SL(2) x (residual torus) acts with the
rank-2 torus weights below, and for every sufficiently large twist N of the
P^2 factor the completion computes the Borel-group quotients of the original
space.  This module holds the fixed-point weight table, the weight polytope
of an arbitrary point, the closed-form torus and group classifications, and
the report certifying that intrinsic and envelope (semi)stability agree.

Points of the completion are recorded combinatorially (EnvPoint): which of
the coordinates v0, v1, v2 are nonzero, the divisor profile, and the
multiplicity of the marked point [v1:v2] as a root.  The slots of the
divisor are read literally: [1:0] mass at mult_inf, [0:1] mass at mult_zero.
That forces coherence constraints between the v-support and the marked
multiplicity which are checked at construction.
"""

from __future__ import annotations

from operator import index

from .binary_forms import (
    Divisor,
    LinParam,
    _all_profiles,
    _check_positive_degree,
    classify_borel,
    classify_unipotent,
)
from .hilbert_mumford import _LOCATION_TO_STATUS, _UNSTABLE, Status, _status
from .polytope import (
    AffineN,
    N,
    Weight2,
    WeightSet,
    _Record,
    _certified_n,
    _locate_points,
    _locate_sorted,
    contains_origin,  # not called here; perfbench's tracer test wraps this binding
)

__all__ = [
    "EnvParams",
    "EnvPoint",
    "EnvelopeReport",
    "concrete_torus_case_status",
    "embed_divisor",
    "enumerate_env_points",
    "fixed_point_weights",
    "group_status",
    "n_threshold",
    "point_polytope",
    "strong_envelope_report",
    "torus_case_status",
    "unipotent_case_status",
    "unipotent_status",
]

# T1 x T2 weights (e_x, e_y) of the three v-coordinates under the rank-2 torus
_E = {0: (0, 0), 1: (1, -1), 2: (-1, -1)}

_V_LABELS = {0: "[1:0:0]", 1: "[0:1:0]", 2: "[0:0:1]"}


class EnvParams(_Record):
    __slots__ = ("n", "lin")

    def __init__(self, n: int, lin: LinParam):
        n = index(n)  # an int, never a truncated float
        _check_positive_degree(n)
        self._set(n, lin)


class EnvPoint(_Record):
    """A point of P^2 x P(V) by v-coordinate support and marked-root data.

    marked_mult is the multiplicity of [v1:v2] as a root of the
    configuration (0 when it is not a root); it is absent exactly when
    v1 = v2 = 0.  Coherence with the literal slot reading:

      v-support meets {1,2} in {1} only  ->  [v1:v2] = [1:0], marked = mult_inf
      v-support meets {1,2} in {2} only  ->  [v1:v2] = [0:1], marked = mult_zero
      v-support contains both 1 and 2    ->  [v1:v2] generic, marked in
                                             {0} + generic multiplicities
    """

    __slots__ = ("v_support", "divisor", "marked_mult")

    def __init__(self, v_support, divisor: Divisor, marked_mult=None):
        sup = frozenset(map(index, v_support))
        if not sup or not sup <= {0, 1, 2}:
            raise ValueError(f"v_support must be a nonempty subset of {{0,1,2}}, got {set(v_support)}")
        object.__setattr__(self, "v_support", sup)
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "marked_mult", marked_mult)
        self._check_marked()

    def _check_marked(self):
        d = self.divisor
        choices = _marked_choices(self.v_support, d.mult_inf, d.mult_zero, d.generic)
        if self.marked_mult not in choices:
            raise ValueError(
                f"inconsistent marked data: v-support {sorted(self.v_support)} "
                f"admits marked_mult in {choices}, got {self.marked_mult}"
            )

    def __str__(self):
        sup = "".join(str(j) for j in sorted(self.v_support))
        return f"(v:{sup}, d:{self.divisor}, marked:{self.marked_mult})"


def _marked_choices(v_support, mult_inf: int, mult_zero: int, generic) -> list:
    # legal marked_mult values for this v-support and these slot masses and
    # generic multiplicities, in enumeration order
    v1, v2 = 1 in v_support, 2 in v_support
    if v1 and v2:
        return sorted({0, *generic})
    if v1:
        return [mult_inf]
    if v2:
        return [mult_zero]
    return [None]


def _check_degree(d: Divisor, n: int) -> None:
    if d.n != n:
        raise ValueError(f"divisor degree {d.n} does not match degree {n}")


def embed_divisor(d: Divisor) -> EnvPoint:
    """Image of a configuration under x -> ([1:1:0], x)."""
    # coherent by construction: marked_mult is the mass at [v1:v2] = [1:0]
    return object.__new__(EnvPoint)._set(_EMBEDDED_SUPPORT, d, d.mult_inf)


def _fixed_row(j: int, i: int, n: int, m: int, r: int) -> tuple[int, int, int, int]:
    # the one fixed-point weight formula: ([e_j], [x^(n-i) y^i]) has weight
    # (N*e_x + m(2i - n), N*e_y + r), as its integer row (a_x, b_x, a_y, b_y)
    e_x, e_y = _E[j]
    return (e_x, m * (2 * i - n), e_y, r)


def _fixed_rows(n: int, m: int, r: int) -> list[tuple[str, int, tuple]]:
    # the one fixed-point table: (label, i, row) per ([e_j], [x^(n-i) y^i]), family-major
    return [(_V_LABELS[j], i, _fixed_row(j, i, n, m, r)) for j in (0, 1, 2) for i in range(n + 1)]


def _weight(row: tuple) -> Weight2:
    # a row as the Weight2 of the public API
    a_x, b_x, a_y, b_y = row
    return Weight2(AffineN(a_x, b_x), AffineN(a_y, b_y))


def fixed_point_weights(params: EnvParams) -> list[tuple[str, int, Weight2]]:
    """Weights of the 3(n+1) torus-fixed points ([e_j], [x^(n-i) y^i]).

    Emitted family-major: the v = [1:0:0] row carries (m(2i-n), r), the
    v = [0:1:0] row (N + m(2i-n), -N + r), the v = [0:0:1] row
    (-N + m(2i-n), -N + r).
    """
    rows = _fixed_rows(params.n, params.lin.m, params.lin.r)
    return [(label, i, _weight(row)) for label, i, row in rows]


def point_polytope(p: EnvPoint, params: EnvParams) -> WeightSet:
    """Weights of p with the same hull as N*(v-support weights) +
    m*(monomial row) + (0, r).

    The monomial support of the configuration runs over i in
    [mult_inf, n - mult_zero].  Only the two endpoints of that interval are
    emitted: the monomials between them lie on the segment joining the
    endpoint weights, so the hull is unchanged: at most six weights, the
    rows of p's polytope class (_class_rows) as Weight2s.
    """
    _check_degree(p.divisor, params.n)
    rows = _class_rows(_polytope_class(p), params.n, params.lin.m, params.lin.r)
    return WeightSet(map(_weight, rows))


def _polytope_class(p: EnvPoint) -> tuple:
    # all that _class_rows and _torus_case read of a point
    return (p.v_support, p.divisor.mult_inf, p.divisor.mult_zero)


def _class_rows(key: tuple, n: int, m: int, r: int) -> list[tuple]:
    # the weights of a polytope class: _fixed_row over its v-support and
    # the two ends of its monomial interval
    v_support, mult_inf, mult_zero = key
    ends = sorted({mult_inf, n - mult_zero})
    return [_fixed_row(j, i, n, m, r) for j in sorted(v_support) for i in ends]


def _engine_table(n: int, m: int, r: int) -> tuple[int, dict]:
    """The polytope engine's status of every polytope class of degree n at
    slope r/m, and the one N it reads them all at: B = _certified_n of every
    fixed row, 24*max(1, mn, |r|)^2 + 1.

    The 3(n+1) fixed rows are evaluated once, at B, and each class reads
    its points (its v-support times the two ends of its monomial interval)
    off that grid and hands them to the hull body.  Why B decides each
    class as _locate(_class_rows(key, n, m, r)) does: a class's rows are
    some of the fixed rows, so their largest |entry| M is at most the
    grid's, and B is at least the class's own certified N.  _locate's proof
    bounds every real root of each sign the body reads below that N, so the
    body takes the same steps at every N from there on, B included.

    Each class's points are read in x-order and distinct, though the body
    needs neither: family by family in the x-order [0:0:1], [1:0:0],
    [0:1:0] of their e_x = -1, 0, +1, and within a family at the two ends
    ascending, the second dropped when it repeats the first
    (mult_inf = n - mult_zero), which spares the body a point.  The point of
    row (e_x, c, e_y, r) has x = e_x*B + c with |c| <= mn <= M, and
    B = 24*M^2 + 1 > 2M, so the families are separated, and within a family
    c = m(2i - n) strictly increases with i, as m > 0.
    """
    rows = _fixed_rows(n, m, r)
    b = _certified_n([row for _, _, row in rows])
    grid = [(ax * b + bx, ay * b + by) for _, _, (ax, bx, ay, by) in rows]
    k = n + 1  # the rows are family-major: ([e_j], [x^(n-i) y^i]) is row j*k + i
    # per v-support, its families' first rows, in x-order
    starts = {sup: [j * k for j in (2, 0, 1) if j in sup] for sup in _V_SUPPORTS}
    table = {}
    for key in _polytope_classes(n):
        v_support, mult_inf, mult_zero = key
        hi = n - mult_zero
        pts = []
        for s in starts[v_support]:
            pts.append(grid[s + mult_inf])
            if mult_inf != hi:
                pts.append(grid[s + hi])
        table[key] = _LOCATION_TO_STATUS[_locate_sorted(pts)]
    return b, table


def torus_case_status(p: EnvPoint, params: EnvParams) -> Status:
    """Rank-2 torus status of p, by the closed case list over v-supports.

    With a = m(2*mult_inf - n), b = m(n - 2*mult_zero) the weight polytope is
    a trapezoid between the row at height r (x in [a, b], present iff v0 != 0)
    and the row at height r - N; intersecting its edges with the x-axis gives,
    per v-support case, exact membership and interiority conditions.  Agrees,
    on every representable point, with the location that
    contains_origin(point_polytope(p, params)) gives.
    """
    d = p.divisor
    _check_degree(d, params.n)
    return _torus_case(
        p.v_support, d.mult_inf, d.mult_zero, params.n, params.lin.m, params.lin.r
    )


def _torus_case(v_support, mult_inf: int, mult_zero: int, n: int, m: int, r: int) -> Status:
    # the torus status reads only the v-support and the two slot masses, so
    # the placement oracles call this on raw placements
    if 0 not in v_support:
        # every weight sits at height r - N < 0
        return _UNSTABLE
    a = m * (2 * mult_inf - n)
    b = m * (n - 2 * mult_zero)
    v1, v2 = 1 in v_support, 2 in v_support
    if not (v1 or v2):
        # horizontal segment at height r
        return _status(False, r == 0 and a <= 0 <= b)
    if r < 0:
        return _UNSTABLE
    if not v2:  # the v-support meets {1, 2} in {1}
        member = a <= -r <= b
        interior = r > 0 and a < -r < b
    elif not v1:  # in {2}
        member = a <= r <= b
        interior = r > 0 and a < r < b
    else:
        member = a <= r and -r <= b
        interior = r > 0 and a < r and -r < b
    return _status(interior, member)


def group_status(p: EnvPoint, params: EnvParams) -> Status:
    """Status of p under the full group acting on the completion.

    Worst case of the torus status over all group translates, in closed form:
    unstable when tau is outside [0, n] or v0 = 0; at tau = 0 semistable iff
    no root multiplicity exceeds n/2 (never stable); for 0 < tau <= n
    semistable iff [v1:v2] != 0, the marked multiplicity is <= (n - tau)/2
    and every root multiplicity is <= (n + tau)/2, stable iff both strict.
    """
    d = p.divisor
    _check_degree(d, params.n)
    return _group_case(p.v_support, p.marked_mult, d.max_mult(),
                       params.n, params.lin.m, params.lin.r)


def _group_case(v_support, marked, top: int, n: int, m: int, r: int) -> Status:
    # like _torus_case: group_status on raw fields, top the largest root mass
    if r < 0 or r > n * m or 0 not in v_support:
        return _UNSTABLE
    if r == 0:
        return _status(False, 2 * top <= n)
    if 1 not in v_support and 2 not in v_support:
        return _UNSTABLE
    lo, hi = n * m - r, n * m + r
    return _status(2 * marked * m < lo and 2 * top * m < hi,
                   2 * marked * m <= lo and 2 * top * m <= hi)


def unipotent_case_status(p: EnvPoint, n: int) -> Status:
    """1-D torus status of p for the untwisted SL(2)-only linearisation.

    The relevant weights are N*alpha + (2i - n) with alpha the T1 weight
    (0, +1 or -1) of a coordinate in the v-support and i in
    the monomial interval; the status is read off the eventual signs of the
    two endpoints of that interval.
    """
    d = p.divisor
    _check_degree(d, n)
    return _unipotent_case(p.v_support, d.mult_inf, d.mult_zero, n)


def _unipotent_case(v_support, mult_inf: int, mult_zero: int, n: int) -> Status:
    # like _torus_case: the v-support and the two slot masses decide.  The
    # end weights N*least + (2*mult_inf - n) and N*greatest + (n -
    # 2*mult_zero) have, for all large N, the sign of their leading nonzero
    # coefficient, and the status reads nothing of lo and hi but their signs
    least, greatest = _T1_RANGE[v_support]
    lo = least or 2 * mult_inf - n
    hi = greatest or n - 2 * mult_zero
    return _status(lo < 0 < hi, lo <= 0 <= hi)


def unipotent_status(p: EnvPoint, n: int) -> Status:
    """Worst case of unipotent_case_status over SL(2) translates, closed form.

    Unstable when v0 = 0; otherwise governed by the largest root
    multiplicity: stable below n/2, strictly semistable at n/2.  Restricted
    to embedded configurations this is exactly classify_unipotent.
    """
    _check_degree(p.divisor, n)
    return _unipotent_worst(p.v_support, classify_unipotent(p.divisor))


def _unipotent_worst(v_support, unip: Status) -> Status:
    # unipotent_status on raw fields, unip being the divisor's classify_unipotent
    return unip if 0 in v_support else _UNSTABLE


_V_SUPPORTS = tuple(map(frozenset, ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})))
_EMBEDDED_SUPPORT = _V_SUPPORTS[3]  # {0, 1}: v = [1:1:0]
# the least and greatest T1 weight e_x of _E over each v-support, as
# _unipotent_case reads them
_T1_RANGE = {sup: (min(_E[j][0] for j in sup), max(_E[j][0] for j in sup)) for sup in _V_SUPPORTS}


def _polytope_classes(n: int) -> list[tuple]:
    # every _polytope_class of the degree-n points, each once: every
    # v-support with every pair of slot masses a + b <= n, 7(n+1)(n+2)/2 in all
    return [(sup, a, b) for sup in _V_SUPPORTS for a in range(n + 1) for b in range(n + 1 - a)]


def enumerate_env_points(n: int) -> list[EnvPoint]:
    """Every coherent EnvPoint of degree n, over all profiles and v-supports."""
    _check_positive_degree(n)
    # coherent by construction, so the points skip EnvPoint's check
    return [
        object.__new__(EnvPoint)._set(sup, d, marked)
        for d in _all_profiles(n)
        for sup, choices in _support_choices(d)
        for marked in choices
    ]


def _support_choices(d: Divisor):
    # the one enumeration of d's completion points, as raw fields: each
    # v-support with its legal marked multiplicities, in enumeration order
    return [(sup, _marked_choices(sup, d.mult_inf, d.mult_zero, d.generic)) for sup in _V_SUPPORTS]


class EnvelopeReport(_Record):
    """Census comparison of intrinsic vs completion (semi)stability; each
    count is a (stable, strictly semistable, unstable) triple."""

    __slots__ = ("n", "lin", "counts_intrinsic", "counts_envelope",
                 "stable_equal", "semistable_equal", "chain_ok", "violations")

    def __init__(self, n: int, lin: LinParam, counts_intrinsic, counts_envelope,
                 stable_equal, semistable_equal, chain_ok, violations):
        self._set(n, lin, counts_intrinsic, counts_envelope,
                  stable_equal, semistable_equal, chain_ok, violations)

    @property
    def ok(self) -> bool:
        return self.stable_equal and self.semistable_equal and self.chain_ok


def strong_envelope_report(n: int, lin: LinParam) -> EnvelopeReport:
    """Verify over all degree-n profiles that the completion computes the
    intrinsic loci: completely-stable = stable, completely-semistable =
    finitely-generated-semistable, plus the weak inclusion chain
    completely-stable <= stable <= semistable <= completely-semistable.
    """
    params = EnvParams(n, lin)
    return _envelope_report(n, lin, (
        (d, classify_borel(d, lin), group_status(embed_divisor(d), params))
        for d in _all_profiles(n)
    ))


def _envelope_report(n: int, lin: LinParam, statuses) -> EnvelopeReport:
    # the one tally of strong_envelope_report, over (d, intrinsic, enveloped)
    # per degree-n profile d: its classify_borel status and the group status
    # of its embedded point; the census hands it those of its own pass
    counts_i = [0, 0, 0]
    counts_e = [0, 0, 0]
    violations = []
    stable_equal = semistable_equal = chain_ok = True
    for d, intrinsic, enveloped in statuses:
        counts_i[2 - intrinsic] += 1
        counts_e[2 - enveloped] += 1
        if intrinsic is enveloped:
            # equal statuses fail none of the four tests below
            continue
        if intrinsic.stable != enveloped.stable:
            stable_equal = False
            violations.append(f"stable mismatch at {d}: {intrinsic} vs {enveloped}")
        if intrinsic.semistable != enveloped.semistable:
            semistable_equal = False
            violations.append(f"semistable mismatch at {d}: {intrinsic} vs {enveloped}")
        # weak chain, asserted independently of the equalities; its middle
        # link, stable <= semistable, holds by Status's order
        if enveloped.stable and not intrinsic.stable:
            chain_ok = False
            violations.append(f"chain break (completely-stable > stable) at {d}")
        if intrinsic.semistable and not enveloped.semistable:
            chain_ok = False
            violations.append(f"chain break (semistable > completely-semistable) at {d}")
    return EnvelopeReport(
        n,
        lin,
        tuple(counts_i),
        tuple(counts_e),
        stable_equal,
        semistable_equal,
        chain_ok,
        tuple(violations),
    )


def concrete_torus_case_status(p: EnvPoint, params: EnvParams, n_value) -> Status:
    """Torus status with the symbolic N evaluated at a concrete value.

    Used only to study how large N must be; never feeds back into the
    symbolic predicates.  n_value must be a positive int or Fraction.
    """
    _check_degree(p.divisor, params.n)
    rows = _class_rows(_polytope_class(p), params.n, params.lin.m, params.lin.r)
    return _LOCATION_TO_STATUS[_locate_points(rows, N.eval_at(n_value))]


def n_threshold(n: int, lin: LinParam) -> int:
    """Least N0 in a doubling scan 1, 2, 4, ... such that evaluating the
    twist at every integer N in [N0, 4*N0] reproduces the symbolic status for
    every degree-n point of the completion.

    The N that reproduce every status are exactly the N > r (every N >= 1
    when r < 0), so N0 is 1 when r <= 0, else 1 << r.bit_length(), the
    least power of two above r.  Proof: a class's rows (_class_rows) are
    [1:0:0] at (c_i, r), [0:1:0] at (N + c_i, r - N), [0:0:1] at
    (-N + c_i, r - N), with c_i = m(2i - n) at the class's two ends i,
    a = c_mult_inf <= b = c_(n - mult_zero).
    - N > r: each class has its _torus_case status.  A v-support without 0
      lies at height r - N < 0; {0} is a segment at height r for every N;
      with 0 in the v-support and r < 0 all lies below the axis.  For
      r >= 0 the hulls of {0,1}, {0,2} and {0,1,2} run from height r down
      to r - N < 0, and their edges of slope -1 or +1 meet the axis at
      a + r and b + r, at a - r and b - r, and at a - r and b + r: the
      intervals _torus_case reads, interior exactly when r > 0 and strict.
    - 1 <= N <= r: the class ({0,1,2}, 0, 0) is stable for large N, but
      lies above the axis when N < r and has its bottom edge on it at N = r.
    """
    _check_positive_degree(n)
    return 1 << lin.r.bit_length() if lin.r > 0 else 1
