"""The integer origin-in-hull kernel against hand-built cases and the oracle.

contains_origin scales its weights to integers and decides from where the
hull meets the x-axis: the on-axis points and the crossings of the segments
that straddle it; point_polytope emits only the endpoints of each monomial
interval.  These tests pin the degenerate hulls, check the
kernel against the independent oracle in helpers.py, and check that the
endpoint-only polytopes locate the origin exactly as the full monomial
intervals do.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrgit import (
    AffineN,
    EnvParams,
    N,
    OriginLocation,
    Status,
    WeightSet,
    contains_origin,
    enumerate_env_points,
    point_polytope,
    unipotent_case_status,
    weight2,
)

from helpers import N_STAR, lin_for, oracle_location, scaled_minkowski, tau_grid

OUT = OriginLocation.OUTSIDE
BND = OriginLocation.BOUNDARY
INT = OriginLocation.INTERIOR
F = Fraction

HAND_BUILT = [
    # the origin alone, and one point away from it
    ([(0, 0)], BND),
    ([(3, -2)], OUT),
    ([(N, -N)], OUT),
    # segments through the origin, ending at it, and on its line but past it
    ([(2, 1), (-4, -2)], BND),
    ([(N, 0), (-N, 0)], BND),
    ([(0, 0), (3, 5)], BND),
    ([(1, 0), (2, 0)], OUT),
    ([(N, N), (AffineN(2, 1), AffineN(2, 1))], OUT),
    # collinear points straddling the origin's line y = x + 2
    ([(-3, -1), (0, 2), (3, 5)], OUT),
    ([(N, 1), (-N, 1), (0, 1)], OUT),
    # the origin on a hull edge
    ([(-1, 0), (1, 0), (0, 1)], BND),
    ([(-N, 0), (N, 0), (0, N)], BND),
    ([(0, 0), (1, 0), (0, 1)], BND),
    # duplicates, including equal values written differently
    ([(1, 1), (1, 1), (-1, 1), (0, -1), (0, -1)], INT),
    ([(0, 0), (0, 0)], BND),
    ([(F(2, 4), 1), (F(1, 2), 1)], OUT),
    ([(F(1, 2), 0), (F(-3, 6), 0), (F(-1, 2), 0)], BND),
    # Fraction coordinates with mixed denominators
    ([(F(1, 2), F(1, 3)), (F(-1, 5), F(1, 7)), (0, F(-2, 9))], INT),
    ([(F(1, 3), 0), (F(-1, 6), 0), (0, F(1, 5))], BND),
    ([(F(1, 3), F(1, 4)), (F(2, 5), F(-1, 7)), (F(1, 6), F(1, 8))], OUT),
    # N coefficients outside {-1, 0, 1}
    ([(AffineN(2, 1), 1), (AffineN(-3, 0), 1), (0, -1)], INT),
    ([(AffineN(3, -100), 0), (AffineN(-2, 7), 0)], BND),
    ([(AffineN(F(1, 2), -1), AffineN(-5, 0)), (AffineN(F(-3, 2), 0), AffineN(-5, 1))], OUT),
    ([(AffineN(2, 0), AffineN(-3, 0)), (AffineN(-2, 0), AffineN(-3, 0)), (0, AffineN(5, 0))], INT),
    # nearly opposite N-parts: the constants put the origin left of the long
    # edge, outside the thin triangle
    ([(AffineN(4, 0), AffineN(-7, 3)), (AffineN(-4, 1), AffineN(7, -3)), (0, AffineN(0, 1))], OUT),
    # the hull body's branches, read off where the hull meets the x-axis:
    # an on-axis point and a crossing on opposite sides of the origin, and
    # a crossing at it
    ([(1, 0), (-1, 1), (-1, -1)], INT),
    ([(-1, 0), (1, 1), (1, -1)], INT),
    ([(1, 0), (0, 1), (0, -1)], BND),
    ([(AffineN(1, 0), 0), (AffineN(-1, 3), N), (AffineN(-1, -3), -N)], INT),
    # every point on the axis, straddling the origin and to one side of it
    ([(-2, 0), (3, 0), (5, 0)], BND),
    ([(-3, 0), (-1, 0)], OUT),
    # collinear sets crossing the axis at the origin and away from it
    ([(-1, -2), (1, 2), (2, 4)], BND),
    ([(0, -1), (1, 0), (2, 1)], OUT),
    ([(1, -1), (3, 1)], OUT),
    # the origin among the points: inside the others' hull, and a vertex
    ([(0, 0), (1, 1), (-1, 1), (0, -1)], INT),
    ([(0, 0), (1, 1), (2, -1)], BND),
    # crossings all to one side, with an on-axis point on that side
    ([(2, 0), (1, 1), (3, -2)], OUT),
    # a reversed and a repeated list of the first of these cases
    ([(-1, -1), (-1, 1), (1, 0)], INT),
    ([(1, 0), (-1, 1), (1, 0), (-1, -1), (-1, 1)], INT),
]


@pytest.mark.parametrize("raw, want", HAND_BUILT)
def test_hand_built_cases(raw, want):
    s = WeightSet(raw)
    assert contains_origin(s) is want
    assert oracle_location(s) == want.value
    # the hull body takes its points in any order, repeats allowed
    assert contains_origin(WeightSet(raw[::-1])) is want
    assert contains_origin(WeightSet(raw[1:] + raw)) is want


def test_large_n_coefficient_decides_over_constants():
    # at N = 1 the origin is inside; for every large N it is outside
    s = WeightSet([(AffineN(-2, 3), 1), (AffineN(-2, 3), -1), (-1, 0)])
    assert contains_origin(s) is OUT
    assert oracle_location(s, Fraction(1)) == INT.value


rationals = st.fractions(
    min_value=Fraction(-12), max_value=Fraction(12), max_denominator=7
)
affines = st.builds(
    AffineN,
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3),
    rationals,
)


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=7))
@settings(max_examples=300)
def test_agrees_with_oracle_on_rational_sets(raw):
    s = WeightSet(raw)
    assert contains_origin(s).value == oracle_location(s)


@given(st.lists(st.tuples(affines, affines), min_size=1, max_size=6))
@settings(max_examples=300)
def test_agrees_with_oracle_on_rational_symbolic_sets(raw):
    s = WeightSet(raw)
    assert contains_origin(s).value == oracle_location(s)


E = {0: (0, 0), 1: (1, -1), 2: (-1, -1)}


def full_interval_polytope(p, params):
    """The weight polytope as the Minkowski sum over the whole monomial
    interval, as it was built before only the endpoints were emitted."""
    n, m, r = params.n, params.lin.m, params.lin.r
    d = p.divisor
    a_part = WeightSet(E[j] for j in sorted(p.v_support))
    b_part = WeightSet(
        weight2(2 * i - n, 0) for i in range(d.mult_inf, n - d.mult_zero + 1)
    )
    return scaled_minkowski([(N, a_part), (Fraction(m), b_part)], weight2(0, r))


def at(weight_set, n_value):
    return WeightSet(
        (w.x.eval_at(n_value), w.y.eval_at(n_value)) for w in weight_set
    )


def test_point_polytopes_match_oracle_and_full_intervals():
    # both polytopes read only a point's polytope class (v-support and slot
    # masses), so every point's polytope must equal its class's, and each
    # class's is checked once per slope
    for n in range(1, 5):
        pts = enumerate_env_points(n)
        for tau in tau_grid(n):
            params = EnvParams(n, lin_for(tau))
            classes = {}
            for p in pts:
                ws = point_polytope(p, params)
                key = (p.v_support, p.divisor.mult_inf, p.divisor.mult_zero)
                where = (n, tau, str(p))
                if key in classes:
                    assert ws == classes[key], where
                    continue
                classes[key] = ws
                full = full_interval_polytope(p, params)
                assert len(ws) <= 6, where
                got = contains_origin(ws)
                assert got.value == oracle_location(ws), where
                assert got is contains_origin(full), where
                for n_value in (1, 2, 3, 5, 8):
                    got = contains_origin(at(ws, n_value))
                    assert got.value == oracle_location(ws, n_value), (where, n_value)
                    assert got is contains_origin(at(full, n_value)), (where, n_value)


ALPHA = {0: 0, 1: 1, 2: -1}


def unipotent_reference(p, n):
    """Status from the weights N*alpha + (2i - n) evaluated at N_STAR over
    every monomial of the interval."""
    d = p.divisor
    values = [
        N_STAR * ALPHA[j] + (2 * i - n)
        for j in p.v_support
        for i in range(d.mult_inf, n - d.mult_zero + 1)
    ]
    lo, hi = min(values), max(values)
    if lo < 0 < hi:
        return Status.STABLE
    if lo <= 0 <= hi:
        return Status.STRICTLY_SEMISTABLE
    return Status.UNSTABLE


def test_unipotent_case_status_matches_evaluated_reference():
    for n in range(1, 9):
        for p in enumerate_env_points(n):
            assert unipotent_case_status(p, n) is unipotent_reference(p, n), (n, str(p))
