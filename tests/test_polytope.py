"""Ordered a*N + b arithmetic and the exact origin-location predicate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrgit import (
    AffineN,
    DegreeOverflowError,
    EnvParams,
    LinParam,
    N,
    OnePS,
    OriginLocation,
    WeightSet,
    ZERO,
    cmp,
    contains_origin,
    enumerate_env_points,
    fixed_point_weights,
    point_polytope,
    weight2,
    witness_lambdas,
)

from nrgit.envelope import _class_rows, _polytope_class
from nrgit.hilbert_mumford import _LOCATION_TO_STATUS
from nrgit.polytope import _certified_n, _eventual_sign, _locate, _locate_points, _value_text

from helpers import (
    assert_n_star_past_certified_n,
    hull_polygon,
    lin_for,
    oracle_location,
    scaled_minkowski,
    tau_grid,
)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=6
)
affines = st.builds(AffineN, rationals, rationals)
small_affines = st.builds(
    AffineN, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(min_value=-9, max_value=9).map(Fraction),
)
points = st.tuples(small_affines, small_affines)


class TestAffineN:
    def test_order_n_dominates_constants(self):
        assert cmp(AffineN(1, 0), AffineN(0, 10**6)) > 0

    def test_order_equal(self):
        assert cmp(AffineN(0, 3), AffineN(0, 3)) == 0

    def test_order_equal_n_parts_compare_constants(self):
        assert cmp(AffineN(2, -5), AffineN(2, -4)) < 0

    def test_equal_values_hash_equal(self):
        # an AffineN without an N-part equals a plain int or Fraction, so
        # sets and dict lookups must treat them as one key
        for plain in (3, Fraction(1, 2)):
            a = AffineN(0, plain)
            assert a == plain and hash(a) == hash(plain)
            assert len({a, plain}) == 1
            assert {plain: "x"}.get(a) == "x"
        with_n = AffineN(1, 3)
        assert with_n != 3 and len({with_n, AffineN(1, 3)}) == 1
        assert {with_n: "x"}.get(AffineN(1, 3)) == "x"

    def test_eval_at(self):
        assert AffineN(1, -3).eval_at(10) == 7
        assert AffineN(0, Fraction(5, 7)).eval_at(123) == Fraction(5, 7)

    def test_eval_at_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AffineN(1, 0).eval_at(0)
        with pytest.raises(ValueError):
            AffineN(1, 0).eval_at(-2)

    def test_arithmetic(self):
        a = AffineN(1, 2)
        b = AffineN(-1, 5)
        assert a + b == AffineN(0, 7)
        assert a - b == AffineN(2, -3)
        assert -a == AffineN(-1, -2)
        assert 3 * a == AffineN(3, 6)
        assert a * Fraction(1, 2) == AffineN(Fraction(1, 2), 1)
        assert 5 - a == AffineN(-1, 3)
        assert Fraction(1, 2) - a == AffineN(-1, Fraction(-3, 2))

    @pytest.mark.parametrize("value, text", [
        (10**50 - 1, "9" * 50),
        (Fraction(-7, 10**50 - 1), f"-7/{'9' * 50}"),
        (10**50, "about 1.00000e+50"),
        (Fraction(1, 10**50), "about 1.00000e-50"),
        (999999 * 10**60 + 1, "about 9.99999e+65"),
        (Fraction(-(10**60 + 1), 3), "about -3.33333e+59"),
        (Fraction(2 * 10**70 - 1, 10**75), "about 1.99999e-5"),
    ])
    def test_value_text_names_a_long_rational_by_its_first_digits(self, value, text):
        assert _value_text(value) == text
        assert _value_text(Fraction(value)) == text

    @pytest.mark.parametrize("a, b", [
        (AffineN(1, 2), AffineN(1, 3)),
        (AffineN(1, 2), AffineN(1, 2)),
        (AffineN(0, 2), 3),
        (AffineN(-1, 9), Fraction(1, 2)),
        (AffineN(0, Fraction(1, 2)), Fraction(1, 2)),
    ])
    def test_order_operators_agree_with_cmp(self, a, b):
        sign = cmp(a, AffineN.of(b))
        assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)

    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflowError):
            N * N
        with pytest.raises(DegreeOverflowError):
            AffineN(1, 1) * AffineN(-2, 0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            AffineN(0.5, 0)

    def test_str_forms(self):
        assert str(AffineN(1, 3)) == "N+3"
        assert str(AffineN(-1, 2)) == "-N+2"
        assert str(AffineN(0, -7)) == "-7"
        assert str(N) == "N"
        assert str(ZERO) == "0"
        assert str(AffineN(Fraction(2, 3), Fraction(-1, 2))) == "2/3N-1/2"

    @given(affines, affines, affines)
    def test_total_order(self, a, b, c):
        assert (cmp(a, b) == 0) == (a == b)
        assert cmp(a, b) == -cmp(b, a)
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0

    @given(affines, affines)
    @settings(max_examples=150)
    # a - b = -N/6 + 43 turns sign at N = 258, past a doubling scan's reach
    @example(AffineN(Fraction(-51, 2), Fraction(51, 2)), AffineN(Fraction(-76, 3), Fraction(-35, 2)))
    def test_order_is_eventual_evaluation_order(self, a, b):
        # a - b = c*N + const has the sign of c at every N > |const / c|, and
        # of const at every N when c = 0: that must be the symbolic comparison
        want = cmp(a, b)
        diff = a - b
        root = abs(Fraction(diff.const) / diff.n_coeff) if diff.n_coeff else 0
        for n_value in (root + Fraction(1, 1000), root + 1, 16 * root + 2**64):
            value = diff.eval_at(n_value)
            assert (value > 0) - (value < 0) == want, n_value


class TestExactRepresentation:
    """Ints stay ints; a Fraction appears only where a caller passes one."""

    @staticmethod
    def coefficients(values):
        return [c for v in values for c in (v.n_coeff, v.const)]

    def test_ints_stay_ints_and_no_float_appears(self):
        assert type(AffineN(2, -3).n_coeff) is int
        assert type(AffineN(True, 0).n_coeff) is int
        ints, fracs = AffineN(2, 3), AffineN(Fraction(2), Fraction(3))
        assert ints == fracs
        assert hash(ints) == hash(fracs)
        assert str(ints) == str(fracs)
        assert type(AffineN(1, -3).eval_at(10)) is int
        assert type(AffineN(1, -3).eval_at(Fraction(10))) is Fraction

        coeffs = []
        for n in range(1, 6):
            for lin in (LinParam(1, 0), LinParam(2, 1), LinParam(3, 7)):
                params = EnvParams(n, lin)
                coeffs += self.coefficients(
                    c for _, _, w in fixed_point_weights(params) for c in w
                )
                for p in enumerate_env_points(n):
                    weights = point_polytope(p, params)
                    coeffs += self.coefficients(c for w in weights for c in w)
                    if n <= 2:
                        coeffs += self.coefficients(
                            c for lam in witness_lambdas(weights) for c in lam.direction
                        )
        lam = OnePS.of(AffineN(Fraction(1, 2), 1), Fraction(3, 4))
        assert [type(c) for c in self.coefficients(lam.direction)] == [int] * 4
        assert coeffs
        assert {type(c) for c in coeffs} <= {int, Fraction}


class TestContainsOrigin:
    def test_segment_through_origin_is_boundary(self):
        assert contains_origin(WeightSet([(1, 0), (-1, 0)])) is OriginLocation.BOUNDARY

    def test_triangle_strictly_around_origin(self):
        s = WeightSet([(1, 1), (-1, 1), (0, -1)])
        assert contains_origin(s) is OriginLocation.INTERIOR

    def test_symbolic_halfplane_is_outside(self):
        s = WeightSet([(AffineN(1, 1), AffineN(-1, 0)), (AffineN(1, 2), AffineN(-1, 0))])
        assert contains_origin(s) is OriginLocation.OUTSIDE

    def test_singleton_origin_is_boundary(self):
        assert contains_origin(WeightSet([(0, 0)])) is OriginLocation.BOUNDARY

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contains_origin(WeightSet([]))

    def test_origin_vertex_of_triangle_is_boundary(self):
        s = WeightSet([(0, 0), (1, 0), (0, 1)])
        assert contains_origin(s) is OriginLocation.BOUNDARY

    def test_collinear_straddle_is_not_membership(self):
        # three points on the line y = 1 straddle x = 0 but the origin is
        # outside; a sign-only triangle test would be fooled
        s = WeightSet([(-5, 1), (0, 1), (5, 1)])
        assert contains_origin(s) is OriginLocation.OUTSIDE

    def test_symbolic_segment_needs_symbolic_separation(self):
        # separating the origin from this pair takes a direction with an
        # N-linear slope, so integer-only probing would misclassify it
        s = WeightSet([(N, ZERO), (AffineN(-1), AffineN(0, 1))])
        assert contains_origin(s) is OriginLocation.OUTSIDE

    @given(st.lists(points, min_size=1, max_size=7))
    @settings(max_examples=200)
    def test_permutation_and_duplication_invariance(self, pts):
        base = contains_origin(WeightSet(pts))
        assert contains_origin(WeightSet(list(reversed(pts)))) is base
        assert contains_origin(WeightSet(pts + pts)) is base

    @given(st.lists(points, min_size=1, max_size=6), points)
    @settings(max_examples=200)
    def test_interior_persists_when_points_added(self, pts, extra):
        if contains_origin(WeightSet(pts)) is OriginLocation.INTERIOR:
            assert contains_origin(WeightSet(pts + [extra])) is OriginLocation.INTERIOR

    @given(st.lists(points, min_size=1, max_size=6), points)
    @settings(max_examples=200)
    def test_adding_points_never_moves_away_from_interior(self, pts, extra):
        rank = {
            OriginLocation.OUTSIDE: 0,
            OriginLocation.BOUNDARY: 1,
            OriginLocation.INTERIOR: 2,
        }
        before = contains_origin(WeightSet(pts))
        after = contains_origin(WeightSet(pts + [extra]))
        assert rank[after] >= rank[before] or extra in pts

    @given(st.lists(st.tuples(
        st.integers(min_value=-15, max_value=15),
        st.integers(min_value=-15, max_value=15),
    ), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_agrees_with_independent_oracle_on_rational_sets(self, raw):
        s = WeightSet(raw)
        assert contains_origin(s).value == oracle_location(s)

    @given(st.lists(points, min_size=1, max_size=6))
    @settings(max_examples=250)
    def test_agrees_with_independent_oracle_on_symbolic_sets(self, raw):
        s = WeightSet(raw)
        assert contains_origin(s).value == oracle_location(s)


# row entries: small values, where rows and signs collide, and values up to 10^12
entries = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-10**12, max_value=10**12),
)


@st.composite
def degenerate_rows(draw):
    """Integer rows (a_x, b_x, a_y, b_y) with a duplicate, a row collinear
    with two others for every N, and sometimes the origin."""
    rows = draw(st.lists(st.tuples(entries, entries, entries, entries), min_size=1, max_size=5))
    p, q = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    t = draw(st.integers(min_value=-3, max_value=3))
    rows.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.append((0, 0, 0, 0))
    return rows


def cross_coeffs(o, p, q):
    """(c2, c1, c0) of (p - o) x (q - o) for rows, c2*N^2 + c1*N + c0."""
    ux1, ux0, uy1, uy0 = (a - b for a, b in zip(p, o))
    vx1, vx0, vy1, vy0 = (a - b for a, b in zip(q, o))
    return (
        ux1 * vy1 - uy1 * vx1,
        ux1 * vy0 + ux0 * vy1 - uy1 * vx0 - uy0 * vx1,
        ux0 * vy0 - uy0 * vx0,
    )


def dot_coeffs(p, q):
    """(c2, c1, c0) of the dot product p . q of two rows."""
    return (
        p[0] * q[0] + p[2] * q[2],
        p[0] * q[1] + p[1] * q[0] + p[2] * q[3] + p[3] * q[2],
        p[1] * q[1] + p[3] * q[3],
    )


def sign_at(coeffs, n_value):
    c2, c1, c0 = coeffs
    value = (c2 * n_value + c1) * n_value + c0
    return (value > 0) - (value < 0)


class TestCertifiedN:
    """_locate reads its rows at the one value N = _certified_n(rows); these
    tests check the two facts its docstring proves of that value."""

    @given(degenerate_rows())
    @settings(max_examples=150)
    # M = 3, and the orientation of the three rows is -N^2 + 66N: a root
    # past 7M^2, which a bound of 4M^2 + 1 would miss
    @example([(-3, -3, -2, 3), (-2, 3, -1, -3), (3, -3, 3, 3)])
    def test_sign_at_certified_n_is_the_eventual_sign(self, rows):
        b = _certified_n(rows)
        pts = rows + [(0, 0, 0, 0)]
        for o, p, q in itertools.product(pts, repeat=3):
            coeffs = cross_coeffs(o, p, q)
            assert sign_at(coeffs, b) == _eventual_sign(*coeffs), (o, p, q)
        for p, q in itertools.product(pts, repeat=2):
            coeffs = dot_coeffs(p, q)
            assert sign_at(coeffs, b) == _eventual_sign(*coeffs), (p, q)

    @given(degenerate_rows())
    @settings(max_examples=150)
    def test_certified_n_keeps_the_order_and_distinctness_of_rows(self, rows):
        b = _certified_n(rows)

        def at_b(row):
            return (row[0] * b + row[1], row[2] * b + row[3])

        pts = rows + [(0, 0, 0, 0)]
        assert [at_b(row) for row in sorted(set(pts))] == sorted(set(map(at_b, pts)))

    def test_concrete_status_equals_symbolic_from_certified_n_on(self):
        for n in range(1, 7):
            keys = dict.fromkeys(map(_polytope_class, enumerate_env_points(n)))
            for tau in tau_grid(n):
                lin = lin_for(tau)
                for key in keys:
                    rows = _class_rows(key, n, lin.m, lin.r)
                    want = _LOCATION_TO_STATUS[_locate(rows)]
                    b = _certified_n(rows)
                    for n_value in (b, b + 1, 4 * b):
                        got = _LOCATION_TO_STATUS[_locate_points(rows, n_value)]
                        assert got is want, (n, tau, key, n_value)

    def test_n_star_lies_past_certified_n_on_class_rows(self):
        assert_n_star_past_certified_n(8)


class TestScaledMinkowski:
    def test_single_scaled_point_with_shift(self):
        out = scaled_minkowski(
            [(N, WeightSet([(1, -1)])), (1, WeightSet([(-2, 0)]))],
            weight2(0, 5),
        )
        (w,) = out.points
        assert (w.x, w.y) == (AffineN(1, -2), AffineN(-1, 5))

    def test_identity(self):
        out = scaled_minkowski([(1, WeightSet([(0, 0)]))], weight2(0, 0))
        (w,) = out.points
        assert w.x.is_zero() and w.y.is_zero()

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_minkowski([(-1, WeightSet([(1, 0)]))], weight2(0, 0))

    def test_two_n_linear_scales_rejected(self):
        with pytest.raises(DegreeOverflowError):
            scaled_minkowski(
                [(N, WeightSet([(1, 0)])), (N, WeightSet([(0, 1)]))],
                weight2(0, 0),
            )

    @given(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4),
        st.integers(0, 4),
        st.integers(0, 4),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=150)
    def test_output_is_exactly_all_pairwise_sums(self, s1, s2, c1, c2, shift):
        out = scaled_minkowski(
            [(c1, WeightSet(s1)), (c2, WeightSet(s2))], weight2(*shift)
        )
        got = sorted(
            (w.x.const, w.y.const) for w in out.points
        )
        want = sorted(
            (
                Fraction(c1 * p[0] + c2 * q[0] + shift[0]),
                Fraction(c1 * p[1] + c2 * q[1] + shift[1]),
            )
            for p, q in itertools.product(s1, s2)
        )
        assert got == want

    @given(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4),
        st.integers(1, 4),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=100)
    def test_hull_equals_minkowski_sum_of_hulls(self, s1, s2, c2, shift):
        # first part scaled by N, second by a constant: hull of the output
        # at a concrete N equals the sum of the scaled hulls there
        out = scaled_minkowski(
            [(N, WeightSet(s1)), (c2, WeightSet(s2))], weight2(*shift)
        )
        n_value = Fraction(10**7)
        lhs = hull_polygon(
            [(w.x.eval_at(n_value), w.y.eval_at(n_value)) for w in out.points]
        )
        summed = [
            (
                n_value * p[0] + c2 * q[0] + shift[0],
                n_value * p[1] + c2 * q[1] + shift[1],
            )
            for p, q in itertools.product(s1, s2)
        ]
        assert hull_polygon(summed) == lhs
