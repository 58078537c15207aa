"""The completion P^2 x P(V): weight table, polytopes, closed-form statuses."""

import itertools
from fractions import Fraction

import pytest

from nrgit import (
    AffineN,
    Divisor,
    EnvParams,
    EnvPoint,
    LinParam,
    N,
    PointSupport,
    Status,
    TorusAction,
    WeightSet,
    classify_borel,
    classify_unipotent,
    concrete_torus_case_status,
    contains_origin,
    embed_divisor,
    enumerate_env_points,
    enumerate_profiles,
    fixed_point_weights,
    group_status,
    n_threshold,
    point_polytope,
    strong_envelope_report,
    torus_case_status,
    torus_status,
    unipotent_case_status,
    unipotent_status,
    weight2,
)

from nrgit.envelope import (
    _class_rows, _engine_table, _polytope_class, _polytope_classes, _torus_case,
)
from nrgit.hilbert_mumford import _LOCATION_TO_STATUS
from nrgit.polytope import _certified_n, _integer_weights, _locate, _locate_points

from helpers import (
    hull_polygon, lin_for, n_threshold_by_points, N_STAR, oracle_status, scaled_minkowski,
    tau_grid,
)

E_BY_LABEL = {"[1:0:0]": (0, 0), "[0:1:0]": (1, -1), "[0:0:1]": (-1, -1)}


def engine_table_slopes():
    # (n, m, r): every twist in [-nm - 1, nm + 1] for n <= 8 and m <= 3, and
    # every tau_grid slope for n <= 12
    slopes = {(n, m, r) for n in range(1, 9) for m in (1, 2, 3)
              for r in range(-n * m - 1, n * m + 2)}
    slopes |= {(n, lin_for(tau).m, lin_for(tau).r) for n in range(1, 13) for tau in tau_grid(n)}
    return sorted(slopes)


class TestEnvPoint:
    def test_embed(self):
        p = embed_divisor(Divisor(4, 1, 0, (3,)))
        assert p.v_support == {0, 1}
        assert p.marked_mult == 1

    def test_embed_no_root_at_inf(self):
        assert embed_divisor(Divisor(4, 0, 4, ())).marked_mult == 0

    def test_marked_required_when_special(self):
        with pytest.raises(ValueError, match="inconsistent marked data"):
            EnvPoint({0, 1}, Divisor(3, 1, 1, (1,)))

    def test_marked_forbidden_without_special(self):
        with pytest.raises(ValueError, match="inconsistent marked data"):
            EnvPoint({0}, Divisor(3, 1, 1, (1,)), 1)

    def test_marked_must_match_slot(self):
        with pytest.raises(ValueError, match="inconsistent marked data"):
            EnvPoint({0, 1}, Divisor(3, 1, 1, (1,)), 2)
        with pytest.raises(ValueError, match="inconsistent marked data"):
            EnvPoint({0, 2}, Divisor(3, 1, 1, (1,)), 0)

    def test_generic_marked_must_be_zero_or_a_generic_mult(self):
        EnvPoint({0, 1, 2}, Divisor(4, 1, 1, (2,)), 2)
        EnvPoint({0, 1, 2}, Divisor(4, 1, 1, (2,)), 0)
        with pytest.raises(ValueError, match="inconsistent marked data"):
            EnvPoint({0, 1, 2}, Divisor(4, 1, 1, (2,)), 1)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            EnvPoint(set(), Divisor(1, 1, 0, ()))

    def test_marked_rule_over_every_point_up_to_degree_five(self):
        def legal(sup, d):
            if 1 in sup and 2 in sup:
                return {0, *d.generic}
            if 1 in sup:
                return {d.mult_inf}
            if 2 in sup:
                return {d.mult_zero}
            return {None}

        supports = [
            s for k in (1, 2, 3) for s in itertools.combinations((0, 1, 2), k)
        ]
        for n in range(1, 6):
            accepted = []
            for d in enumerate_profiles(n):
                for sup in supports:
                    for marked in (None, *range(n + 1)):
                        if marked in legal(sup, d):
                            accepted.append(EnvPoint(sup, d, marked))
                        else:
                            with pytest.raises(ValueError, match="inconsistent marked data"):
                                EnvPoint(sup, d, marked)
            assert enumerate_env_points(n) == accepted

    def test_census_is_coherent_and_visits_all_supports(self):
        pts = enumerate_env_points(3)
        sups = {frozenset(p.v_support) for p in pts}
        assert len(sups) == 7
        profiles = {p.divisor for p in pts}
        assert len(profiles) == len(enumerate_profiles(3))


class TestWeightTable:
    def test_middle_monomial_untwisted_row_is_origin(self):
        rows = fixed_point_weights(EnvParams(2, LinParam(1, 0)))
        (w,) = [w for label, i, w in rows if label == "[1:0:0]" and i == 1]
        assert w.x.is_zero() and w.y.is_zero()

    def test_pinned_symbolic_rows(self):
        rows = fixed_point_weights(EnvParams(1, LinParam(3, 2)))
        by = {(label, i): w for label, i, w in rows}
        w = by[("[0:1:0]", 1)]
        assert (str(w.x), str(w.y)) == ("N+3", "-N+2")
        w = by[("[0:0:1]", 0)]
        assert (str(w.x), str(w.y)) == ("-N-3", "-N+2")

    def test_row_count_and_formulas(self):
        for n, m, r in [(1, 1, 0), (3, 2, -5), (5, 3, 7)]:
            rows = fixed_point_weights(EnvParams(n, LinParam(m, r)))
            assert len(rows) == 3 * (n + 1)
            for label, i, w in rows:
                ex, ey = E_BY_LABEL[label]
                assert w.x == AffineN(ex, m * (2 * i - n))
                assert w.y == AffineN(ey, r)

    def test_rows_equal_polytopes_of_singleton_fixed_points(self):
        for n, m, r in [(2, 1, 1), (3, 2, 3)]:
            params = EnvParams(n, LinParam(m, r))
            for label, i, w in fixed_point_weights(params):
                j = {"[1:0:0]": 0, "[0:1:0]": 1, "[0:0:1]": 2}[label]
                d = Divisor(n, i, n - i, ())
                marked = {0: None, 1: i, 2: n - i}[j]
                p = EnvPoint({j}, d, marked)
                pts = point_polytope(p, params).distinct()
                assert len(pts) == 1
                got = pts[0]
                assert (got.x, got.y) == (w.x, w.y)


class TestPointPolytope:
    def test_v0_only_full_support_is_horizontal_segment(self):
        n, m, r = 4, 2, 3
        p = EnvPoint({0}, Divisor(n, 0, 0, (1, 1, 1, 1)))
        pts = point_polytope(p, EnvParams(n, LinParam(m, r))).distinct()
        ys = {w.y for w in pts}
        assert ys == {AffineN(0, r)}
        xs = sorted(w.x for w in pts)
        assert xs[0] == AffineN(0, -n * m)
        assert xs[-1] == AffineN(0, n * m)

    def test_class_rows_are_the_rows_of_every_point_polytope(self):
        # the engine decides on _class_rows; they must be the integer rows of
        # point_polytope and of the weight formula, and the points
        # enumerate_env_points builds without EnvPoint's coherence check
        # must pass it
        e_rows = [E_BY_LABEL[label] for label in ("[1:0:0]", "[0:1:0]", "[0:0:1]")]
        for n in range(1, 9):
            points = enumerate_env_points(n)
            for p in points:
                assert p == EnvPoint(p.v_support, p.divisor, p.marked_mult)
            for tau in tau_grid(n):
                lin = lin_for(tau)
                m, r = lin.m, lin.r
                params = EnvParams(n, lin)
                for p in points:
                    d = p.divisor
                    formula = [
                        (e_rows[j][0], m * (2 * i - n), e_rows[j][1], r)
                        for j in sorted(p.v_support)
                        for i in sorted({d.mult_inf, n - d.mult_zero})
                    ]
                    got = _class_rows(_polytope_class(p), n, m, r)
                    assert got == _integer_weights(point_polytope(p, params).points), (p, tau)
                    assert got == formula, (p, tau)

    def test_polytope_classes_are_the_classes_of_the_points(self):
        # diff_report lists the classes in closed form; they must be exactly
        # the classes of the completion's points, each once
        for n in range(1, 13):
            classes = _polytope_classes(n)
            assert len(classes) == len(set(classes)) == 7 * (n + 1) * (n + 2) // 2
            assert set(classes) == set(map(_polytope_class, enumerate_env_points(n))), n

    def test_engine_table_is_the_per_class_route(self):
        # the one grid decides every class as _locate on the class's own rows
        # does, and reads it at an N no smaller than the class's certified N
        # (matching verdicts alone would not show that: a grid read at
        # N = M + 1 matches on this whole range)
        for n, m, r in engine_table_slopes():
            b, table = _engine_table(n, m, r)
            assert list(table) == _polytope_classes(n)
            for key, status in table.items():
                rows = _class_rows(key, n, m, r)
                assert status == _LOCATION_TO_STATUS[_locate(rows)], (n, m, r, key)
                assert b >= _certified_n(rows), (n, m, r, key)

    def test_engine_table_agrees_with_the_oracle(self):
        # _locate runs the engine's own hull body, so the test above cannot
        # see a wrong body; the oracle of helpers.py decides each class's
        # rows at N_STAR by its own algorithm, once per distinct row set
        seen = {}
        for n, m, r in engine_table_slopes():
            if n > 8:
                continue
            for key, status in _engine_table(n, m, r)[1].items():
                rows = tuple(_class_rows(key, n, m, r))
                if rows not in seen:
                    seen[rows] = oracle_status(WeightSet(
                        (AffineN(ax, bx), AffineN(ay, by)) for ax, bx, ay, by in rows))
                assert status is seen[rows], (n, m, r, key)

    def test_engine_table_hands_the_hull_sorted_distinct_points(self, monkeypatch):
        # _engine_table builds each class's points in x-order without a sort.
        # Tests read that order: test_engine_rows_cover_every_point_of_a_class
        # picks its class by its sorted distinct points, and TestKeyedPass's
        # hull mutant counts 4 distinct points
        import nrgit.envelope as envelope

        real = envelope._locate_sorted
        handed = []

        def checked(pts):
            handed.append(pts)
            return real(pts)

        monkeypatch.setattr(envelope, "_locate_sorted", checked)
        for n, m, r in engine_table_slopes():
            handed.clear()
            _engine_table(n, m, r)
            assert len(handed) == len(_polytope_classes(n))
            for pts in handed:
                assert pts == sorted(set(pts)), (n, m, r, pts)

    def test_degree_mismatch_rejected(self):
        p = EnvPoint({0}, Divisor(3, 0, 0, (3,)))
        with pytest.raises(ValueError):
            point_polytope(p, EnvParams(4, LinParam(1, 0)))

    def test_extremes_match_brute_force_sum_enumeration(self):
        # hull at a large concrete N computed from the polytope op vs from
        # direct enumeration of e-weight + monomial-weight sums
        for n in (1, 2, 3, 4):
            params = EnvParams(n, lin_for(Fraction(1, 2)))
            m, r = params.lin.m, params.lin.r
            for p in enumerate_env_points(n):
                ws = point_polytope(p, params)
                got = hull_polygon(
                    [(w.x.eval_at(N_STAR), w.y.eval_at(N_STAR)) for w in ws]
                )
                d = p.divisor
                want_pts = []
                for j in sorted(p.v_support):
                    ex, ey = {0: (0, 0), 1: (1, -1), 2: (-1, -1)}[j]
                    for i in range(d.mult_inf, n - d.mult_zero + 1):
                        want_pts.append(
                            (
                                N_STAR * ex + m * (2 * i - n),
                                N_STAR * ey + r,
                            )
                        )
                assert hull_polygon(want_pts) == got


class TestTorusCaseStatus:
    def test_all_three_v_rows_with_balanced_masses(self):
        params = EnvParams(4, LinParam(1, 2))
        p = EnvPoint({0, 1, 2}, Divisor(4, 1, 1, (2,)), 2)
        assert torus_case_status(p, params) is Status.STABLE

    def test_v0_only_needs_zero_twist(self):
        params = EnvParams(4, LinParam(1, 2))
        p = EnvPoint({0}, Divisor(4, 1, 1, (2,)))
        assert torus_case_status(p, params) is Status.UNSTABLE
        p2 = EnvPoint({0}, Divisor(4, 1, 1, (2,)))
        assert torus_case_status(p2, EnvParams(4, LinParam(1, 0))) is Status.STRICTLY_SEMISTABLE

    def test_matches_polytope_engine_up_to_degree_5(self):
        lins = [LinParam(1, 0), LinParam(1, 2), LinParam(2, 1), LinParam(1, -1),
                LinParam(2, 9), LinParam(1, 5)]
        for n in range(1, 6):
            pts = enumerate_env_points(n)
            for lin in lins:
                params = EnvParams(n, lin)
                for p in pts:
                    ws = point_polytope(p, params)
                    act = TorusAction(tuple(ws))
                    sup = PointSupport(range(len(ws)))
                    assert torus_case_status(p, params) is torus_status(act, sup), (n, lin, p)


class TestGroupStatus:
    def test_marked_mass_too_big_is_unstable(self):
        params = EnvParams(4, LinParam(1, 2))
        p = EnvPoint({0, 1, 2}, Divisor(4, 0, 2, (2,)), 2)
        assert group_status(p, params) is Status.UNSTABLE

    def test_unmarked_generic_point_is_stable(self):
        params = EnvParams(4, LinParam(1, 2))
        p = EnvPoint({0, 1, 2}, Divisor(4, 0, 2, (2,)), 0)
        assert group_status(p, params) is Status.STABLE

    def test_slope_n_never_stable(self):
        n = 4
        params = EnvParams(n, LinParam(1, n))
        p = EnvPoint({0, 1, 2}, Divisor(n, 0, 2, (2,)), 0)
        assert group_status(p, params) is Status.STRICTLY_SEMISTABLE

    def test_vanishing_v0_unstable_for_positive_slopes(self):
        n = 4
        for tau in (Fraction(1, 2), Fraction(2), Fraction(4)):
            params = EnvParams(n, lin_for(tau))
            for p in enumerate_env_points(n):
                if 0 not in p.v_support:
                    assert group_status(p, params) is Status.UNSTABLE

    def test_rescaling_linearisation_preserves_statuses(self):
        n = 4
        for p in enumerate_env_points(n):
            for m, r in [(1, 2), (1, 0), (2, 3), (1, 4)]:
                base_g = group_status(p, EnvParams(n, LinParam(m, r)))
                base_t = torus_case_status(p, EnvParams(n, LinParam(m, r)))
                for k in (2, 3):
                    scaled = EnvParams(n, LinParam(k * m, k * r))
                    assert group_status(p, scaled) is base_g
                    assert torus_case_status(p, scaled) is base_t

    def test_rescaling_with_twist_scales_polytope_harmlessly(self):
        # scaling (m, r, N) -> (km, kr, kN) dilates the weight polytope by k,
        # which cannot move the origin across its boundary
        n, m, r, k = 3, 1, 2, 4
        for p in enumerate_env_points(n):
            d = p.divisor
            a_part = WeightSet(
                [{0: (0, 0), 1: (1, -1), 2: (-1, -1)}[j] for j in sorted(p.v_support)]
            )
            b_part = WeightSet(
                [(2 * i - n, 0) for i in range(d.mult_inf, n - d.mult_zero + 1)]
            )
            base = scaled_minkowski(
                [(N, a_part), (Fraction(m), b_part)], weight2(0, r)
            )
            dilated = scaled_minkowski(
                [(AffineN(k, 0), a_part), (Fraction(k * m), b_part)],
                weight2(0, k * r),
            )
            assert contains_origin(dilated) is contains_origin(base)


class TestUnipotentStatus:
    def test_examples(self):
        assert unipotent_status(embed_divisor(Divisor(5, 2, 2, (1,))), 5) is Status.STABLE
        assert (
            unipotent_status(embed_divisor(Divisor(4, 2, 2, ())), 4)
            is Status.STRICTLY_SEMISTABLE
        )

    def test_restriction_reproduces_intrinsic_classification(self):
        for n in range(1, 7):
            for d in enumerate_profiles(n):
                assert unipotent_status(embed_divisor(d), n) is classify_unipotent(d)

    def test_case_status_reads_interval_endpoints(self):
        p = EnvPoint({0}, Divisor(4, 2, 2, ()))
        assert unipotent_case_status(p, 4) is Status.STRICTLY_SEMISTABLE
        q = EnvPoint({0}, Divisor(4, 1, 1, (2,)))
        assert unipotent_case_status(q, 4) is Status.STABLE
        r = EnvPoint({1}, Divisor(4, 1, 1, (2,)), 1)
        assert unipotent_case_status(r, 4) is Status.UNSTABLE


class TestStrongEnvelopeReport:
    def test_equalities_hold_at_interior_wall(self):
        rep = strong_envelope_report(4, LinParam(1, 2))
        assert rep.ok
        assert rep.counts_intrinsic == rep.counts_envelope
        assert sum(rep.counts_intrinsic) == len(enumerate_profiles(4))

    def test_wall_for_odd_degree_has_nonempty_strict_class(self):
        rep = strong_envelope_report(3, LinParam(1, 1))
        assert rep.ok
        assert rep.counts_intrinsic[1] > 0

    def test_negative_slope_trivially_equal(self):
        rep = strong_envelope_report(5, LinParam(1, -2))
        assert rep.ok
        assert rep.counts_intrinsic == (0, 0, len(enumerate_profiles(5)))


class TestConcreteThreshold:
    def test_threshold_exists_and_is_small(self):
        assert n_threshold(2, LinParam(1, 1)) <= 16

    def test_threshold_untwisted(self):
        n0 = n_threshold(1, LinParam(1, 0))
        params = EnvParams(1, LinParam(1, 0))
        for p in enumerate_env_points(1):
            assert concrete_torus_case_status(p, params, n0) is torus_case_status(p, params)

    @pytest.mark.parametrize(
        "n, m, r",
        [
            (n, m, r)
            for n in range(1, 5)
            for m in range(1, 4)
            for r in sorted({-1, 0, 1, 2, n * m, n * m + 1})
        ]
        + [(n, 1, r) for n in (5, 6) for r in range(n + 2)],
    )
    def test_class_scan_matches_point_scan(self, n, m, r):
        lin = LinParam(m, r)
        assert n_threshold(n, lin) == n_threshold_by_points(n, lin)

    def test_least_good_twist_is_past_the_twist_on_every_class(self):
        # the theorem behind n_threshold: with N* = max(1, r + 1), every
        # class has its symbolic status at every N >= N* (sampled at N*,
        # N* + 1, 2N* and the class's certified N), the class
        # ({0,1,2}, 0, 0) has another at every N in 1..r, and n_threshold
        # is the least power of two at or above N*
        cases = [(n, lin_for(tau)) for n in range(1, 9) for tau in tau_grid(n)]
        cases += [(12, LinParam(1, r)) for r in range(14)]
        cases += [(12, LinParam(7, 7 * w + e)) for w in range(0, 13, 2) for e in (-1, 1)]
        witness = (frozenset({0, 1, 2}), 0, 0)
        for n, lin in cases:
            m, r = lin.m, lin.r
            n_star = max(1, r + 1)
            for key in _polytope_classes(n):
                rows = _class_rows(key, n, m, r)
                want = _torus_case(*key, n, m, r)
                for big_n in (n_star, n_star + 1, 2 * n_star, _certified_n(rows)):
                    got = _LOCATION_TO_STATUS[_locate_points(rows, big_n)]
                    assert got is want, (n, lin, key, big_n)
            rows = _class_rows(witness, n, m, r)
            want = _torus_case(*witness, n, m, r)
            for small_n in range(1, r + 1):
                got = _LOCATION_TO_STATUS[_locate_points(rows, small_n)]
                assert got is not want, (n, lin, small_n)
            n0 = n_threshold(n, lin)
            assert n0 & (n0 - 1) == 0 and n0 >= n_star > n0 // 2, (n, lin, n0)

    def test_threshold_past_the_old_scan_bound(self):
        # the least good twist 2**20 + 1 lies past any fixed scan bound of 2**20
        assert n_threshold(1, LinParam(1, 2**20)) == 2**21
        assert n_threshold(5, LinParam(3, 10**30)) == 1 << 100

    def test_a_float_twist_is_refused(self):
        # LinParam reads its fields as ints, so a float slope never reaches
        # the threshold search (it once ended in an AttributeError there)
        with pytest.raises(TypeError):
            n_threshold(3, LinParam(1, 2.5))

    def test_concrete_status_matches_evaluated_weights(self):
        # the concrete path on integer rows against evaluating each weight
        # with eval_at and locating the origin in the evaluated WeightSet
        n_values = [*range(1, 13), Fraction(1, 2), Fraction(5, 2), Fraction(7, 2)]
        for n in range(1, 6):
            for lin in (LinParam(1, 0), LinParam(1, 1), LinParam(2, 3)):
                params = EnvParams(n, lin)
                for p in enumerate_env_points(n):
                    poly = point_polytope(p, params)
                    for n_value in n_values:
                        pts = [
                            weight2(w.x.eval_at(n_value), w.y.eval_at(n_value))
                            for w in poly
                        ]
                        want = _LOCATION_TO_STATUS[contains_origin(WeightSet(pts))]
                        got = concrete_torus_case_status(p, params, n_value)
                        assert got is want, (str(p), lin, n_value)

    def test_concrete_status_refuses_non_positive_twist(self):
        p = embed_divisor(Divisor(3, 1, 0, (2,)))
        params = EnvParams(3, LinParam(1, 1))
        for n_value in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                concrete_torus_case_status(p, params, n_value)
        with pytest.raises(TypeError):
            concrete_torus_case_status(p, params, 2.5)

    def test_small_n_disagrees_somewhere(self):
        # at N = 1 the completion weights collide and at least one point
        # classifies differently than in the large-N regime, which is why the
        # twist must be large
        params = EnvParams(2, LinParam(1, 1))
        assert any(
            concrete_torus_case_status(p, params, 1) is not torus_case_status(p, params)
            for p in enumerate_env_points(2)
        )
