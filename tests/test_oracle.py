"""Brute-force placement oracles and the census diff harness."""

import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from nrgit import (
    Divisor,
    EnvParams,
    EnvPoint,
    GroupKind,
    LinParam,
    OriginLocation,
    Status,
    census_size_formula,
    classify_borel,
    classify_sl2,
    classify_unipotent,
    diff_report,
    embed_divisor,
    enumerate_env_points,
    enumerate_profiles,
    group_status,
    moves_for,
    partition_count,
    strong_envelope_report,
    torus_case_status,
    unipotent_case_status,
    unipotent_status,
    wall_values,
    worst_case_status,
)

from helpers import lin_for, tau_grid


class TestCensus:
    def test_partition_counts(self):
        got = [partition_count(k) for k in range(13)]
        assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

    def test_size_formula(self):
        assert census_size_formula(1) == 3
        assert census_size_formula(2) == 7
        assert census_size_formula(4) == 26
        assert census_size_formula(8) == 187

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_partition_count_refused(self, k):
        with pytest.raises(ValueError, match="negative"):
            partition_count(k)

    @pytest.mark.parametrize("n", [0, -1])
    def test_size_formula_refuses_a_degree_below_one(self, n):
        with pytest.raises(ValueError, match="degree must be positive"):
            census_size_formula(n)

    def test_degree_two_census_explicitly(self):
        want = {
            Divisor(2, 0, 0, (1, 1)),
            Divisor(2, 0, 0, (2,)),
            Divisor(2, 1, 0, (1,)),
            Divisor(2, 0, 1, (1,)),
            Divisor(2, 1, 1, ()),
            Divisor(2, 2, 0, ()),
            Divisor(2, 0, 2, ()),
        }
        assert set(enumerate_profiles(2)) == want

    def test_census_complete_and_distinct(self):
        for n in range(1, 13):
            census = enumerate_profiles(n)
            assert len(census) == census_size_formula(n)
            assert len(set(census)) == len(census)
            assert all(d.n == n for d in census)

    def test_swap_of_special_slots_is_an_involution(self):
        for n in range(1, 9):
            census = set(enumerate_profiles(n))
            for d in census:
                assert Divisor(n, d.mult_zero, d.mult_inf, d.generic) in census

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_profiles(13)
        assert len(enumerate_profiles(13, max_n=13)) == census_size_formula(13)

    @staticmethod
    def status_counts(n, lin):
        # (stable, strictly semistable, unstable) profile counts from
        # classify_borel's thresholds alone: a profile is semistable when its
        # [1:0] mass a has 2am <= nm - r and every other mass c has 2cm <=
        # nm + r, stable with both strict, so each count is a sum over the
        # slot masses a and b of p_{<=C}(n - a - b), the partitions of the
        # generic masses into parts of at most C
        m, r = lin.m, lin.r

        def bounded(a_max, c_max):
            # profiles with mult_inf <= a_max and every other mass <= c_max
            p = [1] + [0] * n
            for part in range(1, min(c_max, n) + 1):
                for total in range(part, n + 1):
                    p[total] += p[total - part]
            return sum(p[n - a - b] for a in range(min(a_max, n) + 1)
                       for b in range(min(c_max, n - a) + 1))

        if r < 0 or r > n * m:
            semistable = stable = 0
        elif r == 0:
            semistable, stable = bounded(n // 2, n // 2), 0
        else:
            semistable = bounded((n * m - r) // (2 * m), (n * m + r) // (2 * m))
            stable = bounded((n * m - r - 1) // (2 * m), (n * m + r - 1) // (2 * m))
        return stable, semistable - stable, census_size_formula(n) - semistable

    def test_census_tallies_are_restricted_partition_sums(self):
        # an enumeration of the right size but the wrong profiles keeps
        # census_size_formula and can keep a clean diff_report; its tallies
        # part from these closed-form counts
        from nrgit.oracle import _census

        for n in range(1, 9):
            for tau in tau_grid(n):
                lin = lin_for(tau)
                report = _census(n, lin, n)[1]
                want = self.status_counts(n, lin)
                assert report.counts_intrinsic == report.counts_envelope == want, (n, lin)
        for n in range(1, 13):
            census = enumerate_profiles(n)
            for m in (1, 2, 3):
                for r in range(-1, n * m + 2):
                    lin = LinParam(m, r)
                    got = Counter(classify_borel(d, lin) for d in census)
                    want = self.status_counts(n, lin)
                    assert tuple(got[s] for s in reversed(Status)) == want, (n, lin)


class TestMoveSets:
    def test_torus_only_is_identity(self):
        p = embed_divisor(Divisor(3, 1, 0, (2,)))
        ms = moves_for(GroupKind.TORUS_ONLY, p)
        assert ms.moves == (p,)

    def test_borel_moves_require_embedded_shape(self):
        with pytest.raises(ValueError):
            moves_for(GroupKind.BOREL, EnvPoint({0}, Divisor(3, 1, 0, (2,))))

    def test_borel_moves_fix_infinity_mass(self):
        d = Divisor(4, 1, 0, (2, 1))
        for q in moves_for(GroupKind.BOREL, embed_divisor(d)).moves:
            assert q.divisor.mult_inf == 1
            assert q.v_support == {0, 1}
            assert q.marked_mult == 1

    def test_full_group_moves_cover_both_markings(self):
        d = Divisor(4, 1, 0, (2, 1))
        sups = {frozenset(q.v_support) for q in
                moves_for(GroupKind.FULL_ENVELOPE_GROUP, embed_divisor(d)).moves}
        assert frozenset({0, 1}) in sups
        assert frozenset({0, 2}) in sups

    def test_second_layer_composition_adds_nothing(self):
        # worst status over moves == worst over moves-of-moves: the move set
        # is closed enough that one layer already realises the group orbit
        rng = random.Random(20240814)
        params = EnvParams(5, LinParam(1, 2))
        pts = [embed_divisor(d) for d in enumerate_profiles(5)]
        for d0 in rng.sample(pts, 12):
            for kind in (GroupKind.FULL_ENVELOPE_GROUP, GroupKind.UNIPOTENT_ENVELOPE):
                first = moves_for(kind, d0).moves
                if kind is GroupKind.UNIPOTENT_ENVELOPE:
                    score = lambda q: unipotent_case_status(q, 5)
                else:
                    score = lambda q: torus_case_status(q, params)
                one = min(score(q) for q in first)
                two = min(
                    score(q2) for q in first for q2 in moves_for(kind, q).moves
                )
                assert one is two


class TestWorstCaseStatus:
    def test_borel_oracle_matches_closed_form(self):
        for n in range(1, 7):
            census = enumerate_profiles(n)
            for tau in tau_grid(n):
                lin = lin_for(tau)
                for d in census:
                    assert worst_case_status(d, lin, GroupKind.BOREL) is classify_borel(d, lin)

    def test_borel_status_never_rises_with_the_mass_at_zero(self):
        # _placements' docstring: every Borel placement has v-support {0, 1},
        # where the torus status never rises as mult_zero grows, so the
        # placement with nothing at [0:1] is never the worst of its class
        from nrgit.envelope import _EMBEDDED_SUPPORT, _torus_case
        from nrgit.oracle import _placements, _point_key

        for n in range(1, 13):
            keys = {_point_key(GroupKind.BOREL, embed_divisor(d)) for d in enumerate_profiles(n)}
            assert {sup for key in keys for sup, _, _ in _placements(key)} == {_EMBEDDED_SUPPORT}
            for m in (1, 2, 3, 7):
                for r in range(-n * m - 1, n * m + 2):
                    for a in range(n + 1):
                        statuses = [_torus_case(_EMBEDDED_SUPPORT, a, q, n, m, r)
                                    for q in range(n - a + 1)]
                        assert statuses == sorted(statuses, reverse=True), (n, m, r, a)

    def test_full_group_oracle_matches_closed_form(self):
        for n in range(1, 6):
            for tau in (Fraction(0), Fraction(1, 2), Fraction(n), Fraction(n + 1)):
                lin = lin_for(tau)
                params = EnvParams(n, lin)
                for d in enumerate_profiles(n):
                    assert (
                        worst_case_status(d, lin, GroupKind.FULL_ENVELOPE_GROUP)
                        is group_status(embed_divisor(d), params)
                    )

    def test_unipotent_oracle_matches_closed_form(self):
        # _unipotent_case reads no linearisation: lin=None scores every
        # profile as any linearisation does
        unip = GroupKind.UNIPOTENT_ENVELOPE
        for n in range(1, 7):
            for d in enumerate_profiles(n):
                assert worst_case_status(d, None, unip) is classify_unipotent(d)
                for lin in (LinParam(1, 0), LinParam(2, 3), LinParam(7, -1)):
                    assert worst_case_status(d, lin, unip) is classify_unipotent(d), (str(d), lin)

    def test_sl2_closed_form_against_placement_scan(self):
        # SL(2) baseline has no completion factor: scan placements directly;
        # the SL(2) weights 2i - n are the UnipotentEnvelope weights at v = [1:0:0]
        from nrgit.oracle import _class_worst, _point_key

        unip = GroupKind.UNIPOTENT_ENVELOPE
        for n in range(1, 9):
            seen = {}  # shared by every profile of the degree, as in diff_report
            for d in enumerate_profiles(n):
                key = _point_key(unip, EnvPoint({0}, d))
                assert _class_worst(key, n, None, seen) is classify_sl2(d)

    def test_lin_required_for_torus_scores(self):
        # the three groups scored by _torus_case refuse lin=None, and the
        # refusal names the group
        for kind in (GroupKind.TORUS_ONLY, GroupKind.BOREL, GroupKind.FULL_ENVELOPE_GROUP):
            with pytest.raises(ValueError, match=f"^{kind.value} placements require a linearisation$"):
                worst_case_status(Divisor(3, 1, 0, (2,)), None, kind)


class TestCensusPath:
    def test_class_scoring_matches_public_statuses(self):
        # diff_report scores each placement class once, from its class key;
        # per point, kind and slope that must equal the worst public status
        # over the point's EnvPoint moves
        from nrgit.oracle import _class_worst, _point_key

        unip = GroupKind.UNIPOTENT_ENVELOPE
        for n in range(1, 7):
            movesets = {}
            for p in enumerate_env_points(n):
                for kind in GroupKind:
                    try:
                        movesets[p, kind] = moves_for(kind, p).moves
                    except ValueError:
                        with pytest.raises(ValueError):
                            _point_key(kind, p)
            unip_want = {
                p: min(unipotent_case_status(q, n) for q in moves)
                for (p, kind), moves in movesets.items()
                if kind is unip
            }
            for tau in tau_grid(n):
                lin = lin_for(tau)
                params = EnvParams(n, lin)
                seen = {}
                for (p, kind), moves in movesets.items():
                    key = _point_key(kind, p)
                    if kind is unip:
                        got = _class_worst(key, n, None, seen)
                        want = unip_want[p]
                    else:
                        got = _class_worst(key, n, lin, seen)
                        want = min(torus_case_status(q, params) for q in moves)
                    assert got is want, (str(p), kind, lin)

    def test_raw_cores_match_public_statuses(self):
        # diff_report calls the completion-point closed forms as raw cores,
        # through these oracle bindings; each must return what its public
        # function returns on every point
        import nrgit.oracle as oracle

        for n in range(1, 9):
            points = enumerate_env_points(n)
            for tau in tau_grid(n):
                lin = lin_for(tau)
                params = EnvParams(n, lin)
                for p in points:
                    sup, d, marked = p.v_support, p.divisor, p.marked_mult
                    assert oracle._group_case(
                        sup, marked, d.max_mult(), n, lin.m, lin.r
                    ) is group_status(p, params), (str(p), lin)
                    assert oracle._unipotent_worst(
                        sup, oracle._point_unipotent(d)
                    ) is unipotent_status(p, n), str(p)
                    assert oracle._torus_case_list(
                        sup, d.mult_inf, d.mult_zero, n, lin.m, lin.r
                    ) is torus_case_status(p, params), (str(p), lin)


class TestDiffReport:
    def test_clean_on_small_grid(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for r in range(-n * m - 1, n * m + 2):
                    rep = diff_report(n, LinParam(m, r))
                    assert rep.ok, rep.rows[:3]
                    assert rep.checked >= len(enumerate_profiles(n))

    def test_clean_at_representative_slopes_degree_four(self):
        for tau in (Fraction(-1), Fraction(0), Fraction(1), Fraction(3, 2),
                    Fraction(2), Fraction(7, 2), Fraction(4), Fraction(5)):
            assert diff_report(4, lin_for(tau)).ok

    def test_clean_sample_degree_five(self):
        for tau in (Fraction(0), Fraction(1), Fraction(5, 2)):
            assert diff_report(5, lin_for(tau)).ok

    def test_clean_degree_eight_spot(self):
        assert diff_report(8, LinParam(1, 2)).ok
        assert diff_report(8, LinParam(2, 5)).ok

    @pytest.mark.parametrize(
        "closed_form, check",
        [
            ("classify_borel", "borel closed form vs Borel placements"),
            ("classify_unipotent", "unipotent closed form vs SL(2) placements"),
            ("classify_sl2", "sl2 closed form vs slot placements"),
            ("group_status", "group closed form vs tied placements"),
            ("unipotent_status",
             "unipotent closed form vs SL(2) placements (completion point)"),
            ("torus_case_status", "torus case list vs polytope engine"),
        ],
    )
    def test_each_check_fires_and_names_itself(self, monkeypatch, closed_form, check):
        import nrgit.oracle as oracle

        # diff_report reaches the three completion-point closed forms through
        # their raw cores, each bound in oracle under a name of its own
        binding = {
            "group_status": "_group_case",
            "unipotent_status": "_unipotent_worst",
            "torus_case_status": "_torus_case_list",
        }.get(closed_form, closed_form)
        real = getattr(oracle, binding)
        monkeypatch.setattr(
            oracle, binding, lambda *args: Status((real(*args) + 1) % 3)
        )
        rep = diff_report(3, LinParam(1, 1))
        assert rep.rows
        assert {row.check for row in rep.rows} == {check}

    def test_engine_rows_cover_every_point_of_a_class(self, monkeypatch):
        # the polytope engine runs once per polytope class, but a wrong
        # verdict must name every point of the class; the engine table hands
        # each class's points, read at its one N, to the hull body
        import nrgit.envelope as envelope
        from nrgit.envelope import _class_rows, _engine_table, _polytope_class

        n, lin = 3, LinParam(1, 1)
        classes = {}
        for p in enumerate_env_points(n):
            classes.setdefault(_polytope_class(p), []).append(p)
        members = max(classes.values(), key=len)
        assert len(members) > 1
        b = _engine_table(n, lin.m, lin.r)[0]
        rows = _class_rows(_polytope_class(members[0]), n, lin.m, lin.r)
        bad = sorted({(ax * b + bx, ay * b + by) for ax, bx, ay, by in rows})
        real = envelope._locate_sorted

        def mislocate(pts):
            got = real(pts)
            if pts != bad:
                return got
            if got is OriginLocation.OUTSIDE:
                return OriginLocation.INTERIOR
            return OriginLocation.OUTSIDE

        monkeypatch.setattr(envelope, "_locate_sorted", mislocate)
        rep = diff_report(n, lin)
        assert [row.subject for row in rep.rows] == [str(p) for p in members]
        assert {row.check for row in rep.rows} == {"torus case list vs polytope engine"}

    def test_worst_case_status_takes_a_group_kind_only(self):
        moveset = moves_for(GroupKind.BOREL, embed_divisor(Divisor(3, 1, 0, (2,))))
        with pytest.raises(ValueError, match="unknown group kind"):
            worst_case_status(Divisor(3, 1, 0, (2,)), LinParam(1, 1), moveset)

    def test_broken_classifier_is_caught_and_named(self, monkeypatch):
        import nrgit.oracle as oracle

        def off_by_one(d, lin):
            s = classify_borel(d, lin)
            return Status(min(2, s + 1)) if s < 2 else Status.UNSTABLE

        monkeypatch.setattr(oracle, "classify_borel", off_by_one)
        rep = diff_report(3, LinParam(1, 1))
        assert not rep.ok
        assert any("borel" in row.check for row in rep.rows)
        subjects = {row.subject for row in rep.rows}
        assert any(str(d) in subjects for d in enumerate_profiles(3))


class TestCensusPass:
    # the census command's one profile pass: its diff report is diff_report's
    # and its envelope report strong_envelope_report's, field by field

    @staticmethod
    def assert_same_reports(n, lin):
        from nrgit.envelope import EnvelopeReport
        from nrgit.oracle import _census

        diffs, envelope = _census(n, lin, n)
        assert diffs == diff_report(n, lin), (n, lin)
        want = strong_envelope_report(n, lin)
        for field in EnvelopeReport.__slots__:
            assert getattr(envelope, field) == getattr(want, field), (n, lin, field)

    def test_matches_both_reports_on_tau_grid(self):
        for n in range(1, 9):
            for tau in tau_grid(n):
                self.assert_same_reports(n, lin_for(tau))

    def test_matches_both_reports_on_small_grid(self):
        for n in range(1, 7):
            for m in (1, 2, 3):
                for r in range(-n * m - 1, n * m + 2):
                    self.assert_same_reports(n, LinParam(m, r))

    def assert_same_violations(self, monkeypatch, broken, violations):
        # the two passes read classify_borel through their own bindings; a
        # classifier that swaps two statuses must give the same violations in
        # the same order
        import nrgit.envelope as envelope
        import nrgit.oracle as oracle

        for module in (oracle, envelope):
            monkeypatch.setattr(module, "classify_borel", broken)
        for n in range(1, 6):
            for tau in tau_grid(n):
                self.assert_same_reports(n, lin_for(tau))
        report = strong_envelope_report(4, LinParam(1, 2))
        assert not report.ok
        assert {row.partition(" at ")[0] for row in report.violations} == set(violations)

    def test_matches_violations_of_a_broken_classifier(self, monkeypatch):
        self.assert_same_violations(monkeypatch, TestReportPin.swapped_borel, (
            "stable mismatch", "chain break (completely-stable > stable)"))

    def test_matches_semistable_violations_of_a_broken_classifier(self, monkeypatch):
        self.assert_same_violations(monkeypatch, TestReportPin.semistable_swapped_borel, (
            "semistable mismatch", "chain break (semistable > completely-semistable)"))


def flipped(real, wrong):
    # a throwaway mutant of a status function: one step off where wrong(*args)
    return lambda *args: Status((real(*args) + 1) % 3) if wrong(*args) else real(*args)


class TestKeyedPass:
    # diff_report decides each completion-point check once per key, the
    # tuple of arguments its two sides read, and visits no point; the point
    # loop, oracle._point_rows, writes the rows when some key disagrees

    @staticmethod
    def writer_report(n, lin):
        # the report of the row writer alone: a check per profile and per
        # point it visits, and every point row it writes
        from nrgit.envelope import _engine_table
        from nrgit.oracle import DiffReport, _point_rows

        census = enumerate_profiles(n, n)
        rows, points = _point_rows(census, n, lin, {}, _engine_table(n, lin.m, lin.r)[1])
        return DiffReport(n, lin, len(census) + points, tuple(rows))

    def assert_writer_rows_on_tau_grid(self):
        # under a mutant, the keyed report is the row writer's for n <= 6,
        # and the mutant fails some report
        failing = 0
        for n in range(1, 7):
            for tau in tau_grid(n):
                lin = lin_for(tau)
                report = diff_report(n, lin)
                assert repr(report) == repr(self.writer_report(n, lin)), (n, lin)
                failing += not report.ok
        assert failing

    def test_key_sets_are_the_arguments_of_the_points(self):
        # the keys come from the profiles' sorted masses alone, so they must
        # be the distinct arguments collected point by point through
        # envelope._support_choices, and checked its count of points
        from nrgit.oracle import _check_keys

        for n in range(1, 11):
            census = enumerate_profiles(n, n)
            masses = dict.fromkeys(tuple(sorted(d.all_mults())) for d in census)
            pairs = dict.fromkeys((tuple(sorted(d.all_mults())), classify_unipotent(d)) for d in census)
            group, unipotent = map(list, _check_keys(masses, pairs))
            want_group, want_unipotent = set(), set()
            for p in enumerate_env_points(n):
                sup, d = p.v_support, p.divisor
                # the marked root a v-support meeting {1, 2} in one index forces
                if (1 in sup) != (2 in sup):
                    assert p.marked_mult == (d.mult_inf if 1 in sup else d.mult_zero), str(p)
                masses = tuple(sorted(p.divisor.all_mults()))
                want_group.add((p.v_support, masses, p.marked_mult))
                want_unipotent.add((p.v_support, masses, classify_unipotent(p.divisor)))
            assert len(group) == len(want_group) and set(group) == want_group, n
            assert len(unipotent) == len(want_unipotent) and set(unipotent) == want_unipotent, n
            lin = LinParam(1, 1)
            assert diff_report(n, lin, n).checked == self.writer_report(n, lin).checked, n
        # the audit: beside each report the row writer, which visits every
        # point, writes no row, and the report's checked is one per profile
        # and one per point, as the writer counts them; tau_grid up to
        # degree 8, then, to bound the cost, the walls +- 1/7
        for n in range(1, 13):
            taus = tau_grid(n) if n <= 8 else [
                w + e for w in wall_values(n) for e in (Fraction(-1, 7), Fraction(1, 7))]
            for lin in map(lin_for, taus):
                writer = self.writer_report(n, lin)
                assert writer.rows == (), (n, lin)
                assert repr(diff_report(n, lin, n)) == repr(writer), (n, lin)

    def test_keyed_pass_matches_the_row_writer_on_tau_grid(self):
        from nrgit.oracle import _profile_pass

        for n in range(1, 9):
            census = enumerate_profiles(n)
            for tau in tau_grid(n):
                lin = lin_for(tau)
                params = EnvParams(n, lin)
                report, statuses = _profile_pass(n, lin, n)
                assert repr(report) == repr(self.writer_report(n, lin)), (n, lin)
                assert statuses == [
                    (d, classify_borel(d, lin), group_status(embed_divisor(d), params))
                    for d in census
                ], (n, lin)

    @pytest.mark.parametrize("binding, wrong", [
        ("_group_case", lambda sup, marked, top, n, m, r: 2 * top == n),
        ("_group_case", lambda sup, marked, top, n, m, r: marked == 1 and 2 in sup),
        ("_unipotent_worst", lambda sup, unip: sup == frozenset({0, 2})),
        ("_torus_case_list", lambda sup, a, b, n, m, r: a == 1 and b == n - 1),
        ("_torus_case_list", lambda sup, a, b, n, m, r: sup == frozenset({1, 2}) and a + b == n),
    ], ids=["group-half", "group-marked-one", "unipotent-02", "torus-ends", "torus-12"])
    def test_keyed_pass_writes_the_row_writers_rows_under_a_mutant(self, monkeypatch, binding, wrong):
        import nrgit.oracle as oracle

        monkeypatch.setattr(oracle, binding, flipped(getattr(oracle, binding), wrong))
        self.assert_writer_rows_on_tau_grid()

    def test_keyed_pass_writes_the_row_writers_rows_under_a_hull_mutant(self, monkeypatch):
        import nrgit.envelope as envelope

        real = envelope._locate_sorted

        def mislocate(pts):
            got = real(pts)
            return OriginLocation.OUTSIDE if len(pts) == 4 and got is OriginLocation.BOUNDARY else got

        monkeypatch.setattr(envelope, "_locate_sorted", mislocate)
        self.assert_writer_rows_on_tau_grid()

    def test_a_failing_key_that_no_point_has_is_an_internal_error(self, monkeypatch):
        # the row writer enumerates the points without one v-support, where
        # alone the group closed form is wrong: no row, so no clean report
        import nrgit.oracle as oracle

        everywhere = frozenset({0, 1, 2})
        real = oracle._support_choices
        monkeypatch.setattr(oracle, "_support_choices", lambda d: real(d)[:-1])
        monkeypatch.setattr(oracle, "_group_case", flipped(
            oracle._group_case, lambda sup, *rest: sup == everywhere))
        with pytest.raises(RuntimeError, match="no point has"):
            diff_report(3, LinParam(1, 1))

    @pytest.mark.parametrize("binding", ["_group_case", "_unipotent_worst", "_torus_case_list"])
    def test_a_mutant_wrong_at_one_points_arguments_fails_the_report(self, monkeypatch, binding):
        # for every distinct argument tuple the point loop hands a check's
        # closed form, a mutant wrong there alone fails the keyed report
        import nrgit.oracle as oracle

        real = getattr(oracle, binding)
        lin = LinParam(2, 3)
        for n in range(1, 5):
            targets = set()
            for p in enumerate_env_points(n):
                sup, d, marked = p.v_support, p.divisor, p.marked_mult
                targets.add({
                    "_group_case": (sup, marked, d.max_mult(), n, lin.m, lin.r),
                    "_unipotent_worst": (sup, oracle._point_unipotent(d)),
                    "_torus_case_list": (sup, d.mult_inf, d.mult_zero, n, lin.m, lin.r),
                }[binding])
            for target in targets:
                monkeypatch.setattr(oracle, binding, flipped(real, lambda *args: args == target))
                report = diff_report(n, lin)
                assert not report.ok, (n, target)
                assert repr(report) == repr(self.writer_report(n, lin)), (n, target)


class TestReportPin:
    # SHA-256 per degree of repr(diff_report(n, lin)), one line per tau_grid
    # slope in order: plain, then with the Borel classifier swapping Stable
    # and StrictlySemistable; recorded before diff_report became one pass
    # per profile over raw completion points
    REPORT_SHA256 = {
        1: ("cfa62df2f6925da1fec936585b611794d69e9ce78c0559463cca705405dd2250",
            "97e9ad5da154bdbac3096dcc7c77ff376b92f1344c51d9ab2042eaeb15267dbb"),
        2: ("ae6a1f454ee84983f0d934e4bc77df96c7031147533a45e5ccdc3f15bc045ff7",
            "afc54b783e20ae7f7a1ab01d45c0cea482574df8018c66b217e51309e7f487fe"),
        3: ("421b70c884008d03665245cdc321438bf84cad99caa087816a77158d572dd919",
            "6b21abf43c232ad877d37b811be320e24329a216e8ee7a7daceb0db06a5131b3"),
        4: ("e1fc704747294012b26cfa9609ff5ba2eebd7d5602e427d3c406ff06cce2f849",
            "b24eeff9e2e2af1f920300aa36c414fd1883169869148131dd0e2d20cde9353a"),
        5: ("147c1887864c70b63d98f22319e3e0a658c12b6bedc4f225113af76a38436342",
            "6e71ec5a28704171dc8ba0db0b1148c936d12320045c37822f5bf42c3f8808b7"),
        6: ("d76258f1eee51dc5f2592ae9cc7e403fc8e7236c146648fed7413273f1e5df73",
            "c8608cda271a5aef833099d249d5271fec5f7a9ada393ee4f834b721d78e78c0"),
    }

    @staticmethod
    def swapped_borel(d, lin):
        s = classify_borel(d, lin)
        if s is Status.UNSTABLE:
            return s
        return Status.STRICTLY_SEMISTABLE if s is Status.STABLE else Status.STABLE

    @staticmethod
    def semistable_swapped_borel(d, lin):
        # swaps StrictlySemistable and Unstable: semistability violations
        s = classify_borel(d, lin)
        if s is Status.STABLE:
            return s
        return Status.UNSTABLE if s is Status.STRICTLY_SEMISTABLE else Status.STRICTLY_SEMISTABLE

    @pytest.mark.parametrize("n", sorted(REPORT_SHA256))
    def test_report_pinned(self, n, monkeypatch):
        import nrgit.oracle as oracle

        got = []
        for borel_fn in (classify_borel, self.swapped_borel):
            monkeypatch.setattr(oracle, "classify_borel", borel_fn)
            digest = hashlib.sha256()
            for tau in tau_grid(n):
                rep = diff_report(n, lin_for(tau))
                digest.update(repr(rep).encode() + b"\n")
            got.append(digest.hexdigest())
        assert tuple(got) == self.REPORT_SHA256[n]


class TestPlacementTable:
    # SHA-256 per degree of every moves_for(kind, p) repr, or its ValueError
    # text, one line each, over enumerate_env_points(n) and GroupKind in order;
    # recorded before the placements stopped carrying their generic roots
    MOVES_SHA256 = {
        1: "b278bb47d18fff968bc933eb0f6dd3be39945584095a2c8268aa628216f87e32",
        2: "71afb442f7cf26385566fa4ea3573b5c14eb0f9565ef0ba2985e108f828aa381",
        3: "56b1c5504bca415ee5bf9a861f64f075f9e094de217f8e5314d65dba7aa615f8",
        4: "9cb36dc4a7b1e31860b1053f3f58438780285d0a604aeb8ed050beaa8140bc72",
        5: "6210d7e36f6bca04972a3649fcd495caf325b21fcdc87d5d628d85f047e2a0fc",
        6: "2df4d2d3c76eaebf3b0066cb031b6b01ac3752f245987a0f7199daff4bf1e380",
    }

    @pytest.mark.parametrize("n", sorted(MOVES_SHA256))
    def test_moves_for_pinned(self, n):
        digest = hashlib.sha256()
        for p in enumerate_env_points(n):
            for kind in GroupKind:
                try:
                    line = repr(moves_for(kind, p))
                except ValueError as exc:
                    line = f"ValueError: {exc}"
                digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.MOVES_SHA256[n]

    def test_moves_keep_the_root_masses(self):
        # a move's generic roots are the point's root masses less its two
        # slot masses: the multiset of all root masses is unchanged
        for n in range(1, 7):
            for p in enumerate_env_points(n):
                masses = sorted(p.divisor.all_mults())
                for kind in GroupKind:
                    try:
                        moves = moves_for(kind, p).moves
                    except ValueError:
                        continue
                    for q in moves:
                        assert sorted(q.divisor.all_mults()) == masses, (str(p), kind, str(q))

    def test_each_distinct_placement_is_scored_once(self, monkeypatch):
        import nrgit.oracle as oracle

        calls = {"_torus_case": Counter(), "_unipotent_case": Counter()}
        for name, counter in calls.items():
            real = getattr(oracle, name)

            def counted(*args, real=real, counter=counter):
                counter[args] += 1
                return real(*args)

            monkeypatch.setattr(oracle, name, counted)
        assert diff_report(4, LinParam(1, 2)).ok
        for name, counter in calls.items():
            assert counter, name
            assert max(counter.values()) == 1, (name, counter.most_common(3))

    def test_scan_builds_only_what_it_scores(self, monkeypatch):
        # a placement carries no marked root, and a scan builds a block's slot
        # pairs, as one list, only when it reaches the block: 182
        # _marked_choices calls and 310 pairs when every placement was built
        # before its scan, 125 when pairs were drawn one by one
        import nrgit.oracle as oracle

        calls = Counter()
        for name in ("_marked_choices", "_torus_case", "_unipotent_case"):
            def counted(*args, real=getattr(oracle, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(oracle, name, counted)

        def drawn(masses, real=oracle._slot_pairs):
            pairs = real(masses)
            calls["_slot_pairs"] += len(pairs)
            return pairs

        monkeypatch.setattr(oracle, "_slot_pairs", drawn)
        assert diff_report(4, LinParam(1, 2)).ok
        got = tuple(calls[name] for name in
                    ("_marked_choices", "_slot_pairs", "_torus_case", "_unipotent_case"))
        assert got == (0, 141, 39, 44)

    def test_full_envelope_scan_stops_before_its_slot_pairs(self, monkeypatch):
        # FullEnvelopeGroup's first placement sends the marked root to [1:0];
        # where it is Unstable the scan ends there, and the generic
        # placements behind it, drawn from _slot_pairs, are never built
        import nrgit.oracle as oracle
        from nrgit.envelope import _torus_case

        lin = LinParam(1, 0)
        p = EnvPoint(frozenset({1, 2}), Divisor(4, 0, 0, [2, 1, 1]), 1)
        key = oracle._point_key(GroupKind.FULL_ENVELOPE_GROUP, p)
        first = next(iter(oracle._placements(key)))
        assert first == (frozenset({1}), 1, 0)
        assert _torus_case(*first, 4, lin.m, lin.r) is Status.UNSTABLE

        drawn = []

        def spy(masses, real=oracle._slot_pairs):
            pairs = real(masses)
            drawn.extend(pairs)
            return pairs

        monkeypatch.setattr(oracle, "_slot_pairs", spy)
        assert oracle._class_worst(key, 4, lin, {}) is Status.UNSTABLE
        assert drawn == []
        # the class has generic placements for the scan to skip
        list(oracle._placements(key))
        assert len(drawn) == 7

    def test_slot_pairs_are_the_pairs_of_two_distinct_roots(self):
        # the definition the one-pass list replaced: per mass a at [1:0],
        # or none, the sorted masses left over, or none, at [0:1]
        from nrgit.binary_forms import _all_profiles
        from nrgit.oracle import _slot_pairs

        def remove_one(masses, value):
            out = list(masses)
            if value:
                out.remove(value)
            return out

        def reference(masses):
            return [(a, b) for a in sorted({0, *masses})
                    for b in sorted({0, *remove_one(masses, a)})]

        for n in range(1, 13):
            for masses in {tuple(sorted(d.all_mults())) for d in _all_profiles(n)}:
                # a class key's masses, and FullEnvelopeGroup's others: the
                # masses less its marked root
                cases = [masses] + [remove_one(masses, x) for x in set(masses)]
                for case in cases:
                    assert _slot_pairs(case) == reference(case), case

    def test_block_scan_is_the_worst_placement(self, monkeypatch):
        # every class a census scans, scored alone, is the least status of
        # its placements, each scored without a table
        import nrgit.oracle as oracle
        from nrgit.envelope import _torus_case, _unipotent_case

        scanned = []
        real = oracle._class_worst

        def spy(key, n, lin, seen):
            scanned.append((key, lin))
            return real(key, n, lin, seen)

        monkeypatch.setattr(oracle, "_class_worst", spy)
        for n in range(1, 9):
            for tau in tau_grid(n):
                lin = lin_for(tau)
                scanned.clear()
                oracle._census(n, lin, n)
                assert scanned
                for key, key_lin in scanned:
                    if key[0] is GroupKind.UNIPOTENT_ENVELOPE:
                        want = min(_unipotent_case(sup, a, b, n)
                                   for sup, a, b in oracle._placements(key))
                    else:
                        want = min(_torus_case(sup, a, b, n, lin.m, lin.r)
                                   for sup, a, b in oracle._placements(key))
                    assert real(key, n, key_lin, {}) is want, (key, lin)

    def test_class_key_is_all_the_envelope_placements_read(self):
        # a report scans one point per class key, so every point with that
        # key must reach the same placements; and the key holds exactly the
        # group's invariants: for the envelope groups v0 and the vanishing of
        # (v1, v2), with the sorted root masses and, for FullEnvelopeGroup,
        # the marked root; for Borel, on embedded points, the mass at [1:0]
        # and the masses, 0 among them, that can be brought to [0:1]
        from nrgit.oracle import _placements, _point_key

        def reached(kind, p):
            return {(q.v_support, q.divisor.mult_inf, q.divisor.mult_zero, q.marked_mult)
                    for q in moves_for(kind, p).moves}

        for n in range(1, 8):
            embedded = [embed_divisor(d) for d in enumerate_profiles(n)]
            for kind in (GroupKind.UNIPOTENT_ENVELOPE, GroupKind.FULL_ENVELOPE_GROUP,
                         GroupKind.BOREL):
                placements, keys = {}, {}
                for p in embedded if kind is GroupKind.BOREL else enumerate_env_points(n):
                    key, d, sup = _point_key(kind, p), p.divisor, p.v_support
                    assert key[0] is kind
                    want = placements.setdefault(key, reached(kind, p))
                    assert reached(kind, p) == want, (str(p), kind)
                    if kind is GroupKind.BOREL:
                        invariants = (d.mult_inf, frozenset({0, d.mult_zero, *d.generic}))
                        # the Borel moves, read from the point itself
                        assert set(_placements(key)) == {
                            (sup, d.mult_inf, q) for q in invariants[1]
                        }, str(p)
                    else:
                        marked = p.marked_mult if kind is GroupKind.FULL_ENVELOPE_GROUP else None
                        invariants = (0 in sup, bool(sup & {1, 2}),
                                      tuple(sorted(d.all_mults())), marked)
                    assert keys.setdefault(invariants, key) == key, (str(p), kind)
                # and distinct invariants never share a key
                assert len(set(keys.values())) == len(keys), (n, kind)

    def test_each_placement_class_is_enumerated_once(self, monkeypatch):
        import nrgit.oracle as oracle

        calls = Counter()
        real = oracle._placement_blocks

        def counted(key):
            calls[key] += 1
            return real(key)

        monkeypatch.setattr(oracle, "_placement_blocks", counted)
        assert diff_report(4, LinParam(1, 2)).ok
        # 138 enumerations when a class was keyed by the whole v-support, 70
        # when Borel scanned each profile's embedded point unkeyed
        assert sum(calls.values()) == 56
        assert max(calls.values()) == 1, calls.most_common(3)

    def test_table_keys_are_the_class_keys_of_the_points(self, monkeypatch):
        # one report's status table holds an entry per scored placement
        # (scorer flag, v_support, mult_inf, mult_zero) and one per class:
        # exactly the _point_keys of the degree's points under the envelope
        # groups and of its embedded points under Borel
        import nrgit.oracle as oracle
        from nrgit.oracle import _point_key

        tables = []
        real = oracle._class_worst

        def spy(key, n, lin, seen):
            tables.append(seen)
            return real(key, n, lin, seen)

        monkeypatch.setattr(oracle, "_class_worst", spy)
        for n in range(1, 7):
            tables.clear()
            assert diff_report(n, LinParam(1, 1)).ok
            table = tables[0]
            assert all(seen is table for seen in tables)
            want = {
                _point_key(kind, p)
                for p in enumerate_env_points(n)
                for kind in (GroupKind.UNIPOTENT_ENVELOPE, GroupKind.FULL_ENVELOPE_GROUP)
            } | {_point_key(GroupKind.BOREL, embed_divisor(d)) for d in enumerate_profiles(n)}
            classes = {key for key in table if isinstance(key[0], GroupKind)}
            assert classes == want, n

    def test_each_class_is_scored_by_one_call(self, monkeypatch):
        # every caller probes the status table before it calls the scorer,
        # so a census calls _class_worst once per class key: 190 calls for
        # these 56 keys when the scorer did the probing
        import nrgit.oracle as oracle

        keys = Counter()
        real = oracle._class_worst

        def counted(key, n, lin, seen):
            keys[key] += 1
            return real(key, n, lin, seen)

        monkeypatch.setattr(oracle, "_class_worst", counted)
        diffs, envelope = oracle._census(4, LinParam(1, 2), 12)
        assert diffs.ok and envelope.ok
        assert sum(keys.values()) == len(keys) == 56

    def test_placements_carry_the_seven_v_support_objects(self):
        # no placement builds a frozenset: each v-support is one of
        # envelope._V_SUPPORTS, over every key a census scores and every
        # class key of a completion point
        from nrgit.envelope import _V_SUPPORTS
        from nrgit.oracle import _check_keys, _placements, _point_key

        unip, full = GroupKind.UNIPOTENT_ENVELOPE, GroupKind.FULL_ENVELOPE_GROUP

        def foreign(keys):
            return [(key, sup) for key in keys for sup, _, _ in _placements(key)
                    if not any(sup is known for known in _V_SUPPORTS)]

        for n in range(1, 9):
            census = enumerate_profiles(n, n)
            masses = dict.fromkeys(tuple(sorted(d.all_mults())) for d in census)
            pairs = dict.fromkeys((tuple(sorted(d.all_mults())), classify_unipotent(d)) for d in census)
            group, unipotent = _check_keys(masses, pairs)
            keys = [(full, 0 in sup, 1 in sup or 2 in sup, ms, marked) for sup, ms, marked in group]
            keys += [(unip, 0 in sup, 1 in sup or 2 in sup, ms, None) for sup, ms, _ in unipotent]
            keys += [key for ms in masses for key in ((unip, True, True, ms, None),
                                                      (unip, True, False, ms, None))]
            keys += [_point_key(GroupKind.BOREL, embed_divisor(d)) for d in census]
            assert foreign(keys) == [], n
        for n in range(1, 6):
            keys = []
            for p in enumerate_env_points(n):
                for kind in GroupKind:
                    try:
                        keys.append(_point_key(kind, p))
                    except ValueError:
                        assert kind is GroupKind.BOREL
            assert foreign(keys) == [], n


class TestStatusTable:
    # a report reads every class as table[key]: a scored key is a plain dict
    # hit, and a missing one is scored by _class_worst through __missing__

    LIN = LinParam(1, 2)
    # one class key per group a report's table holds, all of degree 4
    KEYS = {
        GroupKind.BOREL: (GroupKind.BOREL, embed_divisor(Divisor(4, 1, 1, (2,)))),
        GroupKind.FULL_ENVELOPE_GROUP: (GroupKind.FULL_ENVELOPE_GROUP,
                                        EnvPoint({0, 1, 2}, Divisor(4, 1, 0, (2, 1)), 2)),
        GroupKind.UNIPOTENT_ENVELOPE: (GroupKind.UNIPOTENT_ENVELOPE,
                                       EnvPoint({1, 2}, Divisor(4, 0, 0, (2, 1, 1)), 0)),
    }

    @staticmethod
    def calls_while(read):
        # the Python-level function calls that read() makes
        events = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is not read.__code__:
                events.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            read()
        finally:
            sys.setprofile(None)
        return events

    def test_a_scored_key_is_read_without_a_python_call(self):
        from nrgit.oracle import _point_key, _StatusTable

        for kind, p in self.KEYS.values():
            table = _StatusTable(4, self.LIN)
            key = _point_key(kind, p)
            # a miss enters __missing__, which the profiler sees
            assert "__missing__" in self.calls_while(lambda: table[key])
            assert self.calls_while(lambda: table[key]) == [], kind

    @pytest.mark.parametrize("kind", list(KEYS), ids=lambda kind: kind.value)
    def test_a_miss_scores_its_key_once_at_the_tables_degree_and_slope(self, monkeypatch, kind):
        import nrgit.oracle as oracle

        calls = []
        real = oracle._class_worst

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_class_worst", spy)
        table = oracle._StatusTable(4, self.LIN)
        key = oracle._point_key(*self.KEYS[kind])
        status = table[key]
        assert len(calls) == 1
        got_key, n, lin, seen = calls[0]
        assert (got_key, n) == (key, 4)
        assert lin is self.LIN and seen is table
        # the score is stored: a second read calls nothing
        assert table[key] is status and len(calls) == 1
        assert status is real(key, 4, self.LIN, {})

    def test_a_table_seeded_from_a_dict_keeps_its_scores(self):
        from nrgit.oracle import _point_key, _StatusTable

        key = _point_key(*self.KEYS[GroupKind.BOREL])
        table = _StatusTable(4, self.LIN, {key: "seeded"})
        # a seeded entry is read as it is, never scored again
        assert table[key] == "seeded"
        assert not hasattr(table, "__dict__")
