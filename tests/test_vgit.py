"""Wall-and-chamber structure on the slope line and flip data at walls."""

from fractions import Fraction

import pytest

from nrgit import (
    FlipData,
    LinParam,
    QuotientKind,
    Status,
    WallKind,
    QuotientProfile,
    chamber_profile,
    classify_borel,
    classify_sl2,
    enumerate_profiles,
    flip_data,
    slice_weights,
    wall_values,
    walls,
)

from helpers import lin_for


class TestWallValues:
    def test_examples(self):
        assert wall_values(4) == [0, 2, 4]
        assert wall_values(3) == [0, 1, 3]
        assert wall_values(1) == [0, 1]

    def test_formula_up_to_degree_12(self):
        for n in range(1, 13):
            want = sorted({Fraction(0), Fraction(n)} | {
                Fraction(q) for q in range(1, n) if (n - q) % 2 == 0
            })
            assert wall_values(n) == want

    def test_values_are_fractions(self):
        assert all(isinstance(v, Fraction) for v in wall_values(6))

    def test_walls_are_exactly_formal_status_jump_points(self):
        # a wall is where some profile's status changes; scan fine grid
        for n in range(1, 7):
            vals = set(wall_values(n))
            profiles = enumerate_profiles(n)

            def census(tau):
                return tuple(classify_borel(d, lin_for(tau)) for d in profiles)

            grid = [Fraction(k, 4) for k in range(-2, 4 * n + 3)]
            jumps = set()
            for lo, hi in zip(grid, grid[1:]):
                if census(lo) != census(hi):
                    # the jump point is the unique quarter-integer wall inside
                    jumps.add(hi if census(hi) != census(Fraction(lo + hi, 2)) else lo)
            assert jumps <= vals
            assert vals <= jumps | {Fraction(0), Fraction(n)}


class TestWalls:
    def test_interleaving(self):
        for n in range(1, 13):
            seq = walls(n)
            kinds = [w.kind for w in seq]
            assert kinds[0] is WallKind.WALL_ZERO
            assert kinds[-1] is WallKind.WALL_N
            for a, b in zip(seq, seq[1:]):
                one_wall = (a.kind is WallKind.CHAMBER) != (b.kind is WallKind.CHAMBER)
                assert one_wall

    def test_chambers_partition_open_interval(self):
        for n in range(1, 13):
            chs = [w for w in walls(n) if w.kind is WallKind.CHAMBER]
            vals = wall_values(n)
            assert [c.value for c in chs] == list(zip(vals, vals[1:]))

    def test_degree_four(self):
        seq = walls(4)
        assert [w.kind for w in seq] == [
            WallKind.WALL_ZERO,
            WallKind.CHAMBER,
            WallKind.INTERIOR_WALL,
            WallKind.CHAMBER,
            WallKind.WALL_N,
        ]
        assert seq[2].value == 2


class TestChamberProfile:
    def test_degree_three_chamber(self):
        prof = chamber_profile(3, Fraction(1, 2))
        assert prof.quotient_kind is QuotientKind.GEOMETRIC_PROJECTIVE
        assert prof.dimension == 1
        assert prof.ss_equals_s
        assert "P^1" in prof.note

    def test_interior_wall(self):
        prof = chamber_profile(4, Fraction(2))
        assert prof.quotient_kind is QuotientKind.STABLE_UNION_POINT
        assert prof.dimension == 2
        assert not prof.ss_equals_s

    def test_empty_when_nothing_semistable(self):
        prof = chamber_profile(1, Fraction(1, 2))
        assert prof.quotient_kind is QuotientKind.EMPTY
        assert prof.dimension is None

    def test_zero_wall_recovers_classical_quotient(self):
        odd = chamber_profile(5, Fraction(0))
        even = chamber_profile(6, Fraction(0))
        assert odd.quotient_kind is QuotientKind.CLASSICAL_SL2_QUOTIENT
        assert odd.ss_equals_s
        assert odd.dimension == 2
        assert even.quotient_kind is QuotientKind.CLASSICAL_SL2_QUOTIENT
        assert not even.ss_equals_s
        assert even.dimension == 3

    def test_zero_wall_low_degree_dimension_none(self):
        assert chamber_profile(2, Fraction(0)).dimension is None

    def test_slope_n_wall_is_a_point(self):
        prof = chamber_profile(4, Fraction(4))
        assert prof.quotient_kind is QuotientKind.SINGLE_POINT
        assert prof.dimension == 0

    def test_outside_range_rejected(self):
        with pytest.raises(ValueError):
            chamber_profile(4, Fraction(-1))
        with pytest.raises(ValueError):
            chamber_profile(4, Fraction(5))
        # named by its first digits, not by Python's limit on int to str
        with pytest.raises(ValueError, match=r"^tau=about 1\.00000e\+5000 outside \[0, 3\]$"):
            chamber_profile(3, 10**5000)

    def test_geometric_implies_ss_equals_s(self):
        for n in range(1, 9):
            vals = wall_values(n)
            for lo, hi in zip(vals, vals[1:]):
                prof = chamber_profile(n, (lo + hi) / 2)
                if prof.quotient_kind is QuotientKind.GEOMETRIC_PROJECTIVE:
                    assert prof.ss_equals_s
                    assert prof.dimension == n - 2

    def test_dimension_matches_stable_census(self):
        # any slope with a stable point gives an n-2 dimensional quotient
        for n in range(2, 9):
            vals = wall_values(n)
            for tau in [(lo + hi) / 2 for lo, hi in zip(vals, vals[1:])] + vals[1:-1]:
                has_stable = any(
                    classify_borel(d, lin_for(tau)) is Status.STABLE
                    for d in enumerate_profiles(n)
                )
                prof = chamber_profile(n, tau)
                if has_stable:
                    assert prof.dimension == n - 2
                elif prof.quotient_kind is QuotientKind.STABLE_UNION_POINT:
                    assert prof.dimension is None


def census_profile(n, tau):
    """chamber_profile decided from the whole profile census, by the decision
    tree the closed forms replace."""
    profiles = enumerate_profiles(n)
    statuses = [classify_borel(d, lin_for(tau)) for d in profiles]
    any_stable = any(st.stable for st in statuses)
    if not any(st.semistable for st in statuses):
        return QuotientProfile(True, QuotientKind.EMPTY, None)
    if tau == 0:
        strict = any(classify_sl2(d) is Status.STRICTLY_SEMISTABLE for d in profiles)
        return QuotientProfile(
            not strict,
            QuotientKind.CLASSICAL_SL2_QUOTIENT,
            n - 3 if n >= 3 else None,
            "the semistable part fibers over the classical quotient; the "
            "fibration is a geometric quotient for the unipotent subgroup",
        )
    if tau == n:
        return QuotientProfile(
            False,
            QuotientKind.SINGLE_POINT,
            0,
            "every semistable configuration is S-equivalent to the one with "
            "all mass at [0:1]",
        )
    if tau in wall_values(n):
        return QuotientProfile(
            False,
            QuotientKind.STABLE_UNION_POINT,
            n - 2 if any_stable else None,
            "the stable quotient plus one extra point for the single "
            "strictly semistable S-equivalence class",
        )
    if not any_stable:
        return QuotientProfile(True, QuotientKind.EMPTY, None)
    note = "all chamber quotients in degree 3 are isomorphic to P^1" if n == 3 else None
    return QuotientProfile(True, QuotientKind.GEOMETRIC_PROJECTIVE, n - 2, note)


class TestChamberProfileAgainstCensus:
    def test_closed_forms_match_census_up_to_degree_ten(self):
        for n in range(1, 11):
            eps = Fraction(1, 7)
            taus = {Fraction(k, 4) for k in range(4 * n + 1)}
            for w in wall_values(n):
                taus.update(t for t in (w - eps, w + eps) if 0 <= t <= n)
            for tau in sorted(taus):
                assert chamber_profile(n, tau) == census_profile(n, tau), (n, tau)

    def test_degree_zero_rejected_as_degree(self):
        with pytest.raises(ValueError, match="degree must be positive"):
            chamber_profile(0, 0)
        with pytest.raises(ValueError, match="degree must be positive"):
            flip_data(0, 1)


class TestFlipData:
    def test_degree_six_central_wall(self):
        fd = flip_data(6, Fraction(2))
        assert fd == FlipData(s=2, e_plus_weights=(1, 2), e_minus_weights=(1, 2, 3, 4), slice_weights=(-4, -2))

    def test_degree_four(self):
        fd = flip_data(4, Fraction(2))
        assert fd.s == 1
        assert fd.e_plus_weights == (1,)
        assert fd.e_minus_weights == (1, 2, 3)
        assert fd.slice_weights == (-2,)

    def test_degree_three_refused(self):
        with pytest.raises(ValueError, match="no flip"):
            flip_data(3, Fraction(1))

    def test_non_wall_refused(self):
        with pytest.raises(ValueError):
            flip_data(6, Fraction(3))
        with pytest.raises(ValueError):
            flip_data(6, Fraction(0))
        with pytest.raises(ValueError):
            flip_data(6, Fraction(6))

    def test_weighted_structure_consistency(self):
        for n in range(4, 11):
            for q in wall_values(n)[1:-1]:
                fd = flip_data(n, q)
                assert fd.s == (n - q) / 2
                assert fd.e_plus_weights == tuple(range(1, fd.s + 1))
                assert fd.e_minus_weights == tuple(range(1, n - fd.s + 1))
                assert fd.slice_weights == tuple(range(-2 * fd.s, 0, 2))
                assert len(fd.slice_weights) == fd.s


class TestSliceWeights:
    def test_examples(self):
        assert slice_weights(6, 2) == (-4, -2)
        assert slice_weights(6, 1) == (-2,)

    def test_halved_negated_weights_are_one_through_s(self):
        for n in range(2, 9):
            for s in range(1, n):
                ws = slice_weights(n, s)
                assert len(ws) == s
                assert {-w // 2 for w in ws} == set(range(1, s + 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            slice_weights(4, 0)
        with pytest.raises(ValueError):
            slice_weights(4, 4)
