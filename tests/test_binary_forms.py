"""Configuration profiles, group moves, and the closed-form classifications."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrgit import (
    Divisor,
    EnvParams,
    LimitDirection,
    LinParam,
    Status,
    ZERO_SLOT,
    central_divisor,
    chamber_profile,
    classify_borel,
    classify_sl2,
    classify_unipotent,
    enumerate_env_points,
    enumerate_profiles,
    flip_data,
    move_root_to_zero,
    n_threshold,
    sequiv_witness,
    strong_envelope_report,
    torus_limit,
    wall_values,
    walls,
)
from nrgit import binary_forms, vgit

from helpers import lin_for, tau_grid


class TestDivisorValidation:
    def test_ok(self):
        Divisor(4, 1, 0, (3,))
        Divisor(1, 0, 0, (1,))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            Divisor(4, 1, 0, (2,))

    def test_nonpositive_generic(self):
        with pytest.raises(ValueError):
            Divisor(4, 2, 2, (0,))

    def test_negative_slot(self):
        with pytest.raises(ValueError):
            Divisor(4, -1, 5, ())

    @pytest.mark.parametrize("args, message", [
        ((4, -1, 5, ()), "negative special multiplicity in "
                         "Divisor(n=4, mult_inf=-1, mult_zero=5, generic=())"),
        ((4, 2, 2, (0,)), "nonpositive generic multiplicity in "
                          "Divisor(n=4, mult_inf=2, mult_zero=2, generic=(0,))"),
        ((3, 0, 0, (0, 10**4299)), "nonpositive generic multiplicity 0 in a Divisor of degree 3"),
        ((3, -1, 0, (10**4299,)), "negative special multiplicity -1 in a Divisor of degree 3"),
        ((3, 0, -10**5000, ()),
         "negative special multiplicity about -1.00000e+5000 in a Divisor of degree 3"),
        ((3, 0, 0, (1,) * 60 + (-1,)), "nonpositive generic multiplicity -1 in a Divisor of degree 3"),
    ], ids=["special", "generic", "long-root", "long-root-special", "past-the-digit-limit",
            "many-roots"])
    def test_a_refusal_quotes_a_short_divisor_and_names_the_value_of_a_long_one(
            self, args, message):
        # the whole repr while it is short; past 200 characters or past 50
        # digits in one number, the offending multiplicity and the degree,
        # each as polytope._value_text names it
        with pytest.raises(ValueError) as info:
            Divisor(*args)
        assert str(info.value) == message

    def test_generic_anonymized_sorted(self):
        assert Divisor(6, 0, 0, (1, 3, 2)) == Divisor(6, 0, 0, (3, 2, 1))

    def test_max_mult_is_the_largest_root_multiplicity(self):
        # max_mult reads the fields, zero slot masses among them; that is
        # max(all_mults()), which holds only the positive masses
        zero_slots = 0
        for n in range(1, 13):
            for d in binary_forms._all_profiles(n):
                assert d.max_mult() == max(d.all_mults()), d
                zero_slots += d.mult_inf == 0 or d.mult_zero == 0
        assert zero_slots

    @pytest.mark.parametrize("m", [0, -2])
    def test_lin_param_needs_a_positive_m(self, m):
        with pytest.raises(ValueError, match=f"^m must be a positive integer, got {m}$"):
            LinParam(m, 1)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "entry",
    [
        lambda n: Divisor(n, 0, 0, ()),
        lambda n: EnvParams(n, LinParam(1, 1)),
        lambda n: n_threshold(n, LinParam(1, 1)),
        enumerate_env_points,
        lambda n: strong_envelope_report(n, LinParam(1, 1)),
        wall_values,
        walls,
        # the degree is checked before the slope, which lies outside [0, n]
        lambda n: chamber_profile(n, 0),
        lambda n: flip_data(n, 1),
    ],
)
def test_every_degree_entry_refuses_a_nonpositive_degree(entry, n):
    # one rule, one message, whichever public entry is given the degree
    with pytest.raises(ValueError, match=f"^degree must be positive, got {n}$"):
        entry(n)


class TestClassifyBorel:
    def test_stable_in_chamber(self):
        assert classify_borel(Divisor(4, 0, 2, (2,)), LinParam(1, 2)) is Status.STABLE

    def test_strict_at_wall_by_both_equalities(self):
        assert (
            classify_borel(Divisor(4, 1, 3, ()), LinParam(1, 2))
            is Status.STRICTLY_SEMISTABLE
        )

    def test_big_root_unstable_at_slope_zero(self):
        assert classify_borel(Divisor(5, 3, 0, (1, 1)), LinParam(1, 0)) is Status.UNSTABLE

    def test_slope_zero_never_stable(self):
        for d in enumerate_profiles(6):
            assert not classify_borel(d, LinParam(1, 0)).stable

    def test_outside_range_everything_unstable(self):
        for d in enumerate_profiles(4):
            assert classify_borel(d, LinParam(1, -1)) is Status.UNSTABLE
            assert classify_borel(d, LinParam(1, 5)) is Status.UNSTABLE

    def test_slope_n_semistable_iff_no_mass_at_inf(self):
        n = 5
        for d in enumerate_profiles(n):
            got = classify_borel(d, LinParam(1, n))
            assert got.semistable == (d.mult_inf == 0)
            assert not got.stable

    def test_depends_only_on_slope(self):
        for d in enumerate_profiles(5):
            for m, r in [(1, 2), (1, 0), (2, 3), (3, 2)]:
                base = classify_borel(d, LinParam(m, r))
                for k in (2, 3, 5):
                    assert classify_borel(d, LinParam(k * m, k * r)) is base

    def test_thresholds_move_monotonically_in_slope(self):
        n = 7
        taus = sorted(t for t in tau_grid(n) if 0 < t < n)
        for t1, t2 in zip(taus, taus[1:]):
            assert Fraction(n - t1, 2) > Fraction(n - t2, 2)
            assert Fraction(n + t1, 2) < Fraction(n + t2, 2)

    def test_constant_on_chambers(self):
        for n in range(1, 9):
            ws = wall_values(n)
            census = enumerate_profiles(n)
            for lo, hi in zip(ws, ws[1:]):
                mid = Fraction(lo + hi, 2)
                probes = [
                    lo + Fraction(1, 97),
                    mid,
                    hi - Fraction(1, 97),
                    mid + Fraction(1, 101),
                ]
                for d in census:
                    ref = classify_borel(d, lin_for(probes[0]))
                    for t in probes[1:]:
                        assert classify_borel(d, lin_for(t)) is ref, (n, d, t)

    def test_stable_equals_semistable_inside_chambers(self):
        for n in range(1, 9):
            ws = wall_values(n)
            for lo, hi in zip(ws, ws[1:]):
                lin = lin_for(Fraction(lo + hi, 2))
                for d in enumerate_profiles(n):
                    got = classify_borel(d, lin)
                    assert got is not Status.STRICTLY_SEMISTABLE


class TestBaselines:
    def test_sl2_examples(self):
        assert classify_sl2(Divisor(4, 0, 2, (2,))) is Status.STRICTLY_SEMISTABLE
        assert classify_sl2(Divisor(3, 1, 1, (1,))) is Status.STABLE
        assert classify_sl2(Divisor(4, 3, 0, (1,))) is Status.UNSTABLE

    def test_unipotent_examples(self):
        assert classify_unipotent(Divisor(5, 2, 2, (1,))) is Status.STABLE
        assert (
            classify_unipotent(Divisor(4, 2, 2, ())) is Status.STRICTLY_SEMISTABLE
        )
        assert classify_unipotent(Divisor(4, 0, 3, (1,))) is Status.UNSTABLE

    def test_slope_zero_borel_equals_sl2_semistability(self):
        for n in range(1, 9):
            lin = LinParam(1, 0)
            for d in enumerate_profiles(n):
                assert classify_borel(d, lin).semistable == classify_sl2(d).semistable


class TestMoves:
    def test_move_generic_root(self):
        assert move_root_to_zero(Divisor(4, 1, 0, (3,)), 0) == Divisor(4, 1, 3, ())

    def test_move_swaps_with_existing_zero_mass(self):
        assert move_root_to_zero(Divisor(4, 0, 2, (2,)), 0) == Divisor(4, 0, 2, (2,))

    def test_zero_slot_is_identity(self):
        d = Divisor(5, 1, 2, (2,))
        assert move_root_to_zero(d, ZERO_SLOT) == d

    def test_inf_slot_rejected(self):
        with pytest.raises(ValueError):
            move_root_to_zero(Divisor(4, 4, 0, ()), "inf")

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            move_root_to_zero(Divisor(4, 4, 0, ()), 0)

    def test_torus_limits(self):
        assert torus_limit(Divisor(4, 1, 0, (3,)), LimitDirection.TO_ZERO) == Divisor(4, 1, 3, ())
        assert torus_limit(Divisor(4, 0, 4, ()), LimitDirection.TO_ZERO) == Divisor(4, 0, 4, ())
        assert torus_limit(Divisor(4, 2, 1, (1,)), LimitDirection.TO_INF) == Divisor(4, 3, 1, ())

    @pytest.mark.parametrize("direction", ["sideways", "TO_ZERO", None])
    def test_unknown_torus_limit_direction_rejected(self, direction):
        with pytest.raises(ValueError, match=f"^unknown direction {direction!r}$"):
            torus_limit(Divisor(4, 1, 0, (3,)), direction)

    def test_moves_preserve_borel_status(self):
        taus = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                Fraction(7, 2), Fraction(5), Fraction(-1), Fraction(13, 2), Fraction(7)]
        for n in range(1, 7):
            for d in enumerate_profiles(n):
                moved = [move_root_to_zero(d, ZERO_SLOT)]
                moved.extend(move_root_to_zero(d, i) for i in range(len(d.generic)))
                for tau in taus:
                    lin = lin_for(tau)
                    ref = classify_borel(d, lin)
                    for d2 in moved:
                        assert classify_borel(d2, lin) is ref


class TestCentralDivisor:
    def test_exactly_the_interior_walls(self):
        # on the half-integer grid over [-1, n + 1], with int and Fraction
        # tau: a central divisor exactly at an integer 0 < tau < n with
        # n - tau even, where it puts (n - tau)/2 at [1:0] and the rest at [0:1]
        assert vgit._is_wall is binary_forms._is_wall
        for n in range(1, 13):
            for k in range(-2, 2 * n + 3):
                taus = [Fraction(k, 2)] + ([k // 2] if k % 2 == 0 else [])
                for tau in taus:
                    if k % 2 == 0 and 0 < k < 2 * n and (n - k // 2) % 2 == 0:
                        s = (n - k // 2) // 2
                        assert central_divisor(n, tau) == Divisor(n, s, n - s, ()), (n, tau)
                    else:
                        with pytest.raises(ValueError, match="is not an interior wall"):
                            central_divisor(n, tau)


class TestSequivWitness:
    def test_mass_at_inf_saturated_flows_to_zero(self):
        steps = sequiv_witness(Divisor(4, 1, 0, (3,)), LinParam(1, 2))
        assert [s.op for s in steps] == ["torus_limit"]
        assert steps[0].arg is LimitDirection.TO_ZERO
        assert steps[-1].result == Divisor(4, 1, 3, ())

    def test_big_generic_root_moved_then_flowed(self):
        steps = sequiv_witness(Divisor(4, 0, 0, (3, 1)), LinParam(1, 2))
        assert [s.op for s in steps] == ["move_root_to_zero", "torus_limit"]
        assert steps[1].arg is LimitDirection.TO_INF
        assert steps[-1].result == Divisor(4, 1, 3, ())

    def test_central_needs_no_moves(self):
        assert sequiv_witness(Divisor(6, 2, 4, ()), LinParam(1, 2)) == []

    def test_requires_interior_wall(self):
        with pytest.raises(ValueError):
            sequiv_witness(Divisor(4, 1, 3, ()), LinParam(2, 3))
        with pytest.raises(ValueError):
            sequiv_witness(Divisor(4, 0, 4, ()), LinParam(1, 4))

    def test_requires_strictly_semistable(self):
        with pytest.raises(ValueError):
            sequiv_witness(Divisor(4, 0, 2, (2,)), LinParam(1, 2))

    def test_all_strict_profiles_reach_central_through_semistables(self):
        for n in range(2, 9):
            for tau in [w for w in wall_values(n) if 0 < w < n]:
                lin = lin_for(tau)
                central = central_divisor(n, tau)
                for d in enumerate_profiles(n):
                    if classify_borel(d, lin) is not Status.STRICTLY_SEMISTABLE:
                        continue
                    cur = d
                    for step in sequiv_witness(d, lin):
                        cur = step.result
                        assert classify_borel(cur, lin).semistable
                    assert cur == central


@given(
    st.integers(min_value=1, max_value=9),
    st.data(),
)
@settings(max_examples=150)
def test_random_profile_roundtrip_and_mass_conservation(n, data):
    a = data.draw(st.integers(min_value=0, max_value=n))
    b = data.draw(st.integers(min_value=0, max_value=n - a))
    rest = n - a - b
    parts = []
    while rest:
        p = data.draw(st.integers(min_value=1, max_value=rest))
        parts.append(p)
        rest -= p
    d = Divisor(n, a, b, tuple(parts))
    assert d.mult_inf + d.mult_zero + sum(d.generic) == n
    for i in range(len(d.generic)):
        moved = move_root_to_zero(d, i)
        assert moved.mult_inf + moved.mult_zero + sum(moved.generic) == n
        assert moved.mult_inf == d.mult_inf
    for direction in LimitDirection:
        lim = torus_limit(d, direction)
        assert lim.mult_inf + lim.mult_zero == n
        assert torus_limit(lim, direction) == lim
