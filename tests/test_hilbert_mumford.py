"""Torus stability: weight polytopes, mu pairings, witness directions."""

import ast
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrgit
from nrgit import (
    AffineN,
    EnvParams,
    LinParam,
    N,
    OnePS,
    PointSupport,
    Status,
    TorusAction,
    WeightSet,
    enumerate_env_points,
    fixed_point_weights,
    mu,
    mu_sign,
    point_polytope,
    torus_status,
    weight_polytope,
    witness_lambdas,
    witness_status,
)

from helpers import oracle_status


def keys(ws):
    return sorted((w.x.n_coeff, w.x.const, w.y.n_coeff, w.y.const) for w in ws)


class TestWeightPolytope:
    def test_selection(self):
        act = TorusAction([(-2, 0), (0, 0), (2, 0)])
        got = weight_polytope(act, PointSupport([0, 2]))
        assert keys(got) == keys([w for i, w in enumerate(act.coord_weights) if i != 1])

    def test_full_support_is_identity(self):
        act = TorusAction([(-2, 0), (0, 0), (2, 0)])
        got = weight_polytope(act, PointSupport([0, 1, 2]))
        assert keys(got) == keys(act.coord_weights)

    def test_index_out_of_range(self):
        act = TorusAction([(0, 0)])
        with pytest.raises(IndexError):
            weight_polytope(act, PointSupport([0, 3]))

    @pytest.mark.parametrize("build, message", [
        (lambda: TorusAction([]), "TorusAction needs at least one coordinate"),
        (lambda: PointSupport([]), "PointSupport must be nonempty"),
        (lambda: witness_lambdas(WeightSet([])), "witness_lambdas: empty weight set"),
    ], ids=["action", "support", "witnesses"])
    def test_empty_input_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_fixed_points_of_the_completion_recover_the_weight_table(self):
        # the ambient action has one coordinate per (v_j, monomial) pair; a
        # fixed point is supported on exactly one of them and its polytope
        # must be the matching singleton row of the table
        params = EnvParams(3, LinParam(2, 1))
        table = fixed_point_weights(params)
        act = TorusAction([w for _, _, w in table])
        for idx, (_, _, w) in enumerate(table):
            got = weight_polytope(act, PointSupport([idx]))
            assert keys(got) == keys([w])


class TestMu:
    def test_symmetric_pair_gives_absolute_value(self):
        for w in range(0, 6):
            act = TorusAction([(-w, 0), (w, 0)])
            val = mu(act, PointSupport([0, 1]), OnePS.of(1, 0))
            assert val == AffineN(0, w)

    def test_singleton_origin_weight_is_zero(self):
        act = TorusAction([(0, 0)])
        assert mu(act, PointSupport([0]), OnePS.of(3, -2)).is_zero()

    def test_mu_sign_defined_where_mu_overflows(self):
        act = TorusAction([(N, N)])
        lam = OnePS.of(N, AffineN(0, 1))
        with pytest.raises(Exception):
            mu(act, PointSupport([0]), lam)
        assert mu_sign(act, PointSupport([0]), lam) == 1


class TestOnePS:
    def test_primitive_normalization(self):
        assert OnePS.of(4, -6).as_int_pair() == (2, -3)
        assert OnePS.of(0, 5).as_int_pair() == (0, 1)
        assert OnePS.of(Fraction(1, 2), Fraction(3, 2)).as_int_pair() == (1, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            OnePS.of(0, 0)

    def test_symbolic_direction_normalized(self):
        lam = OnePS.of(AffineN(2, 0), AffineN(0, 4))
        dx, dy = lam.direction
        assert (dx, dy) == (AffineN(1, 0), AffineN(0, 2))
        with pytest.raises(ValueError):
            lam.as_int_pair()


class TestWitnessLambdas:
    def test_single_point_normals(self):
        s = weight_polytope(TorusAction([(1, 0)]), PointSupport([0]))
        got = {lam._key() for lam in witness_lambdas(s)}
        for d in [(0, 1), (0, -1), (1, 0), (-1, 0)]:
            assert OnePS.of(*d)._key() in got

    def test_size_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(1, 7)
            act = TorusAction(
                [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(k)]
            )
            s = weight_polytope(act, PointSupport(range(k)))
            assert len(witness_lambdas(s)) <= 2 * (len(s) + len(s) ** 2)

    def test_all_origin_set_still_certified(self):
        act = TorusAction([(0, 0), (0, 0)])
        sup = PointSupport([0, 1])
        assert witness_status(act, sup) is Status.STRICTLY_SEMISTABLE
        assert torus_status(act, sup) is Status.STRICTLY_SEMISTABLE

    def test_witnesses_reproduce_status_on_degree_4_completion_census(self):
        params = EnvParams(4, LinParam(1, 2))
        for p in enumerate_env_points(4):
            weights = point_polytope(p, params)
            act = TorusAction(tuple(weights))
            sup = PointSupport(range(len(weights)))
            assert witness_status(act, sup) is torus_status(act, sup)


ints = st.integers(min_value=-20, max_value=20)
coords = st.builds(
    AffineN,
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    ints.map(Fraction),
)


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=6), st.data())
@settings(max_examples=300)
def test_status_equals_witness_quantified_mu_and_oracle(pts, data):
    act = TorusAction(pts)
    size = data.draw(st.integers(min_value=1, max_value=len(pts)))
    sup = PointSupport(data.draw(st.permutations(range(len(pts))))[:size])
    st_poly = torus_status(act, sup)
    assert witness_status(act, sup) is st_poly
    assert oracle_status(weight_polytope(act, sup)) is st_poly


# built from integers: hypothesis draws these far faster than st.fractions
denominators = st.integers(min_value=1, max_value=5)
rational_coords = st.builds(
    AffineN,
    st.builds(Fraction, st.integers(min_value=-5, max_value=5), denominators),
    st.builds(Fraction, st.integers(min_value=-60, max_value=60), denominators),
)


@given(
    st.lists(st.tuples(rational_coords, rational_coords), min_size=1, max_size=6),
    st.builds(Fraction, st.integers(min_value=1, max_value=45), denominators),
)
@settings(max_examples=200)
def test_witnesses_on_rational_symbolic_weights(pts, k):
    # the witness route scales weights to integer rows; neither the verdict
    # nor the direction set may depend on that scaling
    act = TorusAction(pts)
    sup = PointSupport(range(len(pts)))
    assert witness_status(act, sup) is torus_status(act, sup)
    s = weight_polytope(act, sup)
    scaled = WeightSet((k * w.x, k * w.y) for w in s)
    assert [lam._key() for lam in witness_lambdas(s)] == [
        lam._key() for lam in witness_lambdas(scaled)
    ]


@given(
    st.lists(st.tuples(ints, ints), min_size=1, max_size=6),
    st.fractions(min_value=Fraction(1, 5), max_value=Fraction(9), max_denominator=5),
)
@settings(max_examples=200)
def test_positive_scaling_invariance(pts, k):
    act = TorusAction(pts)
    scaled = TorusAction([(k * x, k * y) for x, y in pts])
    sup = PointSupport(range(len(pts)))
    assert torus_status(act, sup) is torus_status(scaled, sup)


@given(st.lists(st.tuples(ints, ints), min_size=2, max_size=6), st.data())
@settings(max_examples=200)
def test_enlarging_support_moves_toward_interior(pts, data):
    act = TorusAction(pts)
    size = data.draw(st.integers(min_value=1, max_value=len(pts) - 1))
    small = data.draw(st.permutations(range(len(pts))))[:size]
    big = set(small) | {data.draw(st.integers(min_value=0, max_value=len(pts) - 1))}
    assert torus_status(act, PointSupport(big)) >= torus_status(act, PointSupport(small))


class TestLayering:
    UPPER = {"binary_forms", "envelope", "oracle", "vgit", "cli"}

    def test_one_status_class(self):
        assert nrgit.Status is nrgit.binary_forms.Status is nrgit.hilbert_mumford.Status

    @pytest.mark.parametrize("module", [nrgit.polytope, nrgit.hilbert_mumford])
    def test_torus_engine_imports_no_upper_module(self, module):
        tree = ast.parse(inspect.getsource(module))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[-1])
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert not imported & self.UPPER
