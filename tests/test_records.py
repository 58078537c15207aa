"""The immutable record types: repr, equality, hash and immutability.

Refusal messages print records through {d!r}, so each repr is pinned to the
text a frozen dataclass gives, Name(field=value, ...).
"""

from fractions import Fraction

import pytest

from nrgit import (
    AffineN,
    DiffReport,
    DiffRow,
    Divisor,
    EnvParams,
    EnvPoint,
    EnvelopeReport,
    FlipData,
    GroupKind,
    GroupMoveSet,
    LimitDirection,
    LinParam,
    MoveStep,
    OnePS,
    PointSupport,
    QuotientKind,
    QuotientProfile,
    TorusAction,
    WallChamber,
    WallKind,
    WeightSet,
)
from nrgit.polytope import _Record

# (instance, builder of an equal instance, expected repr)
CASES = [
    (Divisor(5, 1, 2, (1, 1)), lambda: Divisor(5, 1, 2, [1, 1]),
     "Divisor(n=5, mult_inf=1, mult_zero=2, generic=(1, 1))"),
    (LinParam(2, 3), lambda: LinParam(2, 3), "LinParam(m=2, r=3)"),
    (MoveStep("torus_limit", LimitDirection.TO_ZERO, Divisor(2, 0, 2)),
     lambda: MoveStep("torus_limit", LimitDirection.TO_ZERO, Divisor(2, 0, 2, ())),
     "MoveStep(op='torus_limit', arg=<LimitDirection.TO_ZERO: 'ToZero'>, "
     "result=Divisor(n=2, mult_inf=0, mult_zero=2, generic=()))"),
    (TorusAction([(0, 0), (1, -1)]), lambda: TorusAction([(0, 0), (1, -1)]),
     "TorusAction(coord_weights=(Weight2(x=AffineN(0, 0), y=AffineN(0, 0)), "
     "Weight2(x=AffineN(0, 1), y=AffineN(0, -1))))"),
    (PointSupport({2, 0}), lambda: PointSupport([0, 2]),
     "PointSupport(indices=frozenset({0, 2}))"),
    (OnePS((2, 4)), lambda: OnePS((1, 2)), "OnePS(direction=(AffineN(0, 1), AffineN(0, 2)))"),
    (AffineN(1, -2), lambda: AffineN(1, -2), "AffineN(1, -2)"),
    (WeightSet([(1, 2), (0, 0)]), lambda: WeightSet([(1, 2), (0, 0)]),
     "WeightSet(points=(Weight2(x=AffineN(0, 1), y=AffineN(0, 2)), "
     "Weight2(x=AffineN(0, 0), y=AffineN(0, 0))))"),
    (EnvParams(3, LinParam(1, 1)), lambda: EnvParams(3, LinParam(1, 1)),
     "EnvParams(n=3, lin=LinParam(m=1, r=1))"),
    (EnvPoint({1, 2}, Divisor(3, 1, 1, (1,)), 1), lambda: EnvPoint([2, 1], Divisor(3, 1, 1, (1,)), 1),
     "EnvPoint(v_support=frozenset({1, 2}), divisor=Divisor(n=3, mult_inf=1, "
     "mult_zero=1, generic=(1,)), marked_mult=1)"),
    (EnvelopeReport(2, LinParam(1, 1), (2, 0, 5), (2, 0, 5), True, True, True, ()),
     lambda: EnvelopeReport(2, LinParam(1, 1), (2, 0, 5), (2, 0, 5), True, True, True, ()),
     "EnvelopeReport(n=2, lin=LinParam(m=1, r=1), counts_intrinsic=(2, 0, 5), "
     "counts_envelope=(2, 0, 5), stable_equal=True, semistable_equal=True, "
     "chain_ok=True, violations=())"),
    (GroupMoveSet(GroupKind.BOREL, (EnvPoint({0}, Divisor(1, 0, 1)),)),
     lambda: GroupMoveSet(GroupKind.BOREL, (EnvPoint({0}, Divisor(1, 0, 1), None),)),
     "GroupMoveSet(group=<GroupKind.BOREL: 'Borel'>, moves=(EnvPoint(v_support="
     "frozenset({0}), divisor=Divisor(n=1, mult_inf=0, mult_zero=1, generic=()), "
     "marked_mult=None),))"),
    (DiffRow("borel", "(n=1)", "Stable", "Unstable"),
     lambda: DiffRow("borel", "(n=1)", "Stable", "Unstable"),
     "DiffRow(check='borel', subject='(n=1)', expected='Stable', got='Unstable')"),
    (DiffReport(2, LinParam(1, 0), 3, (DiffRow("sl2", "(n=2)", "Stable", "Unstable"),)),
     lambda: DiffReport(2, LinParam(1, 0), 3, (DiffRow("sl2", "(n=2)", "Stable", "Unstable"),)),
     "DiffReport(n=2, lin=LinParam(m=1, r=0), checked=3, rows=(DiffRow(check='sl2', "
     "subject='(n=2)', expected='Stable', got='Unstable'),))"),
    (WallChamber(WallKind.CHAMBER, (Fraction(0), Fraction(2))),
     lambda: WallChamber(WallKind.CHAMBER, (Fraction(0), Fraction(2))),
     "WallChamber(kind=<WallKind.CHAMBER: 'Chamber'>, value=(Fraction(0, 1), Fraction(2, 1)))"),
    (QuotientProfile(True, QuotientKind.EMPTY, None),
     lambda: QuotientProfile(True, QuotientKind.EMPTY, None, None),
     "QuotientProfile(ss_equals_s=True, quotient_kind=<QuotientKind.EMPTY: 'Empty'>, "
     "dimension=None, note=None)"),
    (FlipData(2, (1, 2), (1, 2, 3, 4), (-4, -2)),
     lambda: FlipData(s=2, e_plus_weights=(1, 2), e_minus_weights=(1, 2, 3, 4), slice_weights=(-4, -2)),
     "FlipData(s=2, e_plus_weights=(1, 2), e_minus_weights=(1, 2, 3, 4), slice_weights=(-4, -2))"),
]
IDS = [type(case[0]).__name__ for case in CASES]


def test_every_record_type_is_covered():
    types = [c.__name__ for c in _Record.__subclasses__() if c.__module__.startswith("nrgit.")]
    assert sorted(IDS) == sorted(types)


@pytest.mark.parametrize("record, twin, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(record, twin, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, twin, text", CASES, ids=IDS)
def test_equal_records_hash_equal(record, twin, text):
    other = twin()
    assert other is not record
    assert record == other and not record != other
    assert hash(record) == hash(other)
    assert len({record, other}) == 1


@pytest.mark.parametrize("record, twin, text", CASES, ids=IDS)
def test_unequal_to_a_tuple_or_another_type_with_the_same_fields(record, twin, text):
    fields = tuple(getattr(record, name) for name in type(record).__slots__)
    assert record != fields
    impostor_cls = type("Impostor", (_Record,), {"__slots__": type(record).__slots__})
    impostor = object.__new__(impostor_cls)
    impostor._set(*fields)
    assert record != impostor and impostor != record
    assert repr(impostor).startswith("Impostor(")


@pytest.mark.parametrize("record, twin, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(record, twin, text):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, name) is before


def test_affine_values_without_n_still_equal_their_scalars():
    # AffineN keeps its own equality and hash: a constant equals its int
    assert AffineN(0, 3) == 3 and hash(AffineN(0, 3)) == hash(3)
    assert AffineN(0, Fraction(1, 2)) == Fraction(1, 2)


def test_unequal_fields_compare_unequal():
    assert Divisor(5, 1, 2, (1, 1)) != Divisor(5, 2, 1, (1, 1))
    assert QuotientProfile(True, QuotientKind.EMPTY, None) != QuotientProfile(
        True, QuotientKind.EMPTY, None, "a note"
    )


# each integer field of a public constructor, as (builder of a record from
# the field's value, a value it accepts)
INTEGER_FIELDS = {
    "Divisor.n": (lambda x: Divisor(x, 1, 0, (2,)), 3),
    "Divisor.mult_inf": (lambda x: Divisor(3, x, 0, (2,)), 1),
    "Divisor.mult_zero": (lambda x: Divisor(3, 0, x, (2,)), 1),
    "Divisor.generic": (lambda x: Divisor(3, 1, 0, [x]), 2),
    "EnvParams.n": (lambda x: EnvParams(x, LinParam(1, 1)), 3),
    "EnvPoint.v_support": (lambda x: EnvPoint([x, 1], Divisor(3, 1, 0, (2,)), 1), 0),
    "PointSupport.indices": (lambda x: PointSupport([x]), 0),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_refuse_what_is_not_an_integer(field):
    # exactness: a float, a numeral or a Fraction is refused, never
    # truncated (Divisor(3, 1, 0, [2.9]) once read its root as 2)
    build, value = INTEGER_FIELDS[field]
    for wrong in (value + 0.9, float(value), str(value), Fraction(value)):
        with pytest.raises(TypeError):
            build(wrong)
    assert build(value) == build(value)


def test_integer_fields_read_a_bool_as_an_int():
    assert repr(Divisor(True, True, False)) == "Divisor(n=1, mult_inf=1, mult_zero=0, generic=())"
    assert Divisor(2, 0, 0, [True, True]).generic == (1, 1)
    assert type(EnvParams(True, LinParam(1, 1)).n) is int
    assert PointSupport([False, True]).indices == {0, 1}
