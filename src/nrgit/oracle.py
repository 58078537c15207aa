"""Brute-force verification of every closed-form classifier.

The group quantifier in "worst torus status over all translates" reduces to
finitely many placements, because the torus status of a translate depends
only on which root masses occupy the two torus-fixed slots of the line and
which case the v-coordinates fall in.  This module enumerates those
placements per group, takes the worst per-placement status, and diffs the
result against the closed forms over exhaustive profile censuses.

Placement rules per group:

  TorusOnly          the point itself, no moves.
  Borel              fixes [1:0]: the mass there stays put (and stays the
                     marked root of the embedded point); any one other root,
                     or no root, can be brought to [0:1].
  FullEnvelopeGroup  moves tied to the marked point [v1:v2]: it can be sent
                     to [1:0] (carrying its mass there), to [0:1], or kept
                     generic, and independently any non-marked roots can
                     occupy the remaining slots; v0 and the vanishing of
                     (v1, v2) are invariants of the action.
  UnipotentEnvelope  untwisted SL(2) placements with 1-D torus weights: slot
                     placements and v-cases vary independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .binary_forms import (
    Divisor,
    LinParam,
    _all_profiles,
    classify_borel,
    classify_sl2,
    classify_unipotent,
)
from .envelope import (
    EnvParams,
    EnvPoint,
    _marked_choices,
    embed_divisor,
    enumerate_env_points,
    group_status,
    point_polytope,
    torus_case_status,
    unipotent_case_status,
    unipotent_status,
)
from .hilbert_mumford import PointSupport, Status, TorusAction, _status, torus_status

DEFAULT_MAX_CENSUS_N = 12


@dataclass(frozen=True, slots=True)
class ProfileCensus:
    n: int
    profiles: tuple[Divisor, ...]

    def __len__(self):
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)


def partition_count(k: int) -> int:
    """Number of integer partitions of k (Euler recurrence)."""
    p = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            p[total] += p[total - part]
    return p[k]


def census_size_formula(n: int) -> int:
    """Sum over slot masses a + b <= n of p(n - a - b)."""
    return sum(
        partition_count(n - a - b)
        for a in range(n + 1)
        for b in range(n + 1 - a)
    )


def enumerate_profiles(n: int, max_n: int = DEFAULT_MAX_CENSUS_N) -> ProfileCensus:
    """Complete, duplicate-free census of degree-n profiles."""
    if not 1 <= n <= max_n:
        raise ValueError(f"census degree {n} outside guard range [1, {max_n}]")
    return ProfileCensus(n, tuple(_all_profiles(n)))


class GroupKind(Enum):
    TORUS_ONLY = "TorusOnly"
    BOREL = "Borel"
    FULL_ENVELOPE_GROUP = "FullEnvelopeGroup"
    UNIPOTENT_ENVELOPE = "UnipotentEnvelope"


@dataclass(frozen=True, slots=True)
class GroupMoveSet:
    group: GroupKind
    moves: tuple[EnvPoint, ...]


def _root_masses(d: Divisor) -> list[int]:
    return list(d.all_mults())


def _remove_one(masses: list[int], value: int) -> list[int]:
    if value == 0:
        return list(masses)
    out = list(masses)
    out.remove(value)
    return out


def _slot_placements(masses: list[int]):
    """All (a, b, rest): distinct roots (or nothing) at the two slots."""
    for a in sorted({0, *masses}):
        rest_a = _remove_one(masses, a)
        for b in sorted({0, *rest_a}):
            yield a, b, _remove_one(rest_a, b)


def _borel_moves(p: EnvPoint) -> list[EnvPoint]:
    if p.v_support != {0, 1} or p.marked_mult != p.divisor.mult_inf:
        raise ValueError(
            f"Borel moves are defined for embedded configurations, got {p}"
        )
    d = p.divisor
    n = d.n
    others = ([d.mult_zero] if d.mult_zero > 0 else []) + list(d.generic)
    moves = []
    for q in sorted({0, *others}):
        rest = _remove_one(others, q)
        moved = Divisor(n, d.mult_inf, q, tuple(rest))
        moves.append(EnvPoint({0, 1}, moved, moved.mult_inf))
    return moves


def _full_group_moves(p: EnvPoint) -> list[EnvPoint]:
    d = p.divisor
    n = d.n
    masses = _root_masses(d)
    has_v0 = 0 in p.v_support
    special = p.v_support & {1, 2}
    moves = []
    if not special:
        # (v1, v2) = (0, 0) is preserved; only slot placements vary
        sup = frozenset({0}) if has_v0 else None
        if sup is None:
            raise ValueError(f"EnvPoint with empty v-support: {p}")
        for a, b, rest in _slot_placements(masses):
            moves.append(EnvPoint(sup, Divisor(n, a, b, tuple(rest)), None))
        return moves
    marked = p.marked_mult
    others = _remove_one(masses, marked)
    base = {0} if has_v0 else set()
    # marked point sent to [1:0]
    for q in sorted({0, *others}):
        rest = _remove_one(others, q)
        moves.append(
            EnvPoint(base | {1}, Divisor(n, marked, q, tuple(rest)), marked)
        )
    # marked point sent to [0:1]
    for q in sorted({0, *others}):
        rest = _remove_one(others, q)
        moves.append(
            EnvPoint(base | {2}, Divisor(n, q, marked, tuple(rest)), marked)
        )
    # marked point kept generic: slots take non-marked roots
    for a, b, rest in _slot_placements(others):
        gen = tuple(rest + ([marked] if marked > 0 else []))
        moves.append(EnvPoint(base | {1, 2}, Divisor(n, a, b, gen), marked))
    return moves


def _unipotent_moves(p: EnvPoint) -> list[EnvPoint]:
    d = p.divisor
    n = d.n
    masses = _root_masses(d)
    has_v0 = 0 in p.v_support
    base = {0} if has_v0 else set()
    if p.v_support & {1, 2}:
        vcases = [base | {1}, base | {2}, base | {1, 2}]
    else:
        vcases = [base]
    moves = []
    for sup in vcases:
        for a, b, rest in _slot_placements(masses):
            moved = Divisor(n, a, b, tuple(rest))
            # the marked root is irrelevant to the 1-D weights; any coherent
            # value will do
            marked = _marked_choices(sup, moved)[0]
            moves.append(EnvPoint(sup, moved, marked))
    return moves


def moves_for(kind: GroupKind, p: EnvPoint) -> GroupMoveSet:
    if kind is GroupKind.TORUS_ONLY:
        moves = [p]
    elif kind is GroupKind.BOREL:
        moves = _borel_moves(p)
    elif kind is GroupKind.FULL_ENVELOPE_GROUP:
        moves = _full_group_moves(p)
    elif kind is GroupKind.UNIPOTENT_ENVELOPE:
        moves = _unipotent_moves(p)
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    return GroupMoveSet(kind, tuple(moves))


def _worst_over(moveset: GroupMoveSet, n: int, lin: LinParam | None) -> Status:
    if moveset.group is GroupKind.UNIPOTENT_ENVELOPE:
        return min(unipotent_case_status(q, n) for q in moveset.moves)
    if lin is None:
        raise ValueError(f"{moveset.group.value} placements require a linearisation")
    params = EnvParams(n, lin)
    return min(torus_case_status(q, params) for q in moveset.moves)


def worst_case_status(
    d: Divisor, lin: LinParam | None, group: GroupKind | GroupMoveSet
) -> Status:
    """Minimum per-placement torus status over the group's moves of the
    embedded configuration.  This is the oracle the closed forms must match.
    """
    if isinstance(group, GroupMoveSet):
        moveset = group
    else:
        moveset = moves_for(group, embed_divisor(d))
    return _worst_over(moveset, d.n, lin)


def _sl2_placement_status(d: Divisor) -> Status:
    # independent check for classify_sl2: 1-D weights 2i - n over all slot
    # placements, no completion factor and no twist
    best = Status.STABLE
    for a, b, _ in _slot_placements(_root_masses(d)):
        lo = 2 * a - d.n
        hi = d.n - 2 * b
        best = min(best, _status(lo < 0 < hi, lo <= 0 <= hi))
    return best


@dataclass(frozen=True, slots=True)
class DiffRow:
    check: str
    subject: str
    expected: str
    got: str


@dataclass(frozen=True, slots=True)
class DiffReport:
    n: int
    lin: LinParam
    checked: int
    rows: tuple[DiffRow, ...]

    @property
    def ok(self) -> bool:
        return not self.rows


def diff_report(
    n: int,
    lin: LinParam,
    classify_borel_fn=None,
    max_n: int = DEFAULT_MAX_CENSUS_N,
) -> DiffReport:
    """Diff every closed-form classifier against its brute-force counterpart.

    Empty on success.  classify_borel_fn exists so the test harness can
    inject a deliberately broken classifier and confirm the diff catches it.
    """
    borel_fn = classify_borel_fn or classify_borel
    census = enumerate_profiles(n, max_n)
    params = EnvParams(n, lin)
    rows: list[DiffRow] = []
    checked = 0

    def record(check, subject, expected, got):
        if expected != got:
            rows.append(DiffRow(check, str(subject), str(expected), str(got)))

    for d in census:
        checked += 1
        record(
            "borel closed form vs Borel placements",
            d,
            worst_case_status(d, lin, GroupKind.BOREL),
            borel_fn(d, lin),
        )
        record(
            "unipotent closed form vs SL(2) placements",
            d,
            worst_case_status(d, None, GroupKind.UNIPOTENT_ENVELOPE),
            classify_unipotent(d),
        )
        record(
            "sl2 closed form vs slot placements",
            d,
            _sl2_placement_status(d),
            classify_sl2(d),
        )
    for p in enumerate_env_points(n):
        checked += 1
        record(
            "group closed form vs tied placements",
            p,
            _worst_over(moves_for(GroupKind.FULL_ENVELOPE_GROUP, p), n, lin),
            group_status(p, params),
        )
        record(
            "unipotent closed form vs SL(2) placements (completion point)",
            p,
            _worst_over(moves_for(GroupKind.UNIPOTENT_ENVELOPE, p), n, None),
            unipotent_status(p, n),
        )
        weights = point_polytope(p, params)
        action = TorusAction(tuple(weights))
        support = PointSupport(range(len(weights)))
        record(
            "torus case list vs polytope engine",
            p,
            torus_status(action, support),
            torus_case_status(p, params),
        )
    return DiffReport(n, lin, checked, tuple(rows))
