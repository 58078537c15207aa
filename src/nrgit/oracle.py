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
                     occupy the remaining slots.
  UnipotentEnvelope  untwisted SL(2) placements with 1-D torus weights: slot
                     placements and v-cases vary independently.

A placement is its polytope class, a raw (v_support, mult_inf, mult_zero)
triple: all that envelope._torus_case and _unipotent_case read.
_placement_blocks enumerates them from a class key alone, as at most three
blocks (v_support, list of (mult_inf, mult_zero) slot pairs), and
_point_key is the one route from a point to its key: the group kind, then
all that the group's placements read of the point, so the key is exact
and names its group.  TorusOnly's key is the point's own placement;
Borel's, on an embedded point, is the mass at [1:0] and the sorted masses,
0 among them, that can be brought to [0:1]; an envelope group's is whether
v0 is nonzero, whether (v1, v2) is, the sorted root masses and, for
FullEnvelopeGroup, the marked root.  Both envelope groups keep v0 and the
vanishing of (v1, v2) and move roots without changing their masses.
moves_for builds EnvPoints from the same enumeration, flattened by
_placements, each move's generic roots being the point's root masses less
the two slot masses and its marked root the one its v-support forces or,
at a generic [v1:v2], the point's own (0 under UnipotentEnvelope).  A
placement of any key the census builds, or of any point of
enumerate_env_points, carries one of the seven envelope._V_SUPPORTS
objects, whose hashes are cached.  One function, _class_worst, scores a
class: it calls envelope._unipotent_case for UnipotentEnvelope, and
envelope._torus_case at the linearisation otherwise, directly on each
placement, and takes the worst; worst_case_status and diff_report call
it.  Within one diff_report a status table, a _StatusTable, holds each
distinct (scorer, v_support, mult_inf, mult_zero) status and each class's
worst case.  Every reader
looks a class up as table[key]: a scored class is a plain dict hit, and
a class not yet scored is scored by _class_worst through the table's
__missing__, each placement once.  _class_worst walks the class's blocks
with two plain loops and stops at its first Unstable placement; a
block's slot pairs are built, as one list, only when the scan reaches the
block, so such a scan builds no block past it.

diff_report checks each profile once and each completion-point check once
per distinct input, in one walk over the census.  Per profile: the sorted
root masses and the Borel, unipotent and SL(2) checks, each scored from a
class key built without any point; their rows are built only for a
profile where some check disagrees.  The point checks run on key sets,
built from the profiles' sorted masses without visiting a point
(_check_keys, which builds each mass tuple's list of marked roots once):
the group check once per (v_support, masses, marked), the
unipotent check once per (v_support, masses, classify_unipotent status),
and the torus case list against the polytope engine once per polytope
class (one table per report, envelope._engine_table: every class read off
one grid of the fixed points).  The points' closed forms run on raw cores
(envelope._group_case, _unipotent_worst, _torus_case), each through a
binding of its own.  Only when some key disagrees does the point loop
(_point_rows, in envelope._support_choices order) run, to write the rows;
no EnvPoint is built for a point but a row's subject.

One profile pass feeds both of the census command's reports: _census
runs diff_report's pass, which keeps per profile the classify_borel
status of its Borel check and the group closed form at the embedded
v-support, and tallies strong_envelope_report's EnvelopeReport from them
(envelope._envelope_report, that function's own tally).
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .binary_forms import (
    Divisor,
    LinParam,
    _all_profiles,
    _check_positive_degree,
    classify_borel,
    classify_sl2,
    classify_unipotent,
)
from .envelope import (
    _EMBEDDED_SUPPORT,
    _V_SUPPORTS,
    EnvelopeReport,
    EnvPoint,
    _engine_table,
    _envelope_report,
    _group_case,
    _marked_choices,
    _support_choices,
    _torus_case,
    _unipotent_case,
    _unipotent_worst,
    embed_divisor,
)
# the completion-point checks' own bindings, apart from the profile check's and the scorer's
from .binary_forms import classify_unipotent as _point_unipotent
from .envelope import _torus_case as _torus_case_list
from .hilbert_mumford import _STABLE, _UNSTABLE, Status
from .polytope import _Record, _value_text

__all__ = [
    "DiffReport",
    "DiffRow",
    "GroupKind",
    "GroupMoveSet",
    "census_size_formula",
    "diff_report",
    "enumerate_profiles",
    "moves_for",
    "partition_count",
    "worst_case_status",
]

DEFAULT_MAX_CENSUS_N = 12


def partition_count(k: int) -> int:
    """Number of integer partitions of k (Euler recurrence)."""
    if k < 0:
        raise ValueError(f"partition count of a negative number {k}")
    p = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            p[total] += p[total - part]
    return p[k]


def census_size_formula(n: int) -> int:
    """Sum over slot masses a + b <= n of p(n - a - b)."""
    _check_positive_degree(n)
    return sum(
        partition_count(n - a - b)
        for a in range(n + 1)
        for b in range(n + 1 - a)
    )


def enumerate_profiles(n: int, max_n: int = DEFAULT_MAX_CENSUS_N) -> tuple[Divisor, ...]:
    """Complete, duplicate-free census of degree-n profiles."""
    if not 1 <= n <= max_n:
        raise ValueError(f"census degree {_value_text(n)} outside guard range [1, {_value_text(max_n)}]")
    return tuple(_all_profiles(n))


class GroupKind(Enum):
    TORUS_ONLY = "TorusOnly"
    BOREL = "Borel"
    FULL_ENVELOPE_GROUP = "FullEnvelopeGroup"
    UNIPOTENT_ENVELOPE = "UnipotentEnvelope"

    # members are singletons, so they hash by identity: Enum's own __hash__
    # is a Python call, and every class key of a status table leads with one
    __hash__ = object.__hash__


# the members as module constants, which this module reads (see
# hilbert_mumford._STABLE)
_TORUS_ONLY, _BOREL = GroupKind.TORUS_ONLY, GroupKind.BOREL
_FULL, _UNIPOTENT = GroupKind.FULL_ENVELOPE_GROUP, GroupKind.UNIPOTENT_ENVELOPE


class GroupMoveSet(_Record):
    __slots__ = ("group", "moves")

    def __init__(self, group: GroupKind, moves: tuple[EnvPoint, ...]):
        self._set(group, moves)


def _remove_one(masses: list[int], value: int) -> list[int]:
    out = list(masses)
    if value:
        out.remove(value)
    return out


def _slot_pairs(masses) -> list[tuple[int, int]]:
    """All (a, b): distinct roots (or nothing) at the two slots, as a list
    in a-major order over the sorted distinct masses, 0 among them.  a and b
    are the masses of two distinct roots, so a == b only where a is 0 (no
    root) or a mass that occurs at least twice in masses."""
    values = sorted({0, *masses})
    return [(a, b) for a in values for b in values if b != a or not a or masses.count(a) > 1]


def _point_key(kind: GroupKind, p: EnvPoint) -> tuple:
    """p's class key under kind: its GroupKind, then everything _placements
    reads of p (module docstring), so equal keys reach equal placements."""
    d, sup = p.divisor, p.v_support
    if kind is _TORUS_ONLY:
        return (kind, sup, d.mult_inf, d.mult_zero)
    if kind is _BOREL:
        if sup != _EMBEDDED_SUPPORT or p.marked_mult != d.mult_inf:
            raise ValueError(
                f"Borel moves are defined for embedded configurations, got {p}"
            )
        return (kind, d.mult_inf, tuple(sorted({0, d.mult_zero, *d.generic})))
    if kind is not _UNIPOTENT and kind is not _FULL:
        raise ValueError(f"unknown group kind {kind!r}")
    marked = p.marked_mult if kind is _FULL else None
    return (kind, 0 in sup, 1 in sup or 2 in sup, tuple(sorted(d.all_mults())), marked)


# the v-supports _placements yields, by v0: the base ({0}, or nothing
# without v0), then the base with 1, with 2 and with both, each one of the
# seven _V_SUPPORTS objects but the empty base, which no point's key reaches
_PLACED_SUPPORTS = (
    (frozenset(), _V_SUPPORTS[1], _V_SUPPORTS[2], _V_SUPPORTS[5]),
    (_V_SUPPORTS[0], _V_SUPPORTS[3], _V_SUPPORTS[4], _V_SUPPORTS[6]),
)
# what an envelope group's class key reads of a v-support, per
# _V_SUPPORTS object: (v0, v12), whether it holds 0 and whether it meets {1, 2}
_SUPPORT_FLAGS = {sup: (0 in sup, 1 in sup or 2 in sup) for sup in _V_SUPPORTS}


def _placement_blocks(key: tuple):
    """Every placement the group key[0] reaches from a point of class key,
    as at most three blocks (v_support, [(mult_inf, mult_zero), ...]): the
    raw polytope classes (v_support, mult_inf, mult_zero) of a block share
    its v-support.

    The one enumeration of the move rules: _class_worst scans its blocks,
    and _placements flattens them for moves_for.  A block's pair list is
    built when the scan reaches the block, so a FullEnvelopeGroup scan that
    stops in its first block builds no generic pair.  The v_supports are
    envelope._V_SUPPORTS objects, read off _PLACED_SUPPORTS once per key
    (TorusOnly's is the point's own, one of them on every point of
    enumerate_env_points), so no placement builds a frozenset and a status
    table hashes only frozensets whose hashes are cached.

    Borel's empty slot, the placement with nothing at [0:1], never decides
    its class's status.  Every Borel placement has v-support {0, 1}, where
    _torus_case reads b = m(n - 2*mult_zero) only through -r <= b and
    -r < b; so, mult_inf fixed, the status never rises as mult_zero grows.
    The empty slot, mult_zero = 0, is thus never below the placement of the
    point's own [0:1] mass, which the class always holds, and a move set
    without it has the same worst status.
    """
    if key[0] is _TORUS_ONLY:
        _, sup, a, b = key
        yield sup, [(a, b)]
        return
    if key[0] is _BOREL:
        _, a, other_slot = key
        yield _EMBEDDED_SUPPORT, [(a, q) for q in other_slot]
        return
    kind, v0, v12, masses, marked = key
    base, with1, with2, with12 = _PLACED_SUPPORTS[v0]
    if not v12:
        # (v1, v2) = (0, 0) is preserved by both groups; only slot placements vary
        yield base, _slot_pairs(masses)
    elif kind is _UNIPOTENT:
        pairs = _slot_pairs(masses)
        for case in (with1, with2, with12):
            yield case, pairs
    else:
        others = _remove_one(masses, marked)
        other_slot = sorted({0, *others})
        # marked point sent to [1:0]
        yield with1, [(marked, q) for q in other_slot]
        # marked point sent to [0:1]
        yield with2, [(q, marked) for q in other_slot]
        # marked point kept generic: slots take non-marked roots
        yield with12, _slot_pairs(others)


def _placements(key: tuple):
    """_placement_blocks(key) flattened to (v_support, mult_inf, mult_zero)
    triples, block by block."""
    return ((sup, a, b) for sup, pairs in _placement_blocks(key) for a, b in pairs)


def moves_for(kind: GroupKind, p: EnvPoint) -> GroupMoveSet:
    d = p.divisor
    masses = list(d.all_mults())
    # the marked root of a move at a generic [v1:v2] is the point's own,
    # but 0 under UnipotentEnvelope, whose 1-D weights never read it;
    # any other v-support forces it
    own = 0 if kind is _UNIPOTENT else p.marked_mult
    # a move keeps the point's roots: generic ones are all but the slot masses
    return GroupMoveSet(
        kind,
        tuple(
            EnvPoint(sup, Divisor(d.n, a, b, _remove_one(_remove_one(masses, a), b)),
                     own if 1 in sup and 2 in sup else _marked_choices(sup, a, b, ())[0])
            for sup, a, b in _placements(_point_key(kind, p))
        ),
    )


def _class_worst(key: tuple, n: int, lin: LinParam | None, seen: dict) -> Status:
    """Worst status over the placements that the group key[0] reaches from
    class key, at degree n: the one placement scorer of this module.

    seen is one report's status table, for one degree and one linearisation
    ({} scores a single class).  It keys each placement's status by the
    flag naming the scorer, unipotent, and the placement's polytope class
    (v_support, mult_inf, mult_zero), and each class's worst case by its
    key, which leads with its GroupKind.  The group picks the scorer once
    per class, and each placement not yet in seen is scored by a direct
    call, _unipotent_case(sup, a, b, n) or _torus_case(sup, a, b, n, m, r),
    with no argument tuple built for it.  This scores key whether or not
    seen holds it, and stores its status there; a report reads classes
    through a _StatusTable, whose __missing__ calls this only for a key
    not yet scored, so a scored class costs one subscript.  The scan walks
    the key's _placement_blocks, each block's slot pairs in one inner
    loop, and stops at the first Unstable placement: nothing is worse, and
    neither scorer raises, so the placements it skips change nothing, and a
    block it does not reach is never built.
    """
    unipotent = key[0] is _UNIPOTENT
    if unipotent:
        m = r = None
    elif lin is None:
        raise ValueError(f"{key[0].value} placements require a linearisation")
    else:
        m, r = lin.m, lin.r
    status = _STABLE
    for sup, pairs in _placement_blocks(key):
        for a, b in pairs:
            placement = (unipotent, sup, a, b)
            got = seen.get(placement)
            if got is None:
                got = seen[placement] = (_unipotent_case(sup, a, b, n) if unipotent
                                         else _torus_case(sup, a, b, n, m, r))
            if got < status:
                status = got
                if got is _UNSTABLE:
                    break
        if status is _UNSTABLE:
            break
    seen[key] = status
    return status


class _StatusTable(dict):
    """One report's status table for _class_worst, at degree n and
    linearisation lin: table[key] is the worst status of class key, scored
    on its first lookup.  The unipotent scorer reads no linearisation, so
    one table serves every group."""

    __slots__ = ("n", "lin")

    def __init__(self, n: int, lin: LinParam, scored=()):
        super().__init__(scored)
        self.n, self.lin = n, lin

    def __missing__(self, key: tuple) -> Status:
        return _class_worst(key, self.n, self.lin, self)


def worst_case_status(d: Divisor, lin: LinParam | None, group: GroupKind) -> Status:
    """Minimum per-placement torus status over the group's moves of the
    embedded configuration.  This is the oracle the closed forms must match.
    """
    return _class_worst(_point_key(group, embed_divisor(d)), d.n, lin, {})


class DiffRow(_Record):
    __slots__ = ("check", "subject", "expected", "got")

    def __init__(self, check: str, subject: str, expected: str, got: str):
        self._set(check, subject, expected, got)


class DiffReport(_Record):
    __slots__ = ("n", "lin", "checked", "rows")

    def __init__(self, n: int, lin: LinParam, checked: int, rows: tuple[DiffRow, ...]):
        self._set(n, lin, checked, rows)

    @property
    def ok(self) -> bool:
        return not self.rows


def diff_report(n: int, lin: LinParam, max_n: int = DEFAULT_MAX_CENSUS_N) -> DiffReport:
    """Diff every closed-form classifier against its brute-force counterpart.

    Empty on success.
    """
    return _profile_pass(n, lin, max_n)[0]


def _census(n: int, lin: LinParam, max_n: int) -> tuple[DiffReport, EnvelopeReport]:
    # the census command's two reports from one profile pass: diff_report's
    # and strong_envelope_report's, tallied from the statuses the pass keeps
    report, statuses = _profile_pass(n, lin, max_n)
    return report, _envelope_report(n, lin, statuses)


def _profile_pass(n: int, lin: LinParam, max_n: int) -> tuple[DiffReport, list]:
    """diff_report's pass, which also keeps (d, intrinsic, enveloped) per
    profile d: the classify_borel status its Borel check reads and the group
    closed form at its embedded point, as strong_envelope_report computes
    them.

    The profile checks run per profile, in one walk over the census that
    also collects the distinct sorted masses and (masses,
    _point_unipotent(d)) pairs, from which _check_keys generates the key
    sets.  Each completion-point check runs once per key: the tuple of
    every argument its two sides read beyond n, m and r, which are the
    report's.  Both sides are pure functions of their arguments, so a check
    that holds at a key holds at every point with that key, and the key
    sets below hold exactly the census's keys:
      group      _class_worst((_FULL, v0, v12, masses, marked)) reads the
                 v-support's flags v0 and v12, the sorted root masses and
                 the marked root; _group_case(sup, marked, top, n, m, r)
                 the v-support, the marked root and top = masses[-1].  Key
                 (sup, masses, marked).
      unipotent  _class_worst((_UNIPOTENT, v0, v12, masses, None)) and
                 _unipotent_worst(sup, _point_unipotent(d)).  Key (sup,
                 masses, _point_unipotent(d)), per profile d, every sup.
      engine     engine[sup, a, b] and _torus_case_list(sup, a, b, n, m, r).
                 Key (sup, a, b): every class of the engine table, since
                 the class (sup, a, b), a + b <= n, holds the points at sup
                 of every profile with a at [1:0] and b at [0:1].

    The group keys of each sorted-mass tuple masses are (sup, masses, None)
    at sup = {0} and (sup, masses, marked) at each other v-support, marked
    in {0} + masses.  A point's marked root is None exactly at {0}, the
    v-support that misses 1 and 2.  Elsewhere it is its mass at [1:0] or
    at [0:1], or 0 or one of its generic masses: always 0 or a root mass.
    And each is reached: the census holds the profile with all of masses
    generic (0 at [1:0] and at [0:1]; any of {0} + masses at a generic
    [v1:v2]) and, for each mass x, the profile with x at [1:0] and the rest
    generic, and the one with x at [0:1].

    A profile with generic masses g has 5 + 2k completion points, where k =
    len({0, *g}): marked None at {0}; the forced mass, mult_inf or
    mult_zero, at each of {1}, {2}, {0, 1} and {0, 2}; any of {0, *g} at
    {1, 2} and at {0, 1, 2}.  checked is one per profile and one per point,
    as the point loop counts them.

    A clean report visits no point.  When some key disagrees, _point_rows,
    the point loop, writes the rows, so a failing report keeps its rows and
    their order; if it writes none, the key sets have parted from the
    points, and the pass raises RuntimeError.
    """
    census = enumerate_profiles(n, max_n)
    m, r = lin.m, lin.r
    # placement classes scored so far, for this report's linearisation only
    seen = _StatusTable(n, lin)
    # polytope engine status per polytope class
    engine = _engine_table(n, m, r)[1]
    rows: list[DiffRow] = []
    statuses = []
    # the distinct sorted-mass tuples, in census order, each the one copy
    # that its profiles' class keys and pairs share
    shared: dict = {}
    pairs: dict = {}  # distinct (masses, _point_unipotent(d)), in census order
    checked = len(census)
    for d in census:
        a = d.mult_inf
        masses = tuple(sorted(d.all_mults()))
        masses = shared.setdefault(masses, masses)
        intrinsic = classify_borel(d, lin)
        # Borel's class key of the embedded point, built as _point_key builds
        # it; the unipotent and SL(2) checks' at v = [1:1:0] and, for the
        # SL(2) weights 2i - n over all slot placements, at v = [1:0:0]
        borel_worst = seen[_BOREL, a, tuple(sorted({0, d.mult_zero, *d.generic}))]
        unip_worst = seen[_UNIPOTENT, True, True, masses, None]
        sl2_worst = seen[_UNIPOTENT, True, False, masses, None]
        unip_closed, sl2_closed = classify_unipotent(d), classify_sl2(d)
        if borel_worst != intrinsic or unip_worst != unip_closed or sl2_worst != sl2_closed:
            _record(rows, d, (
                ("borel closed form vs Borel placements", borel_worst, intrinsic),
                ("unipotent closed form vs SL(2) placements", unip_worst, unip_closed),
                ("sl2 closed form vs slot placements", sl2_worst, sl2_closed),
            ))
        # the embedded point's group closed form: its marked root is mult_inf
        statuses.append((d, intrinsic, _group_case(_EMBEDDED_SUPPORT, a, masses[-1], n, m, r)))
        pairs[masses, _point_unipotent(d)] = None
        checked += 5 + 2 * len({0, *d.generic})
    if not _keys_agree(*_check_keys(shared, pairs), engine, n, lin, seen):
        point_rows = _point_rows(census, n, lin, seen, engine)[0]
        if not point_rows:
            # every key is some point's: the keys and the points have parted
            raise RuntimeError("a completion-point check fails at a key that no point has")
        rows += point_rows
    return DiffReport(n, lin, checked, tuple(rows)), statuses


def _check_keys(masses, pairs) -> tuple[Iterator, Iterator]:
    # the group and unipotent check keys, as _profile_pass's docstring
    # derives them, from masses, the census's distinct sorted-mass tuples,
    # and pairs, its distinct (masses, _point_unipotent(d)).  A mass
    # tuple's marked roots, sorted({0, *ms}), are built once and serve its
    # six v-supports that meet {1, 2}.  Each key set is generated on demand,
    # not listed: what the pass keeps alive is what starts a garbage
    # collection (a clean census --n 4 ran one, of about 80 microseconds,
    # when it kept them)
    group = ((sup, ms, marked) for ms, marks in ((ms, sorted({0, *ms})) for ms in masses)
             for sup in _V_SUPPORTS for marked in (marks if 1 in sup or 2 in sup else (None,)))
    unipotent = ((sup, ms, u) for ms, u in pairs for sup in _V_SUPPORTS)
    return group, unipotent


def _keys_agree(group_keys, unipotent_keys, engine: dict, n: int, lin: LinParam, seen: _StatusTable) -> bool:
    # whether every completion-point check holds at every key of its key
    # set (_profile_pass's docstring), in that order, up to the first that
    # fails
    m, r = lin.m, lin.r
    for sup, masses, marked in group_keys:
        v0, v12 = _SUPPORT_FLAGS[sup]
        if seen[_FULL, v0, v12, masses, marked] != _group_case(sup, marked, masses[-1], n, m, r):
            return False
    for sup, masses, u in unipotent_keys:
        v0, v12 = _SUPPORT_FLAGS[sup]
        if seen[_UNIPOTENT, v0, v12, masses, None] != _unipotent_worst(sup, u):
            return False
    for (sup, a, b), status in engine.items():
        if status != _torus_case_list(sup, a, b, n, m, r):
            return False
    return True


def _point_rows(census, n: int, lin: LinParam, seen: dict, engine: dict) -> tuple[list, int]:
    # the point loop: the rows of the three completion-point checks, point by
    # point in enumeration order (envelope._support_choices), and the number
    # of points; _profile_pass's row writer.  Each value is computed in the
    # outermost loop that fixes all of its arguments.
    m, r = lin.m, lin.r
    # seen's scored entries, read through a table that scores the rest
    seen = _StatusTable(n, lin, seen)
    rows: list[DiffRow] = []
    points = 0
    for d in census:
        a, b = d.mult_inf, d.mult_zero
        masses = tuple(sorted(d.all_mults()))
        top = masses[-1]  # d.max_mult()
        profile_unip = _point_unipotent(d)
        for sup, choices in _support_choices(d):
            v0, v12 = _SUPPORT_FLAGS[sup]
            unip_worst = seen[_UNIPOTENT, v0, v12, masses, None]
            unip_closed = _unipotent_worst(sup, profile_unip)
            engine_status = engine[sup, a, b]
            torus = _torus_case_list(sup, a, b, n, m, r)
            for marked in choices:
                points += 1
                group_worst = seen[_FULL, v0, v12, masses, marked]
                group = _group_case(sup, marked, top, n, m, r)
                if group_worst != group or unip_worst != unip_closed or engine_status != torus:
                    # the one EnvPoint built for a point: an emitted row's subject
                    _record(rows, EnvPoint(sup, d, marked), (
                        ("group closed form vs tied placements", group_worst, group),
                        ("unipotent closed form vs SL(2) placements (completion point)",
                         unip_worst, unip_closed),
                        ("torus case list vs polytope engine", engine_status, torus),
                    ))
    return rows, points


def _record(out: list, subject, checks) -> None:
    # a DiffRow per check (name, expected, got) whose two answers differ
    for check, expected, got in checks:
        if expected != got:
            out.append(DiffRow(check, str(subject), str(expected), str(got)))
