"""Wall-and-chamber structure in the slope parameter tau and flip data.

Stability of degree-n configurations jumps only at tau = 0, tau = n, and the
interior values 0 < tau < n with n - tau even; between consecutive walls the
classification is constant and stable = semistable.  Every wall is an
integer, so walls() records int bounds and builds no Fraction; wall_values()
gives the same slopes as Fractions.  Each regime's quotient is reported
symbolically: kind, dimension, and at interior walls the weighted-projective
exceptional loci of the flip.

The quotient kind needs only two census facts, and both have closed forms in
n and tau, so no profile is enumerated.  Spreading the mass over n simple
roots away from [1:0] is the best case for every threshold, so for
0 <= tau <= n some profile is semistable iff n + tau >= 2, and for
0 < tau < n some profile is stable iff n + tau > 2, which holds whenever
anything is semistable there.  At tau = 0 a strictly semistable profile
exists iff n is even: a root of multiplicity exactly n/2.
"""

from __future__ import annotations

from enum import Enum

from .binary_forms import _check_positive_degree, _is_wall, central_divisor
from .polytope import _Record, _fraction, _value_text
# not called here; perfbench/spans.py wraps this binding by name to count the
# profile censuses vgit runs, and every traced run fails without it
from .binary_forms import _all_profiles  # noqa: F401

__all__ = [
    "FlipData",
    "QuotientKind",
    "QuotientProfile",
    "WallChamber",
    "WallKind",
    "chamber_profile",
    "flip_data",
    "slice_weights",
    "wall_values",
    "walls",
]


class WallKind(Enum):
    WALL_ZERO = "WallZero"
    INTERIOR_WALL = "InteriorWall"
    WALL_N = "WallN"
    CHAMBER = "Chamber"

    # members are singletons, so they hash by identity: Enum's own __hash__
    # is a Python call, and cmd_walls keys its profiles by kind
    __hash__ = object.__hash__


# the members as module constants, which walls() and cli.cmd_walls read
# (see hilbert_mumford._STABLE)
_WALL_ZERO, _INTERIOR_WALL, _WALL_N, _CHAMBER = (
    WallKind.WALL_ZERO, WallKind.INTERIOR_WALL, WallKind.WALL_N, WallKind.CHAMBER)


class WallChamber(_Record):
    """A wall (value: int) or an open chamber (value: (lo, hi), ints)."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: WallKind, value: int | tuple[int, int]):
        self._set(kind, value)


class QuotientKind(Enum):
    GEOMETRIC_PROJECTIVE = "GeometricProjective"
    CLASSICAL_SL2_QUOTIENT = "ClassicalSL2Quotient"
    STABLE_UNION_POINT = "StableUnionPoint"
    SINGLE_POINT = "SinglePoint"
    EMPTY = "Empty"


class QuotientProfile(_Record):
    __slots__ = ("ss_equals_s", "quotient_kind", "dimension", "note")

    def __init__(self, ss_equals_s: bool, quotient_kind: QuotientKind,
                 dimension: int | None, note: str | None = None):
        self._set(ss_equals_s, quotient_kind, dimension, note)


class FlipData(_Record):
    __slots__ = ("s", "e_plus_weights", "e_minus_weights", "slice_weights")

    def __init__(self, s: int, e_plus_weights: tuple[int, ...],
                 e_minus_weights: tuple[int, ...], slice_weights: tuple[int, ...]):
        self._set(s, e_plus_weights, e_minus_weights, slice_weights)


def _wall_ints(n: int) -> list[int]:
    # every wall is an integer: walls() keeps them as ints
    _check_positive_degree(n)
    return [q for q in range(n + 1) if _is_wall(n, q)]


def wall_values(n: int) -> list[Fraction]:
    """Sorted wall slopes: 0, n, and interior q with n - q even."""
    Fraction = _fraction()
    return [Fraction(q) for q in _wall_ints(n)]


def walls(n: int) -> list[WallChamber]:
    """Walls and the open chambers interleaving them, ascending, with int
    bounds."""
    vals = _wall_ints(n)
    out: list[WallChamber] = []
    for i, v in enumerate(vals):
        if v == 0:
            kind = _WALL_ZERO
        elif v == n:
            kind = _WALL_N
        else:
            kind = _INTERIOR_WALL
        out.append(WallChamber(kind, v))
        if i + 1 < len(vals):
            out.append(WallChamber(_CHAMBER, (v, vals[i + 1])))
    return out


def chamber_profile(n: int, tau) -> QuotientProfile:
    """Symbolic description of the quotient at slope tau, in closed form.

    Empty when n + tau < 2: no configuration is semistable.  Otherwise
    tau = 0 gives the classical SL(2) quotient (dimension n - 3 for n >= 3),
    with stable = semistable iff n is odd, since only a root of multiplicity
    n/2 is strictly semistable; a chamber value gives a geometric projective
    quotient of dimension n - 2 (stable = semistable is automatic away from
    walls); an interior wall adds one strictly semistable S-equivalence class
    to the stable part; tau = n collapses everything to a single point.
    Off the end walls a stable configuration exists as soon as a semistable
    one does, so no census of profiles is needed.  An int tau is used as it
    is; any other is read by Fraction.
    """
    _check_positive_degree(n)
    if type(tau) is not int:
        tau = _fraction()(tau)
    if not 0 <= tau <= n:
        raise ValueError(f"tau={_value_text(tau)} outside [0, {_value_text(n)}]")
    if n + tau < 2:
        return QuotientProfile(True, QuotientKind.EMPTY, None)
    if tau == 0:
        return QuotientProfile(
            n % 2 == 1,
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
    if _is_wall(n, tau):
        return QuotientProfile(
            False,
            QuotientKind.STABLE_UNION_POINT,
            n - 2,
            "the stable quotient plus one extra point for the single "
            "strictly semistable S-equivalence class",
        )
    note = None
    if n == 3:
        note = "all chamber quotients in degree 3 are isomorphic to P^1"
    return QuotientProfile(True, QuotientKind.GEOMETRIC_PROJECTIVE, n - 2, note)


def slice_weights(n: int, s: int) -> tuple[int, ...]:
    """Torus weights -2s, -2s+2, ..., -2 on the flip slice (s terms)."""
    if not 1 <= s <= n - 1:
        raise ValueError(f"s={s} out of range for n={n}")
    return tuple(range(-2 * s, 0, 2))


def flip_data(n: int, tau) -> FlipData:
    """Exceptional loci of the flip across an interior wall.

    With s = (n - tau)/2 the downward side contracts a weighted projective
    space P(1, ..., n-s) and the upward side extracts P(1, ..., s); the
    normal slice to the center carries torus weights -2s, ..., -2.  Degree 3
    is refused: its two chamber quotients are already isomorphic and no flip
    occurs.
    """
    tau = _fraction()(tau)
    if n == 3:
        raise ValueError("degree 3 has no flip: both chamber quotients coincide")
    _check_positive_degree(n)  # before the wall test
    s = central_divisor(n, tau).mult_inf
    return FlipData(
        s,
        tuple(range(1, s + 1)),
        tuple(range(1, n - s + 1)),
        slice_weights(n, s),
    )
