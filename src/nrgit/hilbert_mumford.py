"""Torus (semi)stability on a projective space via weight polytopes and mu.

A rank-2 torus acts on the ambient linear space with one character per
coordinate.  A point is described by its coordinate support; its weight
polytope is the hull of the supporting characters, and the point is
semistable iff that hull contains the origin, stable iff it contains it in
the interior.  The one-parameter-subgroup formulation quantifies the pairing
mu over all primitive directions; witness_lambdas produces the finite set of
directions (points, perpendiculars of points and of pairwise differences)
that certifies both quantifiers in rank 2.

Directions may carry an N-part: symbolic weight sets can require separating
lines whose slope grows with N (e.g. {(N, 0), (-N, 1)} is separated only by
directions like -(1, 2N)), so OnePS stores a pair of AffineN values, with
int coefficients of gcd 1 (_primitive).  witness_lambdas builds directions on
the hull kernel's integer rows and mu pairs rows with polytope._dot, so a
Fraction appears only where a caller passes Fraction weights in.

Status, the three-valued verdict every classifier in the package returns,
is defined here because this engine gives it its meaning: the origin
outside, on the boundary of, or interior to the weight polytope.
"""

from __future__ import annotations

import itertools
import math
from enum import IntEnum
from operator import index

from .polytope import (
    AffineN,
    DegreeOverflowError,
    OriginLocation,
    Weight2,
    WeightSet,
    _Record,
    _dot,
    _eventual_sign,
    _integer_weights,
    _row,
    contains_origin,
    weight2,
)


_LABELS = ("Unstable", "StrictlySemistable", "Stable")  # indexed by Status


class Status(IntEnum):
    """Stability class, ordered worst to best so worst-case = min."""

    UNSTABLE = 0
    STRICTLY_SEMISTABLE = 1
    STABLE = 2

    @property
    def semistable(self) -> bool:
        return self >= Status.STRICTLY_SEMISTABLE

    @property
    def stable(self) -> bool:
        return self is Status.STABLE

    @property
    def label(self) -> str:
        return _LABELS[self]

    def __str__(self):
        return self.label


def _status(stable: bool, semistable: bool) -> Status:
    if stable:
        return Status.STABLE
    if semistable:
        return Status.STRICTLY_SEMISTABLE
    return Status.UNSTABLE


class TorusAction(_Record):
    """One rank-2 character per coordinate of the ambient space, 0-indexed."""

    __slots__ = ("coord_weights",)

    def __init__(self, coord_weights):
        pts = tuple(
            w if isinstance(w, Weight2) else weight2(w[0], w[1])
            for w in coord_weights
        )
        if not pts:
            raise ValueError("TorusAction needs at least one coordinate")
        object.__setattr__(self, "coord_weights", pts)


class PointSupport(_Record):
    """The set of coordinates where a point is nonzero."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        idx = frozenset(map(index, indices))
        if not idx:
            raise ValueError("PointSupport must be nonempty")
        object.__setattr__(self, "indices", idx)


def _primitive(row: tuple) -> tuple[int, int, int, int]:
    # the integer row divided by its gcd: the one normal form of a direction
    g = math.gcd(*row)
    if g == 0:
        raise ValueError("OnePS direction must be nonzero")
    return tuple(c // g for c in row)


class OnePS(_Record):
    """A primitive probing direction for the mu-criterion.

    Stored as the positive multiple of the given direction whose int
    coefficients have gcd 1 (an AffineN pair); constant directions are
    exactly the primitive integer pairs.
    """

    __slots__ = ("direction",)

    def __init__(self, direction):
        (row,) = _integer_weights([weight2(direction[0], direction[1])])
        ax, bx, ay, by = _primitive(row)
        object.__setattr__(self, "direction", (AffineN(ax, bx), AffineN(ay, by)))

    @staticmethod
    def of(dx, dy) -> "OnePS":
        return OnePS((dx, dy))

    def as_int_pair(self) -> tuple[int, int]:
        dx, dy = self.direction
        if dx.n_coeff != 0 or dy.n_coeff != 0:
            raise ValueError(f"{self} is not a constant direction")
        return (dx.const, dy.const)

    def _key(self) -> tuple[int, int, int, int]:
        dx, dy = self.direction
        return (dx.n_coeff, dx.const, dy.n_coeff, dy.const)

    def __str__(self):
        return f"({self.direction[0]}, {self.direction[1]})"


def weight_polytope(action: TorusAction, support: PointSupport) -> WeightSet:
    """The characters carried by the supporting coordinates (hull = Delta_x)."""
    return WeightSet(_supported(action, support))


def _supported(action: TorusAction, support: PointSupport) -> list[Weight2]:
    n = len(action.coord_weights)
    bad = [i for i in support.indices if not 0 <= i < n]
    if bad:
        raise IndexError(f"support indices {sorted(bad)} out of range for {n} coordinates")
    return [action.coord_weights[i] for i in sorted(support.indices)]


def _max_pairing(action: TorusAction, support: PointSupport, lam: OnePS) -> tuple:
    # lexicographic max of the coefficient triples is the large-N max
    key = lam._key()
    return max(_dot(_row(w), key) for w in _supported(action, support))


def mu(action: TorusAction, support: PointSupport, lam: OnePS) -> AffineN:
    """Max pairing <weight, lam> over the support.

    The max is taken in the lexicographic order of the pairings' (N^2, N, 1)
    coefficients, which is their order for all sufficiently large N.
    Convention: semistable iff mu >= 0 for every one-parameter subgroup.
    For an N-linear direction against N-linear weights the maximum can be
    quadratic in N and no longer lives in the AffineN domain; use mu_sign for
    the criterion in that regime.
    """
    c2, c1, c0 = _max_pairing(action, support, lam)
    if c2 != 0:
        raise DegreeOverflowError(f"max pairing {c2}N^2 + {c1}N + {c0} is quadratic in N")
    return AffineN(c1, c0)


def mu_sign(action: TorusAction, support: PointSupport, lam: OnePS) -> int:
    """Eventual sign of the max pairing, defined for every direction."""
    return _eventual_sign(*_max_pairing(action, support, lam))


_LOCATION_TO_STATUS = {
    OriginLocation.OUTSIDE: Status.UNSTABLE,
    OriginLocation.BOUNDARY: Status.STRICTLY_SEMISTABLE,
    OriginLocation.INTERIOR: Status.STABLE,
}


def torus_status(action: TorusAction, support: PointSupport) -> Status:
    """Stable iff 0 interior to the weight polytope, semistable iff 0 in it."""
    return _LOCATION_TO_STATUS[contains_origin(weight_polytope(action, support))]


def _perp(row: tuple) -> tuple:
    ax, bx, ay, by = row
    return (-ay, -by, ax, bx)


def witness_lambdas(S: WeightSet) -> list[OnePS]:
    """A finite direction set certifying the mu-criterion for hull(S).

    mu >= 0 on all of it iff 0 is in the hull; mu > 0 on all of it iff 0 is
    interior.  Consists of every point, its perpendicular, and the
    perpendiculars of pairwise differences, in both signs; the coordinate
    axes cover the degenerate case where every point is the origin.  Built
    on the integer rows of S, since a positive scaling moves no direction.
    """
    if not S.points:
        raise ValueError("witness_lambdas: empty weight set")
    rows = set(_integer_weights(S.points))
    raw = []
    for p in rows:
        if any(p):
            raw += [p, _perp(p)]
    for p, q in itertools.combinations(rows, 2):
        raw.append(_perp(tuple(a - b for a, b in zip(p, q))))
    if not raw:
        raw = [(0, 1, 0, 0), (0, 0, 0, 1)]
    keys = set()
    for row in raw:
        key = _primitive(row)
        keys.update((key, tuple(-c for c in key)))
    # the keys are primitive already, so OnePS's normalisation is skipped
    return [
        object.__new__(OnePS)._set((AffineN(ax, bx), AffineN(ay, by)))
        for ax, bx, ay, by in sorted(keys)
    ]


def witness_status(action: TorusAction, support: PointSupport) -> Status:
    """Torus status recomputed purely through the mu-criterion witnesses."""
    worst = min(
        mu_sign(action, support, lam)
        for lam in witness_lambdas(weight_polytope(action, support))
    )
    return _status(worst > 0, worst >= 0)
