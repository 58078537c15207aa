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
directions like -(1, 2N)), so OnePS stores a pair of AffineN values.  For
all-rational weight sets every witness direction reduces to a primitive
integer pair.

Status, the three-valued verdict every classifier in the package returns,
is defined here because this engine gives it its meaning: the origin
outside, on the boundary of, or interior to the weight polytope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from .polytope import (
    AffineN,
    DegreeOverflowError,
    OriginLocation,
    Weight2,
    WeightSet,
    _eventual_sign,
    contains_origin,
    weight2,
)


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
        return {
            Status.UNSTABLE: "Unstable",
            Status.STRICTLY_SEMISTABLE: "StrictlySemistable",
            Status.STABLE: "Stable",
        }[self]

    def __str__(self):
        return self.label


def _status(stable: bool, semistable: bool) -> Status:
    if stable:
        return Status.STABLE
    if semistable:
        return Status.STRICTLY_SEMISTABLE
    return Status.UNSTABLE


@dataclass(frozen=True, slots=True)
class TorusAction:
    """One rank-2 character per coordinate of the ambient space, 0-indexed."""

    coord_weights: tuple[Weight2, ...]

    def __init__(self, coord_weights):
        pts = tuple(
            w if isinstance(w, Weight2) else weight2(w[0], w[1])
            for w in coord_weights
        )
        if not pts:
            raise ValueError("TorusAction needs at least one coordinate")
        object.__setattr__(self, "coord_weights", pts)


@dataclass(frozen=True, slots=True)
class PointSupport:
    """The set of coordinates where a point is nonzero."""

    indices: frozenset[int]

    def __init__(self, indices):
        idx = frozenset(int(i) for i in indices)
        if not idx:
            raise ValueError("PointSupport must be nonempty")
        object.__setattr__(self, "indices", idx)


def _content(values: list[Fraction]) -> Fraction:
    """Positive rational g with values/g integral of gcd 1."""
    return Fraction(
        math.gcd(*(v.numerator for v in values)),
        math.lcm(*(v.denominator for v in values)),
    )


@dataclass(frozen=True, slots=True)
class OnePS:
    """A primitive probing direction for the mu-criterion.

    Stored with integer AffineN coefficients of overall gcd 1; constant
    directions are exactly the primitive integer pairs.
    """

    direction: tuple[AffineN, AffineN]

    def __init__(self, direction):
        dx = AffineN.of(direction[0])
        dy = AffineN.of(direction[1])
        if dx.is_zero() and dy.is_zero():
            raise ValueError("OnePS direction must be nonzero")
        g = _content([dx.n_coeff, dx.const, dy.n_coeff, dy.const])
        inv = Fraction(1) / g
        object.__setattr__(
            self, "direction", (dx * inv, dy * inv)
        )

    @staticmethod
    def of(dx, dy) -> "OnePS":
        return OnePS((dx, dy))

    def as_int_pair(self) -> tuple[int, int]:
        dx, dy = self.direction
        if dx.n_coeff != 0 or dy.n_coeff != 0:
            raise ValueError(f"{self} is not a constant direction")
        return (int(dx.const), int(dy.const))

    def _key(self):
        dx, dy = self.direction
        return (dx.n_coeff, dx.const, dy.n_coeff, dy.const)

    def __str__(self):
        return f"({self.direction[0]}, {self.direction[1]})"


def weight_polytope(action: TorusAction, support: PointSupport) -> WeightSet:
    """The characters carried by the supporting coordinates (hull = Delta_x)."""
    n = len(action.coord_weights)
    bad = [i for i in support.indices if not 0 <= i < n]
    if bad:
        raise IndexError(f"support indices {sorted(bad)} out of range for {n} coordinates")
    return WeightSet(action.coord_weights[i] for i in sorted(support.indices))


def _pairing(w: Weight2, lam: OnePS) -> tuple:
    # (c2, c1, c0) of <w, lam> = c2*N^2 + c1*N + c0
    dx, dy = lam.direction
    return (
        w.x.n_coeff * dx.n_coeff + w.y.n_coeff * dy.n_coeff,
        w.x.n_coeff * dx.const + w.x.const * dx.n_coeff
        + w.y.n_coeff * dy.const + w.y.const * dy.n_coeff,
        w.x.const * dx.const + w.y.const * dy.const,
    )


def _max_pairing(action: TorusAction, support: PointSupport, lam: OnePS) -> tuple:
    # lexicographic max of the coefficient triples is the large-N max
    return max(_pairing(w, lam) for w in weight_polytope(action, support))


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


def _perp(w: Weight2) -> tuple:
    return (-w.y, w.x)


def witness_lambdas(S: WeightSet) -> list[OnePS]:
    """A finite direction set certifying the mu-criterion for hull(S).

    mu >= 0 on all of it iff 0 is in the hull; mu > 0 on all of it iff 0 is
    interior.  Consists of every point, its perpendicular, and the
    perpendiculars of pairwise differences, in both signs; the coordinate
    axes cover the degenerate case where every point is the origin.
    """
    pts = S.distinct()
    if not pts:
        raise ValueError("witness_lambdas: empty weight set")
    raw: list[tuple] = []
    for p in pts:
        if p.x.is_zero() and p.y.is_zero():
            continue
        raw.append((p.x, p.y))
        raw.append(_perp(p))
    for p, q in itertools.combinations(pts, 2):
        diff = Weight2(p.x - q.x, p.y - q.y)
        if diff.x.is_zero() and diff.y.is_zero():
            continue
        raw.append(_perp(diff))
    if not raw:
        raw = [(AffineN.of(1), AffineN.of(0)), (AffineN.of(0), AffineN.of(1))]
    out = {}
    for dx, dy in raw:
        for lam in (OnePS.of(dx, dy), OnePS.of(-dx, -dy)):
            out.setdefault(lam._key(), lam)
    return [out[k] for k in sorted(out)]


def witness_status(action: TorusAction, support: PointSupport) -> Status:
    """Torus status recomputed purely through the mu-criterion witnesses."""
    worst = min(
        mu_sign(action, support, lam)
        for lam in witness_lambdas(weight_polytope(action, support))
    )
    return _status(worst > 0, worst >= 0)
