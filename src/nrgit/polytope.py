"""Exact arithmetic over the "sufficiently large N" domain and 2-D hull predicates.

Every stability question in this package reduces to: does the origin lie in
(the interior of) the convex hull of a small set of points whose coordinates
are a*N + b with rational a, b and N a formal parameter meant to be taken
arbitrarily large?  AffineN realizes that scalar domain; ints stay ints, and
a Fraction appears only where a caller passes one in.  Every value the
package compares, an AffineN or a product of two, is a polynomial in N of
degree at most two, and it is ordered by its sign for all sufficiently large
N.  _eventual_sign reads that sign off the coefficients; the hull kernel
reads it at one value N = B certified to lie past every real root of the
polynomials it consults (_locate).  All predicates are decided exactly over
this ordered domain; no floating point is used anywhere.

A weight is read as its row (a_x, b_x, a_y, b_y) of coefficients (_row), and
_dot is the one large-N dot product of two rows.  contains_origin scales its
rows once by the LCM of their denominators (a positive dilation leaves the
origin's location unchanged) and hands the plain integers to _locate.
_locate_sorted, the one hull body, builds the monotone-chain hull of sorted
distinct points and reads the verdict off the signs of its edges in one
pass.  _locate_points reads rows at a given N and hands their points to it:
_locate gives it the certified N = B, the concrete path
(envelope.concrete_torus_case_status) the N being studied.  The census engine check
(envelope._engine_table) reads every fixed row once, at the certified N of
all of them, and hands each polytope class's points off that grid to the
body.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import total_ordering


def _fraction():
    """fractions.Fraction, imported on first use: the module pulls in re,
    decimal and numbers, and most commands build no Fraction.  Annotations
    stay text under `from __future__ import annotations`, so they name
    Fraction without importing it."""
    from fractions import Fraction

    return Fraction


class DegreeOverflowError(ArithmeticError):
    """Product would leave the degree-one domain a*N + b."""


def _exact(value) -> int | Fraction:
    # ints (bool included) become plain ints, Fractions stay, floats are refused
    if isinstance(value, int):
        return int(value)
    if isinstance(value, _fraction()):
        return value
    raise TypeError(f"expected an exact rational, got {value!r}")


def _eventual_sign(c2: int | Fraction, c1: int | Fraction, c0: int | Fraction) -> int:
    # sign of c2*N^2 + c1*N + c0 for all large N: the leading nonzero
    # coefficient decides, so the large-N order of two such values is the
    # lexicographic order of their (c2, c1, c0) triples
    c = c2 or c1 or c0
    return (c > 0) - (c < 0)


class _Record:
    """Base of the immutable record types: equality (with the same class
    only), hash and repr over the fields named in __slots__, as a frozen
    dataclass gives them.  Assignment and deletion raise AttributeError."""

    __slots__ = ()

    def _set(self, *values):
        # the fields in __slots__ order, for __init__ or for values known
        # valid, set on object.__new__(cls) without __init__'s checks
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class AffineN(_Record):
    """A value a*N + b, ordered by its sign for all sufficiently large N.

    The order is lexicographic on (n_coeff, const); total_ordering derives
    <=, > and >= from < and ==.  Closed under addition, subtraction and
    rational scaling; multiplying two values that both carry an N-part
    raises DegreeOverflowError.
    """

    __slots__ = ("n_coeff", "const")

    def __init__(self, n_coeff: int | Fraction = 0, const: int | Fraction = 0):
        object.__setattr__(self, "n_coeff", _exact(n_coeff))
        object.__setattr__(self, "const", _exact(const))

    @staticmethod
    def of(value: "AffineN | int | Fraction") -> "AffineN":
        if isinstance(value, AffineN):
            return value
        return AffineN(0, value)

    def _key(self):
        return (self.n_coeff, self.const)

    def __add__(self, other) -> "AffineN":
        other = AffineN.of(other)
        return AffineN(self.n_coeff + other.n_coeff, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffineN":
        return AffineN(-self.n_coeff, -self.const)

    def __sub__(self, other) -> "AffineN":
        return self + (-AffineN.of(other))

    def __rsub__(self, other) -> "AffineN":
        return AffineN.of(other) - self

    def __mul__(self, other) -> "AffineN":
        other = AffineN.of(other)
        if self.n_coeff != 0 and other.n_coeff != 0:
            raise DegreeOverflowError(
                f"({self}) * ({other}) leaves the a*N + b domain"
            )
        return AffineN(
            self.n_coeff * other.const + other.n_coeff * self.const,
            self.const * other.const,
        )

    __rmul__ = __mul__

    def __lt__(self, other):
        return self._key() < AffineN.of(other)._key()

    def __eq__(self, other):
        if not isinstance(other, (AffineN, int)) and not isinstance(other, _fraction()):
            return NotImplemented
        return self._key() == AffineN.of(other)._key()

    def __hash__(self):
        # equal to a plain int or Fraction when it carries no N, so it
        # must hash as one
        return hash(self.const) if self.n_coeff == 0 else hash(self._key())

    def is_zero(self) -> bool:
        return self.n_coeff == 0 and self.const == 0

    def sign(self) -> int:
        """Sign for all sufficiently large N."""
        return _eventual_sign(0, self.n_coeff, self.const)

    def eval_at(self, n_value: int | Fraction) -> int | Fraction:
        """Evaluate at a concrete N > 0: an int when the coefficients and
        n_value are ints, a Fraction as soon as one of them is."""
        n_value = _exact(n_value)
        if n_value <= 0:
            raise ValueError(f"n_value must be positive, got {n_value}")
        return self.n_coeff * n_value + self.const

    def __str__(self):
        return _affine_text(self.n_coeff, self.const)

    def __repr__(self):
        return f"AffineN({self.n_coeff!r}, {self.const!r})"


def _affine_text(n_coeff: int | Fraction, const: int | Fraction) -> str:
    # how AffineN(n_coeff, const) prints: "3", "N", "-N+2", "2N-1/2"
    if n_coeff == 0:
        return _int_text(const)
    head = "N" if n_coeff == 1 else "-N" if n_coeff == -1 else f"{n_coeff}N"
    return f"{head}{'+' if const > 0 else '-'}{_int_text(abs(const))}" if const else head


def _int_text(value: int) -> str:
    # str(value), also past the digits str() writes (4300 unless changed,
    # and never under 640): a weight or threshold multiplies numbers read
    # at that limit
    try:
        return f"{value}"
    except ValueError:
        high, low = divmod(abs(value), 10**600)
        return f"{'-' if value < 0 else ''}{_int_text(high)}{low:0600d}"


# How a message names what the user gave: a number by _value_text, text by
# _user_text.  Each keeps the bytes of a short one and bounds a long one.
_SHOWN_DIGITS = 50
_SHOWN_CHARS = 100


def _user_text(text: str, show=repr) -> str:
    # show(text) while text has at most _SHOWN_CHARS characters, its repr at
    # most two per character and the quotes, as any printable text has, and
    # show(text) at most as many bytes of UTF-8, as stderr writes it (a
    # four-byte character counts four times); else show(head) for the
    # longest head of text of at most 20 characters whose repr is at most
    # 42 long, and the length of text, as
    # "'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"
    bound = 2 * _SHOWN_CHARS + 2
    if len(text) <= _SHOWN_CHARS and len(repr(text)) <= bound:
        shown = show(text)
        if len(shown.encode("utf-8", "backslashreplace")) <= bound:
            return shown
    head = text[:20]
    while len(repr(head)) > 42:
        head = head[:-1]
    return f"{show(head)}... ({len(text)} characters)"


def _value_text(value: int | Fraction) -> str:
    # how an error message names a rational: str(value) while numerator and
    # denominator have at most _SHOWN_DIGITS digits each, else its first 6
    # digits, as "about 1.00000e+5000"; str() of an int past 4300 digits raises
    num, den = abs(value.numerator), value.denominator
    if num < 10**_SHOWN_DIGITS and den < 10**_SHOWN_DIGITS:
        return str(value)
    e = int(math.log10(num) - math.log10(den)) - 5  # within one of the exponent
    while True:
        q = num * 10**-e // den if e < 0 else num // (den * 10**e)
        if 10**5 <= q < 10**6:
            break
        e += 1 if q >= 10**6 else -1
    digits = f"{q}"
    return f"about {'-' if value < 0 else ''}{digits[0]}.{digits[1:]}e{e + 5:+d}"


ZERO = AffineN(0, 0)
N = AffineN(1, 0)


def cmp(a: AffineN, b: AffineN) -> int:
    """-1, 0, or +1: the eventual order of a vs b for large N."""
    return (a - b).sign()


Weight2 = namedtuple("Weight2", "x y")
Weight2.__doc__ = "A character of the rank-2 torus, with AffineN components."


def weight2(x, y) -> Weight2:
    return Weight2(AffineN.of(x), AffineN.of(y))


class WeightSet(_Record):
    """A finite multiset of Weight2; duplicates are irrelevant to hull tests."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable):
        pts = tuple(
            p if isinstance(p, Weight2) else weight2(p[0], p[1]) for p in points
        )
        object.__setattr__(self, "points", pts)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def distinct(self) -> tuple[Weight2, ...]:
        seen = {}
        for p in self.points:
            seen.setdefault(_row(p), p)
        return tuple(seen.values())


class OriginLocation(Enum):
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"
    INTERIOR = "Interior"

    # members are singletons, so they hash by identity: Enum's own __hash__
    # is a Python call, and the engine table looks every class's location up
    __hash__ = object.__hash__


def _dot(p: tuple, q: tuple) -> tuple:
    # (c2, c1, c0) of the dot product of two rows, c2*N^2 + c1*N + c0
    px1, px0, py1, py0 = p
    qx1, qx0, qy1, qy0 = q
    return (
        px1 * qx1 + py1 * qy1,
        px1 * qx0 + px0 * qx1 + py1 * qy0 + py0 * qy1,
        px0 * qx0 + py0 * qy0,
    )


def _row(w: Weight2) -> tuple:
    # the coefficients (a_x, b_x, a_y, b_y) of w = (a_x*N + b_x, a_y*N + b_y)
    return (w.x.n_coeff, w.x.const, w.y.n_coeff, w.y.const)


def _integer_weights(points: tuple[Weight2, ...]) -> list[tuple[int, int, int, int]]:
    # Scale by the LCM of every denominator: a positive dilation never moves
    # the origin across the hull boundary.
    rows = [_row(p) for p in points]
    if all(type(c) is int for row in rows for c in row):
        return rows  # every denominator is 1
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    return [
        tuple(c.numerator * (scale // c.denominator) for c in row)
        for row in rows
    ]


def contains_origin(S: WeightSet) -> OriginLocation:
    """Locate the origin relative to conv(S), exactly, in the large-N regime.

    INTERIOR means the topological interior inside the ambient plane, so
    lower-dimensional hulls (segments, points) are at best BOUNDARY.

    The weights are scaled to integers for _locate, which reads the rows at
    its certified N = B (_locate_points) and hands their points to
    _locate_sorted, the one hull body.  envelope.concrete_torus_case_status
    reaches the body with a class's rows and a concrete N; the census
    engine check (envelope._engine_table) with each polytope class's
    points, read off one grid of all the fixed rows at an N no smaller than
    the class's own certified N.  The body builds the ccw hull of the points once, and one
    pass over its edges decides: outside if the origin is strictly right of
    an edge, boundary if on an edge's line, else interior.
    """
    if not S.points:
        raise ValueError("contains_origin: empty weight set")
    return _locate(_integer_weights(S.points))


def _certified_n(rows: list[tuple]) -> int:
    # the N = B at which _locate reads its rows; the proof is in _locate
    return 24 * max([abs(c) for row in rows for c in row]) ** 2 + 1


def _locate(rows: list[tuple]) -> OriginLocation:
    """contains_origin on nonempty integer rows (a_x, b_x, a_y, b_y), for
    every large N, decided at the one value N = B = 24*M^2 + 1 (_certified_n),
    where M is the largest |entry| of the rows.

    Why B decides as every larger N does: at N = B the rows become the
    points (a_x*B + b_x, a_y*B + b_y), and the hull body reads nothing of
    them but their order, their equality with each other and with the
    origin, and signs of cross products (p - o) x (q - o) and of one dot
    product p . q, among the points and the origin.
    - Order and equality.  Two rows differ in x by d1*N + d0 with integers
      |d0| <= 2M < B, so d1*B + d0 has the sign of d1 when d1 != 0, else of
      d0, and likewise in y.  The points at B are distinct exactly when the
      rows are, sort in the rows' large-N order (the lexicographic order of
      the rows), and a point is the origin exactly when its row is zero.
    - Signs.  For rows, each such cross or dot product is an integer
      c2*N^2 + c1*N + c0.  The differences of rows have entries of at most
      2M, so |c2|, |c0| <= 8M^2 and |c1| <= 16M^2.  When c2 != 0, so
      |c2| >= 1, Cauchy's bound puts every real root below 1 + 16M^2 <= B;
      when c2 = 0 != c1, the root is -c0/c1, of size at most 8M^2 < B; a
      constant has none.  So the sign at B is the sign at every N >= B: the
      eventual sign that _eventual_sign reads off (c2, c1, c0).
    The body therefore takes the same steps at N = B as at any larger N.
    """
    return _locate_points(rows, _certified_n(rows))


def _chain(points: Iterable[tuple]) -> list[tuple]:
    # half of Andrew's monotone chain over distinct points in sorted order
    # or its reverse: each point pops the last vertex while the two do not
    # make a strict left turn
    out = []
    for p in points:
        px, py = p
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (py - oy) > (ay - oy) * (px - ox):
                break
            out.pop()
        out.append(p)
    return out


def _locate_points(rows: list[tuple], n_value: int | Fraction) -> OriginLocation:
    # nonempty rows read at N = n_value > 0 (Fractions when n_value is one),
    # as the sorted distinct points the hull body takes
    pts = sorted({(ax * n_value + bx, ay * n_value + by) for ax, bx, ay, by in rows})
    return _locate_sorted(pts)


def _locate_sorted(pts: list[tuple]) -> OriginLocation:
    # the one hull body: the origin against the hull of nonempty, sorted,
    # distinct points; collinear points are dropped, so three or more hull
    # vertices form a strictly convex ccw polygon
    if len(pts) > 2:
        # the lower chain, then the upper one read back from the last point;
        # each drops its last vertex, the other chain's first
        hull = _chain(pts)
        hull.pop()
        hull += _chain(reversed(pts))
        hull.pop()
        pts = hull
    if len(pts) == 1:
        return OriginLocation.BOUNDARY if pts[0] == (0, 0) else OriginLocation.OUTSIDE
    if len(pts) == 2:
        (ax, ay), (bx, by) = pts
        # on the segment: collinear with both ends, which point apart
        if ax * by == ay * bx and ax * bx + ay * by <= 0:
            return OriginLocation.BOUNDARY
        return OriginLocation.OUTSIDE
    # outside if the origin is strictly right of an edge, boundary if on an
    # edge's line, else interior
    location = OriginLocation.INTERIOR
    ax, ay = pts[-1]
    for bx, by in pts:
        side = ax * by - ay * bx
        if side < 0:
            return OriginLocation.OUTSIDE
        if side == 0:
            location = OriginLocation.BOUNDARY
        ax, ay = bx, by
    return location
