"""Degree-n point configurations on the projective line and their stability.

A configuration (an effective divisor) is recorded purely by multiplicities:
the mass at the two torus-fixed points [1:0] and [0:1] plus the multiset of
masses at anonymous generic roots.  Stability under the Borel subgroup of
SL(2), under SL(2) itself, and under the unipotent translations depends only
on this data, which makes every census finite.

The Borel classification depends on the linearisation only through the slope
tau = r/m; all threshold comparisons like "mult < (n - tau)/2" are evaluated
in cleared-denominator integer form so walls are hit exactly.
"""

from __future__ import annotations

from enum import Enum
from operator import index

from .hilbert_mumford import Status, _status
from .polytope import _SHOWN_DIGITS, _Record, _fraction, _value_text


class Divisor(_Record):
    """n points on P^1 by multiplicity: mass at [1:0], at [0:1], and generic.

    Generic entries are the multiplicities of pairwise-distinct roots away
    from both special points; their positions are anonymized and the tuple is
    kept sorted descending so equal profiles compare equal.  Every field is
    read through operator.index: an int (or bool) is taken as an int, and a
    float, str or Fraction is refused with TypeError, never truncated.
    """

    __slots__ = ("n", "mult_inf", "mult_zero", "generic")

    def __init__(self, n: int, mult_inf: int, mult_zero: int, generic=()):
        object.__setattr__(self, "n", index(n))
        object.__setattr__(self, "mult_inf", index(mult_inf))
        object.__setattr__(self, "mult_zero", index(mult_zero))
        object.__setattr__(self, "generic", tuple(sorted(map(index, generic), reverse=True)))
        validate(self)

    def all_mults(self) -> tuple[int, ...]:
        """Multiplicities of all actual roots (positive masses only)."""
        out = [m for m in (self.mult_inf, self.mult_zero) if m > 0]
        out.extend(self.generic)
        return tuple(out)

    def max_mult(self) -> int:
        """The largest root multiplicity, max(all_mults()), read off the
        fields without building all_mults(): a validated Divisor has degree
        n >= 1 and masses >= 0 that sum to n, so some mass is positive, and
        the zero masses that all_mults() leaves out never raise the max."""
        return max(self.mult_inf, self.mult_zero, *self.generic)

    def __str__(self):
        roots = "+".join(str(g) for g in self.generic)
        return f"(n={self.n}, inf={self.mult_inf}, zero={self.mult_zero}, roots=[{roots}])"


def _check_positive_degree(n: int) -> None:
    # the one degree rule of every public entry that takes a degree
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")


def _refusal(what: str, value: int, d: Divisor) -> str:
    # "<what> in <repr(d)>" while every number of d has at most _SHOWN_DIGITS
    # digits and the repr fits in 200 characters; past that, the offending
    # value and the degree as polytope._value_text names them
    if all(abs(x) < 10**_SHOWN_DIGITS for x in (d.n, d.mult_inf, d.mult_zero, *d.generic)):
        text = repr(d)
        if len(text) <= 200:
            return f"{what} in {text}"
    return f"{what} {_value_text(value)} in a Divisor of degree {_value_text(d.n)}"


def validate(d: Divisor) -> Divisor:
    _check_positive_degree(d.n)
    if d.mult_inf < 0 or d.mult_zero < 0:
        raise ValueError(
            _refusal("negative special multiplicity", min(d.mult_inf, d.mult_zero), d))
    if any(g < 1 for g in d.generic):
        # generic is sorted descending: its last entry is the least
        raise ValueError(_refusal("nonpositive generic multiplicity", d.generic[-1], d))
    total = d.mult_inf + d.mult_zero + sum(d.generic)
    if total != d.n:
        raise ValueError(
            f"degree mismatch: multiplicities sum to {_value_text(total)}, "
            f"expected {_value_text(d.n)}"
        )
    return d


class LinParam(_Record):
    """Rational linearisation parameter: twist r over tensor power m > 0."""

    __slots__ = ("m", "r")

    def __init__(self, m: int, r: int):
        if m <= 0:
            raise ValueError(f"m must be a positive integer, got {m}")
        self._set(m, r)

    @property
    def tau(self) -> Fraction:
        return _fraction()(self.r, self.m)

    def __str__(self):
        return f"(m={self.m}, r={self.r})"


def classify_borel(d: Divisor, lin: LinParam) -> Status:
    """Status of d under the Borel subgroup at slope tau = r/m.

    tau outside [0, n]: nothing is semistable.  tau = 0: semistable iff no
    root has multiplicity > n/2, never stable.  0 < tau <= n: stable iff the
    [1:0] mass is < (n - tau)/2 and every other root mass is < (n + tau)/2;
    semistable with <=.  (At tau = n the stable condition is vacuously empty
    and semistability collapses to "no root at [1:0]".)
    """
    n, m, r = d.n, lin.m, lin.r
    if r < 0 or r > n * m:
        return Status.UNSTABLE
    if r == 0:
        return _status(False, 2 * d.max_mult() <= n)
    lo = n * m - r  # 2*mult*m vs m*(n - tau) cleared of denominators
    hi = n * m + r
    # every root mass off [1:0] is below (or at) its bound iff the largest is
    inf, other = 2 * d.mult_inf * m, 2 * max((d.mult_zero, *d.generic)) * m
    return _status(inf < lo and other < hi, inf <= lo and other <= hi)


def classify_sl2(d: Divisor) -> Status:
    """Classical SL(2) status: stable iff every multiplicity < n/2."""
    top = 2 * d.max_mult()
    return _status(top < d.n, top <= d.n)


def classify_unipotent(d: Divisor) -> Status:
    """Status under the unipotent translations alone.

    The stable set is where fewer than n/2 points coincide and the finitely
    generated semistable set is where at most n/2 coincide; the returned
    Status encodes that pair via .stable and .semistable.  These are the
    SL(2) thresholds, so the verdict is classify_sl2's.
    """
    return classify_sl2(d)


ZERO_SLOT = "zero"


def move_root_to_zero(d: Divisor, which) -> Divisor:
    """Apply the unipotent translation taking a chosen root to [0:1].

    `which` is an index into d.generic or the literal "zero" for the root
    already at [0:1].  The previous [0:1] mass and all other generic roots
    land at generic positions; only [1:0] is fixed by the translations, so
    moving the [1:0] slot is not a group move and is rejected.
    """
    if which == "inf":
        raise ValueError("the [1:0] slot is fixed by every translation")
    if which == ZERO_SLOT:
        return d
    if not isinstance(which, int) or not 0 <= which < len(d.generic):
        raise ValueError(f"no generic root at index {which!r}")
    chosen = d.generic[which]
    rest = list(d.generic[:which] + d.generic[which + 1 :])
    if d.mult_zero > 0:
        rest.append(d.mult_zero)
    return Divisor(d.n, d.mult_inf, chosen, tuple(rest))


class LimitDirection(Enum):
    TO_ZERO = "ToZero"
    TO_INF = "ToInf"


def torus_limit(d: Divisor, direction: LimitDirection) -> Divisor:
    """Limit configuration under the one-parameter torus.

    TO_ZERO merges all mass away from [1:0] into [0:1]; TO_INF merges all
    mass away from [0:1] into [1:0].
    """
    if direction is LimitDirection.TO_ZERO:
        return Divisor(d.n, d.mult_inf, d.n - d.mult_inf, ())
    if direction is LimitDirection.TO_INF:
        return Divisor(d.n, d.n - d.mult_zero, d.mult_zero, ())
    raise ValueError(f"unknown direction {direction!r}")


class MoveStep(_Record):
    __slots__ = ("op", "arg", "result")

    def __init__(self, op: str, arg, result: Divisor):
        self._set(op, arg, result)  # op: "move_root_to_zero" or "torus_limit"


def _is_wall(n: int, tau) -> bool:
    # the one wall rule, for an int or Fraction tau: 0, n, or an interior
    # integer q with n - q even
    return tau == 0 or tau == n or (tau.denominator == 1 and 0 < tau < n and (n - tau) % 2 == 0)


def central_divisor(n: int, tau: Fraction) -> Divisor:
    """The unique closed-orbit configuration at an interior wall."""
    if not (0 < tau < n and _is_wall(n, tau)):
        raise ValueError(f"tau={_value_text(tau)} is not an interior wall for n={n}")
    s = (n - int(tau)) // 2
    return Divisor(n, s, n - s, ())


def sequiv_witness(d: Divisor, lin: LinParam) -> list[MoveStep]:
    """Degeneration of a strictly semistable d to the central configuration.

    Requires tau to be an interior wall (0 < tau < n with n - tau even) and
    classify_borel(d, lin) strictly semistable.  Returns the explicit move
    sequence; every intermediate configuration stays semistable and the final
    one is ((n-tau)/2, (n+tau)/2, []).
    """
    tau = lin.tau
    central = central_divisor(d.n, tau)
    if classify_borel(d, lin) is not Status.STRICTLY_SEMISTABLE:
        raise ValueError(f"{d} is not strictly semistable at tau={tau}")
    s = central.mult_inf
    if d == central:
        return []
    steps: list[MoveStep] = []
    cur = d
    if cur.mult_inf == s:
        # mass at [1:0] already saturates its bound; flowing everything else
        # to [0:1] lands on the central configuration
        cur = torus_limit(cur, LimitDirection.TO_ZERO)
        steps.append(MoveStep("torus_limit", LimitDirection.TO_ZERO, cur))
        return steps
    # otherwise some other root saturates (n + tau)/2 = n - s: bring it to
    # [0:1], then flow the rest to [1:0]
    big = cur.n - s
    if cur.mult_zero != big:
        idx = cur.generic.index(big)
        cur = move_root_to_zero(cur, idx)
        steps.append(MoveStep("move_root_to_zero", idx, cur))
    cur = torus_limit(cur, LimitDirection.TO_INF)
    steps.append(MoveStep("torus_limit", LimitDirection.TO_INF, cur))
    return steps


def _partitions(total: int) -> list[tuple[int, ...]]:
    out = []
    _add_partitions(total, total, [], out)
    return out


def _add_partitions(remaining: int, cap: int, acc: list[int], out: list) -> None:
    # appends acc plus each partition of remaining into parts of at most cap,
    # parts descending, in reverse lexicographic order; a module function,
    # not a closure, which would refer to itself and leave a cycle for gc
    if remaining == 0:
        out.append(tuple(acc))
        return
    for part in range(min(remaining, cap), 0, -1):
        acc.append(part)
        _add_partitions(remaining - part, part, acc, out)
        acc.pop()


def _all_profiles(n: int) -> list[Divisor]:
    """Every multiplicity profile of degree n, duplicate-free."""
    _check_positive_degree(n)
    partitions = [_partitions(k) for k in range(n + 1)]
    # valid by construction (parts come sorted descending): no Divisor check
    return [
        object.__new__(Divisor)._set(n, a, b, parts)
        for a in range(n + 1)
        for b in range(n + 1 - a)
        for parts in partitions[n - a - b]
    ]
