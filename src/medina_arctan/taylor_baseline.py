"""The Taylor baseline: how slowly x - x^3/3 + x^5/5 - ... meets a target.

Near x = 1 the series' terms shrink only like 1/n.  This module measures that
slowness exactly: the least odd degree n whose partial sum T_n(x) meets eps,
judged either by the first omitted term x^(n+2)/(n+2) or by the certified
true error, and the least Medina index judged the same way, one row of the
comparison table apiece.  Everything is exact, and the searches run on
integers: with x = a/b, one walk yields each omitted term as the pair
(a^(n+2), (n+2) b^(n+2)), one multiplication by a^2 and one by b^2 a step,
and keeps each partial sum T_n(x) as a numerator over lcm(1, 3, ..., n) b^n,
forming the next term over the next such denominator, as the oracle's
series does.  Both stop at DEGREE_CUTOFF.  Bound mode cross-multiplies each
term with eps; a certified search decides each (numerator, denominator)
candidate against integer cuts of the oracle's enclosures, so no Fraction
is made per candidate.  A floor under the true error at the largest
degree, compared with eps through base-2 logarithms and exactly only at a
near tie, refuses up front a certified search that no degree could pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .medina import medina_h, medina_min_m_for
from .oracle import arctan_enclosure
from .poly_core import (
    RatLike,
    _brief,
    check_positive,
    poly_eval_horner,
    rat,
    rat_text,
)

DEGREE_CUTOFF = 10001

# Columns of one comparison row, in output order.
COMPARISON_COLUMNS = (
    "x",
    "eps",
    "taylor_min_degree",
    "medina_min_m",
    "medina_degree",
    "taylor_terms_evaluated",
)


class DegreeLimitError(RuntimeError):
    """A search gave up at its limit: the degree passed DEGREE_CUTOFF, or
    enclosure tightening could not separate a near tie from eps."""


def _check_unit_interval(x: RatLike) -> Fraction:
    x = rat(x)
    a, b = x.as_integer_ratio()
    if not 0 <= a <= b:
        raise ValueError(f"x must lie in [0, 1], got {_brief(x)}")
    return x


def _certifier(x: Fraction, eps: Fraction):
    """The test |arctan(x) - num/den| < eps for den > 0; one search makes one.

    Round i asks the oracle once for the enclosure [lo, hi] of arctan(x) at
    width eps / 2^(20 + 10 i), when a candidate first reaches that round, and
    keeps the cuts lo - eps, lo + eps, hi - eps and hi + eps as integer
    numerators over d times lo's and hi's denominators, eps = e/d, in a list
    indexed by round.  A value strictly between hi - eps and lo + eps is
    True; one at or past lo - eps or hi + eps is False, so a tie with eps is
    exactly "not below".  Any other value goes on to the next round, and one
    undecided at the last of 12 rounds raises DegreeLimitError.  Each
    comparison is one cross-multiplication.
    """
    e, d = eps.as_integer_ratio()
    rounds: list = []

    def cuts(i: int) -> tuple:
        if i == len(rounds):
            enc = arctan_enclosure(x, Fraction(e, d << 20 + 10 * i))
            lo, lo_den = enc.lo.as_integer_ratio()
            hi, hi_den = enc.hi.as_integer_ratio()
            lo, lo_eps, hi, hi_eps = lo * d, e * lo_den, hi * d, e * hi_den
            rounds.append((
                lo_den * d, lo - lo_eps, lo + lo_eps,
                hi_den * d, hi - hi_eps, hi + hi_eps,
            ))
        return rounds[i]

    def certified_below(num: int, den: int) -> bool:
        for i in range(12):
            lo_den, lo_minus, lo_plus, hi_den, hi_minus, hi_plus = cuts(i)
            at_lo, at_hi = num * lo_den, num * hi_den
            if hi_minus * den < at_hi and at_lo < lo_plus * den:
                return True
            if at_lo <= lo_minus * den or at_hi >= hi_plus * den:
                return False
        raise DegreeLimitError(
            f"could not separate the error at x={_brief(x)} "
            f"from eps={_brief(eps)} "
            "after repeated enclosure tightening"
        )

    return certified_below


def _first(what: str, x: Fraction, eps: Fraction, candidates, meets) -> int:
    """The first index whose value num/den passes meets(num, den); candidates
    are (index, num, den) and stop at DEGREE_CUTOFF."""
    for index, num, den in candidates:
        if meets(num, den):
            return index
    raise DegreeLimitError(
        f"no {what} up to {DEGREE_CUTOFF} meets eps={_brief(eps)} at x={_brief(x)}"
    )


def _omitted_terms(x: Fraction):
    """(n, a^(n+2), (n+2) b^(n+2)) for odd n up to DEGREE_CUTOFF, x = a/b: the
    omitted term x^(n+2)/(n+2) as a pair, one a^2 and one b^2 step apiece."""
    a, b = x.as_integer_ratio()
    asq, bsq = a * a, b * b
    power, scale = a * asq, b * bsq
    for n in range(1, DEGREE_CUTOFF + 1, 2):
        yield n, power, (n + 2) * scale
        power *= asq
        scale *= bsq


def _partial_sums(x: Fraction):
    """(n, num, den) with T_n(x) = num/den and den = lcm(1, 3, ..., n) b^n for
    odd n up to DEGREE_CUTOFF, x = a/b; each from the last and its omitted term."""
    a, b = x.as_integer_ratio()
    bsq = b * b
    num, den, lcm = a, b, 1
    for n, term, term_den in _omitted_terms(x):
        yield n, num, den
        odd = n + 2
        grow = odd // math.gcd(lcm, odd)
        lcm *= grow
        # Over the next denominator lcm b^(n+2) = term_den * lift.
        lift = lcm // odd
        num *= grow * bsq
        term *= lift
        num = num - term if n % 4 == 1 else num + term
        den = term_den * lift


def _floor_meets(x: Fraction, eps: Fraction, n: int) -> bool:
    """Whether x^k/(k(1+x^2)) < eps, with k = n+2, x = a/b and eps = e/d.

    Exactly, that is a^k d < e k b^n (a^2+b^2).  The two sides' base-2
    logarithms decide it first, with no power formed.  Each math.log2 of a
    positive integer here is 0, or at least 1 and off by at most 2^-50 of
    itself, so each side's sum is off by less than 2^-48 of itself, and
    when the sums differ by more than 2^-40 of their total, the smaller sum
    is the smaller side.  Only a nearer tie, or x = 0, is decided exactly.
    """
    e, d = eps.as_integer_ratio()
    a, b = x.as_integer_ratio()
    k = n + 2
    if a:
        left = k * math.log2(a) + math.log2(d)
        right = math.log2(e * k) + n * math.log2(b) + math.log2(a * a + b * b)
        if abs(left - right) > (left + right) * 2.0**-40:
            return left < right
    return _floor_meets_exactly(x, eps, n)


def _floor_meets_exactly(x: Fraction, eps: Fraction, n: int) -> bool:
    """_floor_meets on integers: a^k d < e k b^n (a^2+b^2).

    The floor rises with x, so an x with b > 2^64 is settled at its
    neighbours on the grid 2^-64 if they agree.
    """
    e, d = eps.as_integer_ratio()
    k = n + 2

    def meets(a: int, b: int) -> bool:
        return a**k * d < e * k * b**n * (a * a + b * b)

    a, b = x.as_integer_ratio()
    if b > 1 << 64:  # then lo < x < lo + 1, over 2^64
        lo = (a << 64) // b
        upper = meets(lo + 1, 1 << 64)
        if upper or not meets(lo, 1 << 64):
            return upper
    return meets(a, b)


def taylor_min_degree(x: RatLike, eps: RatLike, oracle_mode: bool = False) -> int:
    """Least odd n whose degree-n partial sum meets eps at x.

    With oracle_mode the test is the certified true error |T_n(x)-arctan x|;
    otherwise it is the remainder bound x^(n+2)/(n+2).  Either way the
    search walks n = 1, 3, 5, ... and raises DegreeLimitError past
    DEGREE_CUTOFF, which x = 1 with a small eps will hit: the bound decays
    like 1/n there.  Oracle mode first checks a floor under the true error
    at the largest degree, and when even that floor does not meet eps it
    offers the search no candidates, so it refuses at once with that error.
    """
    x = _check_unit_interval(x)
    eps = check_positive(eps, "eps")
    if oracle_mode:
        # |T_n(x) - arctan x| = int_0^x t^(n+1)/(1+t^2) dt >= x^(n+2)/((n+2)(1+x^2)),
        # which falls as n grows; at the largest odd n it must meet eps.
        n = DEGREE_CUTOFF if DEGREE_CUTOFF % 2 else DEGREE_CUTOFF - 1
        sums = _partial_sums(x) if _floor_meets(x, eps, n) else ()
        return _first("degree", x, eps, sums, _certifier(x, eps))
    e, d = eps.as_integer_ratio()
    terms = _omitted_terms(x)
    return _first("degree", x, eps, terms, lambda num, den: num * d < e * den)


def medina_min_m_observed(x: RatLike, eps: RatLike) -> int:
    """Least index m whose certified true error |h_m(x) - arctan(x)| is below eps.

    The oracle-mode counterpart of medina_min_m_for, so the comparison table
    can judge both families by the same criterion.  Capped at the index whose
    approximant degree 8m - 1 would pass DEGREE_CUTOFF.
    """
    x = _check_unit_interval(x)
    eps = check_positive(eps, "eps")
    indices = range(1, (DEGREE_CUTOFF + 1) // 8 + 1)
    values = (
        (m, *poly_eval_horner(medina_h(m), x).as_integer_ratio()) for m in indices
    )
    return _first("index with degree", x, eps, values, _certifier(x, eps))


def comparison_row(x: RatLike, eps: RatLike, oracle_mode: bool = True) -> dict:
    """One row of the degree-comparison table; keys are COMPARISON_COLUMNS.

    Both columns are judged the same way: certified true error when
    oracle_mode, guaranteed bounds otherwise.
    """
    x = _check_unit_interval(x)
    eps = rat(eps)
    n = taylor_min_degree(x, eps, oracle_mode)
    m = medina_min_m_observed(x, eps) if oracle_mode else medina_min_m_for(eps)
    return {
        "x": rat_text(x),
        "eps": rat_text(eps),
        "taylor_min_degree": n,
        "medina_min_m": m,
        "medina_degree": 8 * m - 1,
        "taylor_terms_evaluated": (n + 1) // 2,
    }
