"""The Taylor baseline: how slowly x - x^3/3 + x^5/5 - ... meets a target.

Near x = 1 the series' terms shrink only like 1/n.  This module measures that
slowness exactly: the least odd degree n whose partial sum T_n(x) meets eps,
judged either by the first omitted term x^(n+2)/(n+2) or by the certified
true error, and the least Medina index judged the same way, one row of the
comparison table apiece.  The partial sums and omitted terms are internal
lazy sources, one multiplication by x^2 a step, that stop at DEGREE_CUTOFF,
and the searches share one walk over them; one exact check of a floor under
the true error at the largest degree refuses up front a certified search
that no degree could pass.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .medina import medina_h, medina_min_m_for
from .oracle import arctan_enclosure
from .poly_core import (
    RatLike,
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
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {rat_text(x)}")
    return x


def _certifier(x: Fraction, eps: Fraction):
    """The test |arctan(x) - value| < eps; one search makes one, with one memo.

    cuts(width) holds hi - eps, lo + eps, lo - eps and hi + eps for the
    enclosure [lo, hi] of arctan(x) at that width.  A value strictly between
    the first two is True; one at or past either of the last two is False, so
    a tie with eps is exactly "not below".  Any other value is tried at a width
    2^10 times narrower, and one undecided at the last of 12 widths raises
    DegreeLimitError.
    """

    @cache
    def cuts(width: Fraction) -> tuple:
        enc = arctan_enclosure(x, width)
        return enc.hi - eps, enc.lo + eps, enc.lo - eps, enc.hi + eps

    def certified_below(value: Fraction) -> bool:
        width = eps / 2**20
        for _ in range(12):
            inner_lo, inner_hi, outer_lo, outer_hi = cuts(width)
            if inner_lo < value < inner_hi:
                return True
            if value <= outer_lo or value >= outer_hi:
                return False
            width /= 2**10
        raise DegreeLimitError(
            f"could not separate the error at x={rat_text(x)} "
            f"from eps={rat_text(eps)} "
            "after repeated enclosure tightening"
        )

    return certified_below


def _first(what: str, x: Fraction, eps: Fraction, candidates, meets) -> int:
    """The first index whose value passes meets; candidates stop at DEGREE_CUTOFF."""
    for index, value in candidates:
        if meets(value):
            return index
    raise DegreeLimitError(
        f"no {what} up to {DEGREE_CUTOFF} meets eps={rat_text(eps)} at x={rat_text(x)}"
    )


def _omitted_terms(x: Fraction):
    """(n, x^(n+2)/(n+2)) for odd n up to DEGREE_CUTOFF, one x^2 step apiece."""
    xsq = x * x
    power = x * xsq
    for n in range(1, DEGREE_CUTOFF + 1, 2):
        yield n, power / (n + 2)
        power *= xsq


def _partial_sums(x: Fraction):
    """(n, T_n(x)) for odd n up to DEGREE_CUTOFF, each from the last omitted term."""
    partial = x
    for n, term in _omitted_terms(x):
        yield n, partial
        partial = partial - term if n % 4 == 1 else partial + term


def _floor_meets(x: Fraction, eps: Fraction, n: int) -> bool:
    """Whether x^k/(k(1+x^2)) < eps, with k = n+2, x = a/b and eps = e/d.

    Exactly, that is a^k d < e k b^n (a^2+b^2).  The floor rises with x, so an x
    with b > 2^64 is settled at its neighbours on the grid 2^-64 if they agree.
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
    return _first("degree", x, eps, _omitted_terms(x), lambda bound: bound < eps)


def medina_min_m_observed(x: RatLike, eps: RatLike) -> int:
    """Least index m whose certified true error |h_m(x) - arctan(x)| is below eps.

    The oracle-mode counterpart of medina_min_m_for, so the comparison table
    can judge both families by the same criterion.  Capped at the index whose
    approximant degree 8m - 1 would pass DEGREE_CUTOFF.
    """
    x = _check_unit_interval(x)
    eps = check_positive(eps, "eps")
    indices = range(1, (DEGREE_CUTOFF + 1) // 8 + 1)
    values = ((m, poly_eval_horner(medina_h(m), x)) for m in indices)
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
