"""Arctangent over the whole real line with exact error budgets.

Any rational argument is folded into [0, 1] through two exact identities,
arctan(-x) = -arctan(x) and arctan(x) = pi/2 - arctan(1/x), and the fold is
recorded step by step so every result carries its own derivation.  On the
reduced argument the value comes from the approximant h_m.  pi is not a
baked-in constant: it is bootstrapped from the same family as 4 * h_M(1),
and at x = 1 Horner's integer is the sum of h_M's numerators.
Every result is exact, and its bound is the sum of a ledger of exact lines,
one per error source: h_m's 4^(-5m), plus pi's bootstrap bound when the
reciprocal identity applied.  One plan picks the least m whose ledger meets
eps.  Decimals are rendered last, correctly rounded from the exact value.
The bookkeeping around the evaluation runs on the integers of
as_integer_ratio(): the fold compares numerator and denominator, and
rounding is one divmod.  The ledger's lines are powers of 2, so its sum at
m is 1 or 5 over 2^(10m).  The plan gives the index alone, medina_min_m_for
at eps over that numerator, and _arctan_reduced forms the ledger at the
index it is given by one rule (_budget), whichever entry point named m.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .medina import (
    MAX_INDEX,
    _check_index,
    medina_error_bound,
    medina_h,
    medina_min_m_for,
)
from .poly_core import (
    MAX_EXPONENT,
    RatLike,
    _brief,
    check_int,
    check_positive,
    poly_eval_horner,
    rat,
    rat_text,
)

# Least decimal places printed when the caller asks to see past the guarantee.
FULL_DECIMAL_DIGITS = 30


class ReductionStep(enum.Enum):
    NEGATE = "Negate"
    RECIPROCAL = "Reciprocal"


class ReductionTrace(NamedTuple):
    """An argument, its image in [0, 1], and the identities applied in order."""

    original: Fraction
    reduced: Fraction
    steps: tuple[ReductionStep, ...]


def reduce(x: RatLike) -> ReductionTrace:
    """Fold x into [0, 1]; x = 1 stays put, so at most two steps ever apply.

    With |x| = a/b, the reciprocal applies when a > b and is Fraction(b, a).
    """
    x = rat(x)
    a, b = x.as_integer_ratio()
    steps = ()
    if a < 0:
        steps, a = (ReductionStep.NEGATE,), -a
    if a > b:
        return ReductionTrace(x, Fraction(b, a), steps + (ReductionStep.RECIPROCAL,))
    return ReductionTrace(x, -x if steps else x, steps)


class PiEstimate(NamedTuple):
    value: Fraction
    error_bound: Fraction
    source_m: int


def pi_estimate(source_m: int) -> PiEstimate:
    """pi approximated as 4 * h_M(1); the guarantee at x = 1 scales by 4.

    M = 1 gives the classic 22/7.
    """
    value = 4 * poly_eval_horner(medina_h(source_m), Fraction(1))
    return PiEstimate(value=value, error_bound=_pi_bound(source_m), source_m=source_m)


def _pi_bound(source_m: int) -> Fraction:
    """pi_estimate's bound, read by the ledger without evaluating h_M.

    That is 4 * medina_error_bound(M) = 2^(2 - 10M), made as one reduced
    Fraction after the same index check.
    """
    _check_index(source_m)
    return Fraction(1, 1 << 10 * source_m - 2)


Ledger = tuple[tuple[str, Fraction], ...]


class ApproxResult(NamedTuple):
    """An exact answer, its bound (the sum of the ledger's lines) and derivation."""

    value: Fraction
    error_bound: Fraction
    m: int
    trace: ReductionTrace
    ledger: Ledger


def _budget(m: int, reciprocal: bool) -> tuple[Ledger, Fraction]:
    """The ledger at index m, (term, exact bound) lines, and its sum.

    The lines are h_m's bound 2^(-10m), and pi's 2^(2-10m) after a
    reciprocal step, so the sum is 1 or 5 over 2^(10m), formed here alone,
    after the first line has checked the index.
    """
    lines = (("approximant", medina_error_bound(m)),)
    if not reciprocal:
        return lines, Fraction(1, 1 << 10 * m)
    return lines + (("pi", _pi_bound(m)),), Fraction(5, 1 << 10 * m)


def _plan(trace: ReductionTrace, eps: Fraction) -> int:
    """The least m whose ledger sums to at most eps.

    The sum at m is 5 over 2^(10m) after a reciprocal step and 1 over it
    otherwise (_budget), so m is the package's one least-index rule,
    medina_min_m_for, at eps over that numerator.  An m past MAX_INDEX is
    ValueError, before any ledger is made.
    """
    m = medina_min_m_for(eps / 5 if ReductionStep.RECIPROCAL in trace.steps else eps)
    if m > MAX_INDEX:
        raise ValueError(f"no index meets eps: an index must be <= {MAX_INDEX}")
    return m


def medina_arctan(x: RatLike, m: int) -> ApproxResult:
    """Approximate arctan(x) with h_m after range reduction.

    The bound is the sum of the ledger at m: 4^(-5m) for the approximant,
    plus the pi bootstrap's bound when the reciprocal identity was applied.
    """
    return _arctan_reduced(reduce(x), m)


def _arctan_reduced(trace: ReductionTrace, m: int) -> ApproxResult:
    """The result at index m for the argument that `trace` reduced.

    The ledger comes first, from _budget, so a bad m is refused before
    h_m is built.
    """
    ledger, bound = _budget(m, ReductionStep.RECIPROCAL in trace.steps)
    value = poly_eval_horner(medina_h(m), trace.reduced)
    if ReductionStep.RECIPROCAL in trace.steps:
        value = pi_estimate(m).value / 2 - value
    if ReductionStep.NEGATE in trace.steps:
        value = -value
    return ApproxResult(value, bound, m, trace, ledger)


def arctan_auto(x: RatLike, eps: RatLike) -> ApproxResult:
    """The result at the least m whose ledger, pi bootstrap included, meets eps."""
    eps = check_positive(eps, "eps")
    trace = reduce(x)
    return _arctan_reduced(trace, _plan(trace, eps))


def guaranteed_digits(bound: RatLike) -> int:
    """Largest d >= 0 with 10^-d / 2 >= bound; 0 when no place is certain.

    That is the largest d with 10^d <= q = den // (2 num).  The estimate
    from q's bit length (3010299956 / 10^10 is just below log10 2) is never
    above it and at most one short.
    """
    bound = check_positive(bound, "bound")
    q = bound.denominator // (2 * bound.numerator)
    d = max(0, (q.bit_length() - 1) * 3010299956 // 10**10)
    while 10 ** (d + 1) <= q:
        d += 1
    return d


def decimal_str(value: RatLike, digits: int) -> str:
    """Fixed-point rendering with `digits` places, correctly rounded.

    Rounding is to nearest with ties to even, computed on the exact scaled
    rational, so the printed digits are the true rounded digits: with
    value = n/d, one divmod of n 10^digits by d gives the floor and the
    remainder that decides it.  digits past MAX_EXPONENT, rat_parse's cap
    on a written exponent, is refused before 10^digits is formed.
    """
    if check_int(digits, "digits", 0) > MAX_EXPONENT:
        raise ValueError(f"digits must be <= {MAX_EXPONENT}, got {_brief(digits)}")
    n, d = rat(value).as_integer_ratio()
    scaled, rem = divmod(n * 10**digits, d)
    if 2 * rem > d or (2 * rem == d and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    text = rat_text(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[: len(text) - digits], text[len(text) - digits :]
    return f"{sign}{whole}.{frac}" if digits else f"{sign}{whole}"


def approx_result_json(result: ApproxResult, *, full: bool = False) -> dict:
    """JSON document for one result; `full` adds places up to FULL_DECIMAL_DIGITS."""
    digits = guaranteed_digits(result.error_bound)
    shown = max(digits, FULL_DECIMAL_DIGITS) if full else digits
    return {
        "value": rat_text(result.value),
        "error_bound": rat_text(result.error_bound),
        "m": result.m,
        "steps": [step.value for step in result.trace.steps],
        "decimal": decimal_str(result.value, shown),
        "decimal_digits_guaranteed": digits,
    }
