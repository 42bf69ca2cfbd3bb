"""Medina's polynomial sequence and the arctangent approximants built from it.

The sequence starts from the degree-6 seed

    p_1(x) = 4 - 4x^2 + 5x^4 - 4x^5 + x^6

and grows by p_m = x^4 (1-x)^4 p_{m-1} + (-4)^(m-1) p_1, giving degree
8m - 2.  An equivalent closed form divides x^{4m} (1-x)^{4m} - (-4)^m
exactly by 1 + x^2; both constructions are exposed and agree coefficient
for coefficient.  Scaling p_m by (-1)^(m+1) 4^m and integrating from 0
yields the degree-(8m-1) approximant h_m with h_m(0) = 0 and the uniform
guarantee

    |h_m(x) - arctan(x)| <= 4^(-5m)    for all x in [0, 1].

The shipped p_m and h_m come from the closed form on integers (a binomial
row, divided in place) with one Fraction per coefficient at the end; the
recurrence, grown by one lazy walk, is the reference.  Both hand out
Prepared tuples; medina_h keeps the latest 16, the only cross-call cache.
Every index runs from 1 to MAX_INDEX.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .poly_core import (
    Poly,
    Prepared,
    RatLike,
    check_int,
    check_positive,
    poly,
    poly_add,
    poly_mul,
    poly_scale,
    poly_to_strings,
    rat_text,
)

_SEED: Poly = poly([4, 0, -4, 0, 5, -4, 1])
HUMP: Poly = poly([0, 1, -1])  # x(1 - x), the factor that damps each step

MAX_INDEX = 2000  # 4^(-5m) is about 1e-6020 here; h_m costs order m^2 bits


def _check_index(m, name: str = "sequence index") -> int:
    """m itself when it is an int in [1, MAX_INDEX]; ValueError otherwise."""
    if check_int(m, name, 1) > MAX_INDEX:
        raise ValueError(f"{name} must be <= {MAX_INDEX}, got {rat_text(m)}")
    return m


def medina_p1() -> Poly:
    """The degree-6 seed polynomial 4 - 4x^2 + 5x^4 - 4x^5 + x^6."""
    return _SEED


def window_poly(m: int) -> Poly:
    """x^{4m} (1-x)^{4m}, tiny on [0, 1]: (-1)^k C(4m, k) at power 4m + k."""
    n = 4 * _check_index(m)
    row, c = [], 1
    for k in range(n + 1):
        row.append(Fraction(-c if k % 2 else c))
        c = c * (n - k) // (k + 1)  # C(n, k+1), exactly
    return (Fraction(0),) * n + tuple(row)


def approximant(p: Poly, m: int) -> Poly:
    """h_m from p_m: the antiderivative of p_m / ((-1)^(m+1) 4^m), anchored at 0."""
    s = medina_scale(m).numerator
    terms = (Fraction(c.numerator, c.denominator * s * k) for k, c in enumerate(p, 1))
    return Prepared((Fraction(0), *terms))


def recurrence(seed: Poly):
    """p_1 = seed, p_2, ... grown lazily by the recurrence: the reference route.

    p_j = x^4 (1-x)^4 p_{j-1} + (-4)^(j-1) seed, one step per member asked
    for.  Any seed is accepted, so the verifier can grow a corrupted one.
    """
    step = window_poly(1)
    p, shift = Prepared(seed), Fraction(1)
    while True:
        yield p
        shift *= -4
        p = Prepared(poly_add(poly_mul(step, p), poly_scale(seed, shift)))


def medina_p_recurrence(m: int) -> Poly:
    """p_m built by unfolding the recurrence; degree 8m - 2."""
    return next(islice(recurrence(_SEED), _check_index(m) - 1, None))


def medina_closed_numerator(m: int) -> Poly:
    """x^{4m} (1-x)^{4m} - (-4)^m, the numerator divided by 1 + x^2 below."""
    return poly_add(window_poly(m), poly([-((-4) ** m)]))


def medina_p_closed(m: int) -> Poly:
    """p_m via exact division of the closed-form numerator by 1 + x^2.

    The divisor is monic: dividing the integer numerator in place from the
    top is one subtraction per coefficient.  A nonzero remainder means the
    construction is broken, so that raises instead of truncating.
    """
    rem = [c.numerator for c in medina_closed_numerator(m)]
    for i in range(len(rem) - 1, 1, -1):
        rem[i - 2] -= rem[i]
    if rem[0] or rem[1]:
        raise ArithmeticError(
            f"1 + x^2 does not divide the closed-form numerator at m={m}"
        )
    return tuple(Fraction(c) for c in rem[2:])


def medina_scale(m: int) -> Fraction:
    """The normalizer (-1)^(m+1) * 4^m: 4, -16, 64, ..."""
    _check_index(m)
    return Fraction((-1) ** (m + 1) * 4**m)


@lru_cache(maxsize=16)
def medina_h(m: int) -> Poly:
    """Approximant h_m of degree 8m - 1, built from the closed form of p_m."""
    return approximant(medina_p_closed(_check_index(m)), m)


def medina_error_bound(m: int) -> Fraction:
    """The guaranteed uniform bound 4^(-5m) on |h_m - arctan| over [0, 1]."""
    _check_index(m)
    return Fraction(1, 4 ** (5 * m))


def medina_min_m_for(eps: RatLike) -> int:
    """Smallest index whose guaranteed bound 4^(-5m) is at most eps.

    With eps = num/den and t = ceil(den/num), 4^(-5m) <= eps exactly when
    2^(10m) >= t, that is when 10m >= bit_length(t - 1).
    """
    eps = check_positive(eps, "eps")
    t = -(-eps.denominator // eps.numerator)
    return max(1, -(-(t - 1).bit_length() // 10))


@dataclass(frozen=True)
class MedinaPair:
    """One sequence member: index, polynomial, approximant, guaranteed bound."""

    m: int
    p: Poly
    h: Poly
    bound: Fraction

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "p": poly_to_strings(self.p),
            "h": poly_to_strings(self.h),
            "bound": rat_text(self.bound),
        }


def medina_pair(m: int) -> MedinaPair:
    """Bundle (m, p_m, h_m, bound), with p_m from the closed form as shipped."""
    return MedinaPair(m, medina_p_closed(m), medina_h(m), medina_error_bound(m))
