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

The shipped p_m and h_m come from one integer row: the binomial row of
the numerator, divided in place.  medina_h integrates that row straight
into Horner's integer form (an IntPoly) and makes no Fraction.  Its
common denominator is 4^m times one power of each prime below 8m, found
prime by prime: a gcd for each power of p up to sqrt(8m), and past that
one remainder, c_p mod p, for nearly every p.  That takes about half the
time of a gcd and an lcm step per coefficient at m = 34 and 80 (86
against 175 us at m = 34); at m = 665 the numerators' products are most
of the cost.  medina_h keeps the latest 16, one of the package's two
cross-call caches (the other is oracle._pivot_base's, 16 widths).  window_poly and medina_p_closed
make one Fraction per coefficient at the end, and medina_pair takes h_m
from that p_m by approximant, the Fraction rule for h_m.  The
recurrence, grown on integer rows by one lazy walk, is the reference; it
shares nothing with the closed form.  Every index runs from 1 to MAX_INDEX.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice, repeat
from operator import mod
from typing import NamedTuple

from .poly_core import (
    IntPoly,
    Poly,
    RatLike,
    _brief,
    check_int,
    check_positive,
    poly,
    poly_to_strings,
    rat_text,
)

_SEED = (4, 0, -4, 0, 5, -4, 1)  # p_1's integer row
HUMP: Poly = poly([0, 1, -1])  # x(1 - x), the factor that damps each step

MAX_INDEX = 2000  # 4^(-5m) is about 1e-6020 here; h_m costs order m^2 bits


def _check_index(m, name: str = "sequence index") -> int:
    """m itself when it is an int in [1, MAX_INDEX]; ValueError otherwise."""
    if check_int(m, name, 1) > MAX_INDEX:
        raise ValueError(f"{name} must be <= {MAX_INDEX}, got {_brief(m)}")
    return m


def medina_p1() -> Poly:
    """The degree-6 seed polynomial 4 - 4x^2 + 5x^4 - 4x^5 + x^6."""
    return poly(_SEED)


def _window_row(m: int) -> list[int]:
    """x^{4m} (1-x)^{4m} on integers: (-1)^k C(4m, k) at power 4m + k."""
    n = 4 * _check_index(m)
    row, c = [0] * n, 1
    for k in range(n + 1):
        row.append(-c if k % 2 else c)
        c = c * (n - k) // (k + 1)  # C(n, k+1), exactly
    return row


def window_poly(m: int) -> Poly:
    """x^{4m} (1-x)^{4m}, tiny on [0, 1]."""
    return tuple(map(Fraction, _window_row(m)))


def approximant(p: Poly, m: int) -> Poly:
    """h_m from p_m: the antiderivative of p_m / ((-1)^(m+1) 4^m), anchored at 0.

    The Fraction rule, for any p: medina_h builds the same polynomial on
    integers from the closed form's row.
    """
    s = medina_scale(m).numerator
    terms = (Fraction(c.numerator, c.denominator * s * k) for k, c in enumerate(p, 1))
    return (Fraction(0), *terms)


def recurrence(seed: tuple[int, ...]):
    """p_1 = seed, p_2, ... as integer rows, grown lazily: the reference route.

    p_j = x^4 (1-x)^4 p_{j-1} + (-4)^(j-1) seed, one step per member asked
    for.  Any integer seed is accepted, so the verifier can grow a corrupted one.
    """
    p, shift = list(seed), 1
    while True:
        yield tuple(p)
        shift *= -4
        for _ in range(4):  # times 1 - x
            p = [a - b for a, b in zip((*p, 0), (0, *p))]
        p = [0, 0, 0, 0, *p]  # times x^4
        for i, c in enumerate(seed):
            p[i] += shift * c


def medina_p_recurrence(m: int) -> Poly:
    """p_m built by unfolding the recurrence; degree 8m - 2."""
    row = next(islice(recurrence(_SEED), _check_index(m) - 1, None))
    return tuple(map(Fraction, row))


def medina_closed_numerator(m: int) -> list[int]:
    """x^{4m} (1-x)^{4m} - (-4)^m as an integer row, divided by 1 + x^2 below."""
    row = _window_row(m)
    row[0] -= (-4) ** m
    return row


def _p_row(m: int) -> list[int]:
    """p_m's integer row: the closed-form numerator divided by 1 + x^2.

    The divisor is monic: dividing the numerator in place from the top is
    one subtraction per coefficient.  A nonzero remainder means the
    construction is broken, so that raises instead of truncating.
    """
    rem = list(medina_closed_numerator(m))
    for i in range(len(rem) - 1, 1, -1):
        rem[i - 2] -= rem[i]
    if rem[0] or rem[1]:
        raise ArithmeticError(
            f"1 + x^2 does not divide the closed-form numerator at m={m}"
        )
    del rem[:2]
    return rem


def medina_p_closed(m: int) -> Poly:
    """p_m via exact division of the closed-form numerator by 1 + x^2."""
    return tuple(map(Fraction, _p_row(m)))


def medina_scale(m: int) -> Fraction:
    """The normalizer (-1)^(m+1) * 4^m: 4, -16, 64, ..."""
    _check_index(m)
    return Fraction((-1) ** (m + 1) * 4**m)


def _primes(n: int) -> list[int]:
    """The primes up to n, sieved on a bytearray made for the call."""
    sieve = bytearray(2) + b"\1" * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(n // p - p + 1)
    return list(compress(range(n + 1), sieve))


def _integrate(row: list[int], m: int) -> IntPoly:
    """approximant on p_m's integer row, made straight into Horner's form.

    h_k = c_k / (s k) with c_k = row[k-1] and s = (-1)^(m+1) 4^m.  The
    form's den is 4^m times the product over primes p <= n = len(row) of
    p^e_p, where e_p = max(0, v_p(k) - v_p(c_k) over nonzero c_k): the
    factors p of k that c_k does not cancel.  Each p is settled on its
    own, from a sieve made on each call:
      - p <= sqrt(n): p^e_p is the largest q // gcd(q, c_q, c_2q, ...)
        over the powers q = p^j <= n, since each multiple of q is charged
        the factors p of q that its c_k lacks;
      - p > sqrt(n): e_p is 0 or 1, and it is 1 when p does not divide
        c_p, which settles nearly every such prime (all but 1 of 52 at
        m = 34, of 106 at m = 80, and all 371 at m = 333); else it is 1
        when p does not divide c_k at another multiple k of p.
    For p = 2 this is den's top exponent past 2m, and for odd p the
    exponent of the lcm of the reduced odd denominators, so den is the
    rule it replaced: a gcd for each coefficient's odd part and one lcm
    of them all.  Each numerator den c_k / (s k) is (den / 4^m) c_k / (+-k),
    an exact division, so any integer row (such as an injected seed's
    p_m) integrates exactly; den is the least one when some term reaches
    2^(2m), as p_m's top coefficient at the odd k = 8m - 1 does.

    Measured on Python 3.11 (a shared 2-vCPU host, best of 40 in three
    interleaved rounds), the replaced rule took 172-179 us at m = 34,
    645-813 us at m = 80 and 75-83 ms at m = 665, and this one 86-89 us,
    348-387 us and 63-66 ms: 3.8 ms against 2.0 ms summed over the twenty
    indices from 8 to 80 that a cold benchmark ladder builds.  At m = 665
    the numerators' products are most of the cost.
    """
    n, factors = len(row), []
    for p in _primes(n):
        if p * p <= n:
            q, f = p, 1
            while q <= n:
                f = max(f, q // math.gcd(q, *row[q - 1 :: q]))
                q *= p
            factors.append(f)
        elif row[p - 1] % p or any(map(mod, row[2 * p - 1 :: p], repeat(p))):
            factors.append(p)
    unit = math.prod(factors)  # den / 4^m
    den = unit << 2 * m
    if m % 2 == 0:
        unit = -unit
    return IntPoly(den, (0, *(unit * c // k for k, c in enumerate(row, 1))))


@lru_cache(maxsize=16)
def medina_h(m: int) -> IntPoly:
    """Approximant h_m of degree 8m - 1 in integer form, from p_m's closed form.

    medina_h(m).poly() gives its coefficients as Fractions.
    """
    return _integrate(_p_row(_check_index(m)), m)


def medina_error_bound(m: int) -> Fraction:
    """The guaranteed uniform bound 4^(-5m) on |h_m - arctan| over [0, 1]."""
    _check_index(m)
    return Fraction(1, 1 << 10 * m)


def medina_min_m_for(eps: RatLike) -> int:
    """Smallest index whose guaranteed bound 4^(-5m) is at most eps.

    With eps = num/den and t = ceil(den/num), 4^(-5m) <= eps exactly when
    2^(10m) >= t, that is when 10m >= bit_length(t - 1).
    """
    eps = check_positive(eps, "eps")
    t = -(-eps.denominator // eps.numerator)
    return max(1, -(-(t - 1).bit_length() // 10))


class MedinaPair(NamedTuple):
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
    """Bundle (m, p_m, h_m, bound), with p_m from the closed form as shipped.

    h_m comes by approximant from that p_m: medina_h(m).poly() would pay a
    gcd of two long integers per coefficient (12 s against 1 s at m = 2000).
    """
    p = medina_p_closed(m)
    return MedinaPair(m, p, approximant(p, m), medina_error_bound(m))
