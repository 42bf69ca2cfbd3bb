"""Exact dense polynomials over the rationals, and the text form of a rational.

The operations are the ring's (add, subtract, scale, multiply), the
derivative, the antiderivative anchored at zero, and two evaluation routes.

A polynomial is a tuple of ``Fraction`` coefficients indexed by power:
``coeffs[i]`` is the coefficient of x**i, so ``(3, 0, 1)`` encodes
``3 + x**2``.  The representation is canonical: trailing zero coefficients
are never stored, the zero polynomial is the empty tuple, and its degree is
the sentinel -1.  Canonical tuples make structural equality coincide with
mathematical equality.

Scalars are ``fractions.Fraction`` throughout, which keeps every value
gcd-reduced with a positive denominator.  Nothing here ever rounds, and all
values are immutable.  Horner evaluation runs on integers over one common
denominator, the form an ``IntPoly`` holds, and makes one Fraction at the
end.  ``poly_eval_powers`` also makes one Fraction, but by a second scheme:
it sums integer terms, each from its own freshly raised powers, over the lcm
of the coefficients' denominators, and never nests or forms an ``IntPoly``.
Each route's integer loop, ``horner_numerator`` and ``powers_numerator``,
returns the unreduced numerator at x = a/b, so values at points that share
b share a denominator and compare by cross-multiplication.
``rat_text`` writes the one text form of a rational that ``rat_parse``
reads, at any length.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

RatLike = Union[int, str, Fraction]
Poly = Tuple[Fraction, ...]

ZERO_POLY: Poly = ()


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or rational string to an exact Fraction.

    Floats are rejected on purpose: they carry binary rounding error and
    would silently break exactness.  Spell decimals as strings; "0.95"
    parses to 19/20 exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return rat_parse(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


# Fraction refuses even well-formed text with a part past the int-from-str
# digit limit.  Form does not depend on the length of digit runs, so Fraction
# judges a copy with each run cut to "1", and decimal, unlimited, reads it.
_DIGIT_RUN = re.compile(r"\d+")
# Fraction computes 10^exponent; a written exponent past this is refused first.
MAX_EXPONENT = 100_000


def rat_parse(text: str) -> Fraction:
    """Parse "-3", "19/20", "0.95", or "1e-9" into an exact Fraction.

    Whatever Fraction reads, rat_parse reads to the same value at any length;
    whatever it refuses raises ValueError here, as do a zero denominator and
    an exponent past MAX_EXPONENT in magnitude.
    """
    # U+2212 is the typographic minus that tends to arrive via copy-paste.
    cleaned = text.strip().replace("−", "-")
    num, slash, den = cleaned.partition("/")
    try:
        Fraction(_DIGIT_RUN.sub("1", cleaned))
        exponent = cleaned.lower().partition("e")[2].replace("_", "").lstrip("+-0")
        if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
            raise decimal.InvalidOperation
        if slash:
            # Checked first: Fraction's own message would write out the
            # numerator, which past the digit limit raises ValueError.
            den = int(decimal.Decimal(den))
            if not den:
                raise ZeroDivisionError
            return Fraction(int(decimal.Decimal(num)), den)
        return Fraction(decimal.Decimal(cleaned))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except decimal.InvalidOperation:
        raise ValueError(f"exponent out of range in rational {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None


def rat_text(value: Union[int, Fraction]) -> str:
    """The inverse of rat_parse: "-3" or "19/20", exactly what str() gives.

    Parts past the interpreter's int-to-str digit limit are written through
    decimal, which has no such limit, so every exact rational renders.
    """
    try:
        return str(value)
    except ValueError:
        num, den = (decimal.Decimal(n) for n in value.as_integer_ratio())
        return str(num) if den == 1 else f"{num}/{den}"


def check_int(value, name: str, least: int) -> int:
    """value itself when it is an int (not a bool) of at least `least`.

    Anything else raises ValueError naming the parameter.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        got = rat_text(value) if isinstance(value, int) else repr(value)
        raise ValueError(f"{name} must be an integer >= {least}, got {got}")
    return value


def check_positive(value: RatLike, name: str) -> Fraction:
    """value as an exact Fraction when it is > 0; ValueError otherwise.

    Unlike check_int, this coerces through rat, so "1e-9" is accepted and a
    float still raises TypeError.
    """
    value = rat(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def normalize(coeffs: Iterable[Fraction]) -> Poly:
    """Drop trailing zeros so equal polynomials compare equal as tuples."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly(coeffs: Iterable[RatLike] = ()) -> Poly:
    """Build a canonical polynomial from low-to-high coefficient values."""
    return normalize(rat(c) for c in coeffs)


def degree(p: Poly) -> int:
    """Degree of p, with the zero polynomial at -1."""
    return len(p) - 1


class IntPoly:
    """A polynomial as integer numerators over one common denominator.

    nums[i] / den is the coefficient of x**i, low power first, and den is
    the lcm of the reduced coefficients' denominators, so each polynomial
    has one form.  Iterating yields the numerators; poly() gives the
    Fraction tuple.  Immutable; a plain class, since a frozen dataclass
    costs about 1 ms at each import, a few percent of a cold start.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: Tuple[int, ...]):
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: IntPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return (self.den, self.nums) == (other.den, other.nums)

    def __repr__(self):
        return f"IntPoly({self.den!r}, {self.nums!r})"

    @classmethod
    def of(cls, p: Sequence[Union[int, Fraction]]) -> "IntPoly":
        """The form of a coefficient sequence (ints or Fractions): one lcm."""
        den = math.lcm(*(c.denominator for c in p))
        return cls(den, tuple(den // c.denominator * c.numerator for c in p))

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def poly(self) -> Poly:
        """The coefficients as Fractions, one per power: a gcd with den each."""
        return tuple(Fraction(n, self.den) for n in self.nums)


def horner_numerator(form: IntPoly, a: int, b: int) -> int:
    """D*b^n*p(a/b) for the form (D, nums) of p, n = len(nums) - 1, any b > 0.

    Nested multiplication on integers, one product and one sum a step; the
    result is not reduced, so a caller may compare it across a row of points
    that share b.
    """
    acc, scale = 0, 1
    for c in reversed(form.nums):
        acc = acc * a + c * scale
        scale *= b
    return acc


def poly_eval_horner(p: Union[Poly, IntPoly], x: RatLike) -> Fraction:
    """Evaluate by nested multiplication: c0 + x*(c1 + x*(...)).

    With x = a/b, n = deg p and D the common denominator, horner_numerator
    gives D*b^n*p(x), and one Fraction is made over D*b^n.  A Poly is put
    into integer form first, on every call.
    """
    a, b = rat(x).as_integer_ratio()
    form = p if isinstance(p, IntPoly) else IntPoly.of(p)
    n = len(form.nums) - 1
    return Fraction(horner_numerator(form, a, b), form.den * b ** max(n, 0))


def powers_form(p: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(L, nums), the powers route's own scaling of the coefficients.

    L is the lcm of the reduced c_i = n_i/d_i's denominators and nums[i] is
    (L/d_i) n_i, so c_i = nums[i] / L.  Made from the coefficients
    themselves, never from an IntPoly.
    """
    den = math.lcm(*(c.denominator for c in p))
    return den, tuple(den // c.denominator * c.numerator for c in p)


def powers_numerator(nums: Sequence[int], a: int, b: int) -> int:
    """L*b^n*p(a/b) from powers_form(p)'s nums, n = len(nums) - 1, any b > 0.

    The sum of nums[i] a^i b^(n-i) over the nonzero terms, with a^i and
    b^(n-i) raised afresh for each term: no nesting, so it shares no step
    with horner_numerator.  Not reduced, like horner_numerator.
    """
    n = len(nums) - 1
    return sum(c * a**i * b ** (n - i) for i, c in enumerate(nums) if c)


def poly_eval_powers(p: Poly, x: RatLike) -> Fraction:
    """Evaluate as the sum of c_i * x**i with independently computed powers.

    Agrees with poly_eval_horner on every input; kept as a second route so
    the two schemes can be checked against each other.  With x = a/b and
    n = deg p, powers_form(p) gives the lcm L and the scaled numerators,
    powers_numerator gives L*b^n*p(x), and one Fraction is made over L*b^n.
    Fractions are canonical, so that is bit for bit the Fraction sum of the
    terms.  It never nests and never reads an IntPoly, so it shares no step
    and no data with Horner's route.
    """
    a, b = rat(x).as_integer_ratio()
    den, nums = powers_form(p)
    return Fraction(powers_numerator(nums, a, b), den * b ** max(len(p) - 1, 0))


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, tuple(-c for c in q))


def poly_scale(p: Poly, k: RatLike) -> Poly:
    k = rat(k)
    if k == 0:
        return ZERO_POLY
    # k != 0 preserves the nonzero leading coefficient, so no renormalize.
    return tuple(c * k for c in p)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO_POLY
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    # Leading coefficient is a product of nonzero rationals, already canonical.
    return tuple(out)


def poly_derivative(p: Poly) -> Poly:
    """Term-wise power rule; constants collapse to the zero polynomial."""
    # (i+1) * c is nonzero whenever c is, so the result stays canonical.
    return tuple((i + 1) * c for i, c in enumerate(p[1:]))


def poly_antiderivative(p: Poly) -> Poly:
    """The antiderivative anchored at zero: no constant term."""
    if not p:
        return ZERO_POLY
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))


def poly_to_strings(p: Poly) -> List[str]:
    """Serialize as a list of rational strings, index = power (JSON-ready)."""
    return [rat_text(c) for c in p]

