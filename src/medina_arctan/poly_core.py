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
gcd-reduced with a positive denominator.  A tuple of ``int`` coefficients,
such as an integer row of Medina's sequence, is taken as it is: an ``int``
is an exact rational, and ``poly_antiderivative`` still returns Fractions.
Nothing here ever rounds, and all values are immutable.  Horner evaluation
runs on integers over one common denominator, the form an ``IntPoly``
holds, and makes one Fraction at the end, reduced by the factors it is
known to be made of: D's share by one gcd with D, then whatever primes of
b are left, never by a gcd at full width.  A long form is nested in blocks
whose values merge pairwise, so its products are balanced rather than long
by long; the integer is the same.
``poly_eval_powers`` also makes one Fraction, by a second scheme that sums
integer terms and never nests.  Each route's integer loop, ``horner_numerator``
or ``powers_at`` over ``powers_terms`` (each b^(n-i) raised once for all points
over b), returns the unreduced numerator at x = a/b, so points that share b
share a denominator, ``horner_den`` for Horner's, and compare by cross-multiplying.
``rat_text`` writes the one text form of a rational that ``rat_parse``
reads, at any length.  A message that echoes a caller's value writes it by
one rule, ``_brief``: a rational as ``rat_text`` writes it, anything else
as its ``repr``, with each part past 40 digits or characters cut.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from math import gcd
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
        raise ValueError(f"zero denominator in rational {_brief(text)}") from None
    except decimal.InvalidOperation:
        raise ValueError(f"exponent out of range in rational {_brief(text)}") from None
    except ValueError:
        raise ValueError(f"malformed rational {_brief(text)}") from None


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


# Longest part of a caller's value that a message writes out in full.
_BRIEF_DIGITS = 40
# log10(2) to 64 places, rounded down, for a long part's digit count.
_LOG10_2 = 3010299956639811952137388947244930267681898814621085413104274611


def _brief(value) -> str:
    """value as a message echoes it: an int or Fraction as rat_text writes
    it, anything else as its repr, or by its type's name if repr raises
    ValueError.  A part past _BRIEF_DIGITS digits (a rational's sign aside)
    or characters keeps its first and last ten around "…", and its length."""
    if isinstance(value, (int, Fraction)):
        num, den = value.as_integer_ratio()
        if max(num, -num, den) < 10**_BRIEF_DIGITS:
            return rat_text(value)
        parts = (abs(num),) if den == 1 else (abs(num), den)
        return ("-" if num < 0 else "") + "/".join(map(_brief_digits, parts))
    try:
        text = repr(value)
    except ValueError:  # such as an int past the int-to-str digit limit inside
        return f"<unprintable {type(value).__name__}>"
    if len(text) > _BRIEF_DIGITS:
        return f"{text[:10]}…{text[-10:]} ({len(text)} characters)"
    return text


def _brief_digits(n: int) -> str:
    """_brief's text for one part n >= 0, found by arithmetic, not by
    writing out all of a long n."""
    if n < 10**_BRIEF_DIGITS:
        return str(n)
    # With L its bit length, 2^(L-1) <= n < 2^L: n has this many digits or
    # one more, and one comparison with a power of ten decides which.
    digits = (n.bit_length() - 1) * _LOG10_2 // 10**64 + 1
    scale = 10 ** (digits - 10)
    if n >= scale * 10**10:
        digits, scale = digits + 1, scale * 10
    return f"{n // scale}…{n % 10**10:010d} ({digits} digits)"


def check_int(value, name: str, least: int) -> int:
    """value itself when it is an int (not a bool) of at least `least`.

    Anything else raises ValueError naming the parameter.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {_brief(value)}")
    return value


def check_positive(value: RatLike, name: str) -> Fraction:
    """value as an exact Fraction when it is > 0; ValueError otherwise.

    Unlike check_int, this coerces through rat, so "1e-9" is accepted and a
    float still raises TypeError.
    """
    value = rat(value)
    if value.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"{name} must be positive")
    return value


def normalize(coeffs: Iterable[Fraction]) -> Poly:
    """Drop trailing zeros so equal polynomials compare equal as tuples."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly(coeffs: Iterable[RatLike] = ()) -> Poly:
    """Build a canonical polynomial from low-to-high coefficients, or an IntPoly's."""
    if isinstance(coeffs, IntPoly):
        coeffs = coeffs.poly()
    return normalize(rat(c) for c in coeffs)


def degree(p: Poly) -> int:
    """Degree of p, with the zero polynomial at -1."""
    return len(p) - 1


class IntPoly:
    """A polynomial as integer numerators over one common denominator.

    nums[i] / den is the coefficient of x**i, low power first, and den is
    the lcm of the reduced coefficients' denominators, so each polynomial
    has one form.  Iterating yields the numerators; poly() gives the
    Fraction tuple.  Immutable and hashable; a plain class and not a named
    tuple like the package's records, since iterating it must yield the
    numerators, not (den, nums).
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: Tuple[int, ...]):
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {_brief(name)}: IntPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return (self.den, self.nums) == (other.den, other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return f"IntPoly({self.den!r}, {self.nums!r})"

    @classmethod
    def of(cls, p: Sequence[Union[int, Fraction]]) -> "IntPoly":
        """The form of a coefficient sequence (ints or Fractions), or p if a form."""
        if isinstance(p, IntPoly):
            return p
        den = math.lcm(*(c.denominator for c in p))
        return cls(den, tuple(den // c.denominator * c.numerator for c in p))

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def poly(self) -> Poly:
        """The coefficients as Fractions, one per power: a gcd with den each."""
        return tuple(Fraction(n, self.den) for n in self.nums)


# Measured on h_m at 3- to 25-bit denominators: up to 96 coefficients the
# flat loop wins or ties, and 32-coefficient blocks merge fastest past that.
_FLAT_MAX = 96
_BLOCK = 32


def horner_numerator(nums: Sequence[int], a: int, b: int) -> int:
    """D*b^n*p(a/b) from the nums of p's form (D, nums), n = len(nums) - 1, b > 0.

    Nested multiplication on integers, one product and one sum a step.  Each
    step's product c_i b^(n-i) grows with n, so past _FLAT_MAX coefficients,
    at b != 1, the loop runs on blocks of _BLOCK coefficients, and
    neighbouring blocks merge pairwise, V = V_lo b^len(hi) + a^len(lo) V_hi,
    with each level's powers raised once: balanced products in place of n
    long-by-long ones, and the same integer.  Shorter forms, each block, and
    b = 1 run the flat loop inline.  At x = 1 (the pi bootstrap) the value
    is the sum of the numerators.  The result, over horner_den, is not
    reduced, so a caller may compare it across a row of points that share b.
    """
    if a == 1 and b == 1:
        return sum(nums)
    if len(nums) > _FLAT_MAX and b != 1:
        return _merged_blocks(nums, a, b)
    # The flat loop, inline: a call costs a few percent of a short form.
    acc, scale = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * scale
        scale *= b
    return acc


def horner_den(form: IntPoly, b: int) -> int:
    """D*b^n, n = len(form) - 1: horner_numerator(form.nums, a, b)'s denominator."""
    return form.den * b ** max(len(form) - 1, 0)


def _merged_blocks(nums: Sequence[int], a: int, b: int) -> int:
    vals = [horner_numerator(nums[i : i + _BLOCK], a, b) for i in range(0, len(nums), _BLOCK)]
    size, tail = _BLOCK, (len(nums) - 1) % _BLOCK + 1
    while len(vals) > 1:
        # Every block but the last holds `size` coefficients; the last, `tail`.
        a_up, b_up = a**size, b**size
        merged = [vals[k] * b_up + a_up * vals[k + 1] for k in range(0, len(vals) - 2, 2)]
        if len(vals) % 2:
            merged.append(vals[-1])
        else:
            merged.append(vals[-2] * (b_up if tail == size else b**tail) + a_up * vals[-1])
            tail += size
        vals, size = merged, 2 * size
    return vals[0]


def _by_keyword(num: int, den: int) -> Fraction:
    return Fraction(num, den, _normalize=False)


def _coprime_route():
    """The constructor of a Fraction from a pair already in lowest terms with
    a positive denominator.  Fraction's private routes skip its own gcd: a
    classmethod from Python 3.12, a keyword before.  Each is tried once on
    -2/3, and plain Fraction, which pays the gcd, serves if neither works."""
    for route in (getattr(Fraction, "_from_coprime_ints", None), _by_keyword):
        try:
            if route(-2, 3).as_integer_ratio() == (-2, 3):
                return route
        except TypeError:  # no such route here (None is not callable)
            pass
    return Fraction


_coprime_fraction = _coprime_route()


def poly_eval_horner(p: Union[Poly, IntPoly], x: RatLike) -> Fraction:
    """Evaluate by nested multiplication: c0 + x*(c1 + x*(...)).

    With x = a/b in lowest terms, n = deg p and D the common denominator,
    horner_numerator gives N = D*b^n*p(x) over horner_den's D*b^n.  Past 96
    coefficients, and at b != 1, N comes from nested blocks merged pairwise,
    and is the flat loop's integer bit for bit.  The Fraction is N over
    D*b^n in lowest terms, reduced without a gcd at full width: g = gcd(N, D)
    takes D's share, after which a prime that N/g still shares with
    (D/g)*b^n must divide b, so gcd(N, b), cut to what the denominator still
    holds, strips those until none is left.  A Poly is put into integer form
    first, on every call.
    """
    a, b = rat(x).as_integer_ratio()
    form = p if isinstance(p, IntPoly) else IntPoly.of(p)
    num = horner_numerator(form.nums, a, b)
    if not num:
        return _coprime_fraction(0, 1)
    g = gcd(num, form.den)
    num, den = num // g, horner_den(form, b) // g
    while (shared := gcd(gcd(num, b), den)) > 1:
        num, den = num // shared, den // shared
    return _coprime_fraction(num, den)


def powers_form(p: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(L, nums), the powers route's own scaling of the coefficients.

    L is the lcm of the reduced c_i = n_i/d_i's denominators and nums[i] is
    (L/d_i) n_i, so c_i = nums[i] / L.  Made from the coefficients
    themselves, never from an IntPoly.
    """
    den = math.lcm(*(c.denominator for c in p))
    return den, tuple(den // c.denominator * c.numerator for c in p)


def powers_terms(nums: Sequence[int], b: int) -> List[Tuple[int, int]]:
    """The nonzero terms (i, nums[i] b^(n-i)) of powers_form's nums at the
    denominator b, n = len(nums) - 1: all that powers_at needs of b."""
    n = len(nums) - 1
    return [(i, c * b ** (n - i)) for i, c in enumerate(nums) if c]


def powers_at(terms: Sequence[Tuple[int, int]], a: int) -> int:
    """L*b^n*p(a/b), unreduced: the sum of c a^i over powers_terms(nums, b),
    each a^i raised afresh, with no nesting, so no step shared with Horner's."""
    return sum(c * a**i for i, c in terms)


def poly_eval_powers(p: Union[Poly, IntPoly], x: RatLike) -> Fraction:
    """Evaluate as the sum of c_i * x**i with independently computed powers.

    A second route, to check the two schemes against each other: at x = a/b,
    powers_at over powers_terms of powers_form(p) gives L*b^n*p(x), n = deg p,
    and one Fraction over L*b^n is bit for bit the Fraction sum of the terms.
    An IntPoly is read through poly(), so Horner's form is never read.
    """
    a, b = rat(x).as_integer_ratio()
    if isinstance(p, IntPoly):
        p = p.poly()
    den, nums = powers_form(p)
    return Fraction(powers_at(powers_terms(nums, b), a), den * b ** max(len(p) - 1, 0))


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
    """The antiderivative anchored at zero: no constant term.

    Each coefficient is an exact Fraction, for int coefficients as well.
    """
    if not p:
        return ZERO_POLY
    return (Fraction(0),) + tuple(Fraction(c, i + 1) for i, c in enumerate(p))


def poly_to_strings(p: Union[Poly, IntPoly]) -> List[str]:
    """Serialize as a list of rational strings, index = power (JSON-ready).

    An IntPoly is read through poly(), so each string is a coefficient.
    """
    if isinstance(p, IntPoly):
        p = p.poly()
    return [rat_text(c) for c in p]

