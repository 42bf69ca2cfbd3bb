"""Enclosure oracle: width contracts, frozen digits, structural identities."""

from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    REF_ARCTAN_1,
    REF_ARCTAN_95,
    REF_ARCTAN_HALF,
    REF_ARCTAN_THIRD,
    REF_PI,
    REF_SLACK,
)
from medina_arctan import oracle, verify
from medina_arctan.arctan_eval import arctan_auto
from medina_arctan.oracle import Enclosure, _enclosure, _Walk, arctan_enclosure, pi_enclosure
from medina_arctan.poly_core import rat_parse
from medina_arctan.verify import run_suite


def test_enclosure_type():
    enc = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert enc.width == Fraction(1, 6)
    assert enc.mid == Fraction(5, 12)
    assert enc.contains("2/5")
    assert not enc.contains(0)
    assert enc.to_json() == {"lo": "1/3", "hi": "1/2"}
    with pytest.raises(ValueError, match=r"^inverted enclosure \[1, 0\]$"):
        Enclosure(Fraction(1), Fraction(0))


def test_enclosure_text_past_the_int_str_limit():
    lo, hi = Fraction(-1, 10**5000), Fraction(3**9100, 2)
    doc = Enclosure(lo, hi).to_json()
    assert doc["lo"] == "-1/1" + "0" * 5000
    assert (rat_parse(doc["lo"]), rat_parse(doc["hi"])) == (lo, hi)
    with pytest.raises(ValueError, match=r"^inverted enclosure \[10{5000}, 0\]$"):
        Enclosure(Fraction(10**5000), Fraction(0))


def test_zero_is_exact():
    enc = arctan_enclosure(0, 1)
    assert (enc.lo, enc.hi) == (0, 0)


@pytest.mark.parametrize(
    "x",
    ["0", "1/10", "1/2", "3/5", "19/20", "1", "3/2", "2", "10", "-1/3", "-7"],
)
@pytest.mark.parametrize("eps", ["1", "1/10", "1e-6", "1e-12"])
def test_width_contract(x, eps):
    enc = arctan_enclosure(x, eps)
    assert enc.lo <= enc.hi
    assert enc.width <= Fraction(eps)


@pytest.mark.parametrize(
    "x,ref",
    [
        ("1", REF_ARCTAN_1),
        ("1/2", REF_ARCTAN_HALF),
        ("1/3", REF_ARCTAN_THIRD),
        ("19/20", REF_ARCTAN_95),
    ],
)
def test_frozen_reference_digits(x, ref):
    enc = arctan_enclosure(x, "1e-8")
    assert enc.lo - REF_SLACK <= ref <= enc.hi + REF_SLACK
    assert abs(enc.mid - ref) <= Fraction(1, 10**8)


def test_reciprocal_route():
    # arctan(2) = pi/2 - arctan(1/2), from the frozen references.
    ref = REF_PI / 2 - REF_ARCTAN_HALF
    enc = arctan_enclosure(2, "1e-10")
    assert enc.lo - REF_SLACK <= ref <= enc.hi + REF_SLACK


def test_oddness_is_exact():
    for x in ("1/3", "19/20", "7/2"):
        pos = arctan_enclosure(x, "1e-9")
        neg = arctan_enclosure("-" + x, "1e-9")
        assert neg.lo == -pos.hi
        assert neg.hi == -pos.lo


def test_monotone_ordering_at_tight_width():
    grid = [Fraction(s) for s in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]
    encs = [arctan_enclosure(x, "1e-12") for x in grid]
    for left, right in zip(encs, encs[1:]):
        assert left.hi < right.lo


def test_pivot_identity_consistency():
    # Above 1/2 the result must agree with arctan(1/2) + arctan(u).
    for k in range(9, 17):
        x = Fraction(k, 16)
        u = (x - Fraction(1, 2)) / (1 + x / 2)
        whole = arctan_enclosure(x, "1e-10")
        base = arctan_enclosure(Fraction(1, 2), "1e-10")
        rest = arctan_enclosure(u, "1e-10")
        summed = Enclosure(base.lo + rest.lo, base.hi + rest.hi)
        assert max(whole.lo, summed.lo) <= min(whole.hi, summed.hi)


def test_pi_enclosure():
    enc = pi_enclosure(Fraction(1, 100))
    assert enc.width <= Fraction(1, 100)
    assert enc.lo - REF_SLACK <= REF_PI <= enc.hi + REF_SLACK


def test_pi_enclosure_excludes_coarse_approximation():
    # |22/7 - pi| is about 1.26e-3, so a width of 1e-4 must exclude it.
    assert not pi_enclosure("1e-4").contains(Fraction(22, 7))


def test_refined_pi_enclosures_share_a_point():
    coarse = pi_enclosure("1e-3")
    fine = pi_enclosure("1e-4")
    assert max(coarse.lo, fine.lo) <= min(coarse.hi, fine.hi)
    assert fine.width < coarse.width


@pytest.mark.parametrize("eps", [0, Fraction(-1, 2)])
def test_eps_validation(eps):
    with pytest.raises(ValueError):
        arctan_enclosure(1, eps)
    with pytest.raises(ValueError):
        pi_enclosure(eps)


def test_rejects_float_arguments():
    with pytest.raises(TypeError):
        arctan_enclosure(0.5, "1e-6")


def series_enclosure(x, eps):
    """A walk's one-width case at 0 < x <= 1/2, the series alone, as Fractions."""
    return _enclosure(_Walk(*x.as_integer_ratio()).bracket(*eps.as_integer_ratio()))


def series_by_fractions(x, eps):
    """The series loop in Fraction arithmetic, one Fraction a step: the
    reference the integer partial sums of _Walk must match."""
    prev = x  # partial sum through degree 1
    power = x
    xsq = x * x
    k = 1
    while True:
        power *= xsq
        term = power / (2 * k + 1)
        cur = prev - term if k % 2 else prev + term
        if term <= eps:
            return Enclosure(min(prev, cur), max(prev, cur))
        prev = cur
        k += 1


# Arguments in (0, 1/2]: short parts anywhere in the range, and 300-digit
# parts of size about 2^-shift.
_short_args = st.integers(2, 10**6).flatmap(
    lambda d: st.integers(1, d // 2).map(lambda n: Fraction(n, d))
)
_long_args = st.builds(
    lambda d, shift, r: Fraction(max(1, (d >> shift) - r), d),
    st.integers(10**299, 10**300 - 1),
    st.integers(1, 1000),
    st.integers(0, 2**64),
)
# eps = c / 10^e from 1e-2 down to 1e-300, with c not always 1, as the
# pivot's eps/2 is not.
_series_eps = st.builds(
    lambda c, e: Fraction(c, 10**e), st.integers(1, 9), st.integers(2, 300)
)


@settings(deadline=None)
@given(st.one_of(_short_args, _long_args), _series_eps)
@example(Fraction(1, 2), Fraction(1, 24))  # the first term equals eps
@example(Fraction(1, 2), Fraction(1, 25))
@example(Fraction(1, 2), Fraction(1, 10**300))
@example(Fraction(1, 3), Fraction(1, 10**300))
def test_series_enclosure_is_bit_identical_to_the_fraction_loop(x, eps):
    # The reference pays a Fraction gcd at every step, and at 300-digit
    # parts that grows as the cube of the step count; keep it to ~40 steps.
    # Each step shrinks the term by about 2^-(2 * bits), bits = -log2 x.
    bits = x.denominator.bit_length() - x.numerator.bit_length()
    assume(eps.denominator.bit_length() <= 80 * max(bits, 1) or x.denominator < 10**6)
    got, want = series_enclosure(x, eps), series_by_fractions(x, eps)
    assert (got.lo.numerator, got.lo.denominator) == (want.lo.numerator, want.lo.denominator)
    assert (got.hi.numerator, got.hi.denominator) == (want.hi.numerator, want.hi.denominator)
    assert got.width <= eps


def base_afresh(e, d):
    """The pivot's base half summed afresh on every call: the uncached route."""
    return _Walk(1, 2).bracket(e, d)


def parts(enc):
    return enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()


# x = k/d over [-3, 3], most of it pivoted or reciprocal; eps = c/10^e.
@settings(deadline=None)
@given(
    st.integers(1, 64).flatmap(lambda d: st.integers(-3 * d, 3 * d).map(lambda k: Fraction(k, d))),
    st.builds(lambda c, e: Fraction(c, 10**e), st.integers(1, 9), st.integers(1, 60)),
)
@example(Fraction(1), Fraction(1, 10**60))  # arctan(1), and pi through it
@example(Fraction(1, 2), Fraction(1, 10))  # on the series side of the pivot
@example(Fraction(-2), Fraction(3, 100))
def test_pivot_memo_is_bit_identical_to_the_uncached_route(x, eps):
    # Each call after the first at a width reads the memo; all must give the
    # very rationals the uncached route gives.
    got = [parts(arctan_enclosure(x, eps)) for _ in range(2)]
    got_pi = [parts(pi_enclosure(eps)) for _ in range(2)]
    with mock.patch.object(oracle, "_pivot_base", base_afresh):
        want, want_pi = parts(arctan_enclosure(x, eps)), parts(pi_enclosure(eps))
    assert got == [want, want]
    assert got_pi == [want_pi, want_pi]


def enclosure_by_fractions(x, eps):
    """arctan_enclosure routed as it was on Fractions: comparisons with 0,
    1/2 and 1, the pivot (x - 1/2)/(1 + x/2), eps / 2, eps / 4 and 1 / x,
    with the base half summed afresh.  The reference for the integer route."""
    half = Fraction(1, 2)
    if x < 0:
        inner = enclosure_by_fractions(-x, eps)
        return Enclosure(-inner.hi, -inner.lo)
    if x == 0:
        return Enclosure(Fraction(0), Fraction(0))
    if x <= half:
        return series_enclosure(x, eps)
    if x <= 1:
        u = (x - half) / (1 + x / 2)
        base = series_enclosure(half, eps / 2)
        rest = series_enclosure(u, eps / 2)
        return Enclosure(base.lo + rest.lo, base.hi + rest.hi)
    quarter = enclosure_by_fractions(Fraction(1), eps / 4)
    inv = enclosure_by_fractions(1 / x, eps / 2)
    return Enclosure(2 * quarter.lo - inv.hi, 2 * quarter.hi - inv.lo)


# x over [-4, 4]: short parts, and 300-digit parts; most of it pivoted or
# reciprocal, and the branch points -1, -1/2, 0, 1/2 and 1 themselves.
_routed_args = st.one_of(
    st.integers(1, 10**6).flatmap(
        lambda d: st.integers(-4 * d, 4 * d).map(lambda k: Fraction(k, d))
    ),
    st.integers(10**299, 10**300 - 1).flatmap(
        lambda d: st.integers(-4 * d, 4 * d).map(lambda k: Fraction(k, d))
    ),
    st.sampled_from([Fraction(k, 2) for k in range(-2, 3)]),
)


@settings(deadline=None)
@given(
    _routed_args,
    st.builds(lambda c, e: Fraction(c, 10**e), st.integers(1, 9), st.integers(0, 60)),
)
@example(Fraction(1), Fraction(1, 10**60))
@example(Fraction(-1, 2), Fraction(3, 7))
@example(Fraction(10**300 + 1, 10**300), Fraction(1, 10**30))
def test_integer_routing_is_bit_identical_to_the_fraction_route(x, eps):
    assert parts(arctan_enclosure(x, eps)) == parts(enclosure_by_fractions(x, eps))


class CountingWalk(_Walk):
    """A walk that records its argument and every width asked of it in walks."""

    __slots__ = ("seen",)
    walks: list = []

    def __init__(self, a, b):
        super().__init__(a, b)
        self.seen = []
        self.walks.append((Fraction(a, b), self.seen))

    def bracket(self, e, d):
        self.seen.append(Fraction(e, d))
        return super().bracket(e, d)


def test_the_suite_sums_the_pivot_base_once_per_width(monkeypatch):
    # run_suite(64, 4) keeps one walk per grid point for its four widths,
    # one per index, and encloses the 32 points of (1/2, 1] through the
    # pivot: the series at 1/2 runs once per pivot width (4 walks of one
    # width), not 128 times.  The grid point 1/2 itself is on the series
    # side, one walk at twice those widths.
    walks = []
    monkeypatch.setattr(CountingWalk, "walks", walks)
    monkeypatch.setattr(oracle, "_Walk", CountingWalk)
    monkeypatch.setattr(verify, "_Walk", CountingWalk)
    oracle._pivot_base.cache_clear()
    assert run_suite(64, 4).all_passed
    bounds = [Fraction(1, 4 ** (5 * m)) for m in range(1, 5)]
    at_half = sorted(seen for x, seen in walks if x == Fraction(1, 2))
    assert at_half == sorted([[b / 32] for b in bounds] + [[b / 16 for b in bounds]])
    # The 65 grid points, one walk each over all four widths, and the
    # pivot's four bases.
    assert len(walks) == 65 + 4
    assert sum(seen == [b / 16 for b in bounds] for x, seen in walks) == 65


def test_pivot_memo_is_bounded():
    oracle._pivot_base.cache_clear()
    for e in range(1, 41):
        arctan_enclosure(Fraction(3, 4), Fraction(1, 10**e))
    info = oracle._pivot_base.cache_info()
    assert (info.currsize, info.maxsize, info.misses) == (16, 16, 40)


# Widths as integer pairs e/d, 1 <= e <= 9, over powers of 10 and of 3, so
# some pairs are unreduced (4/1000) and some numerators even in lowest
# terms (2/27); the pivot halves each to e/(2d), unreduced whenever e is even.
_width_pairs = st.lists(
    st.tuples(st.integers(1, 9), st.sampled_from([10, 3]), st.integers(0, 40)).map(
        lambda t: (t[0], t[1] ** t[2])
    ),
    min_size=1,
    max_size=6,
).map(lambda pairs: sorted(pairs, key=lambda w: Fraction(*w), reverse=True))
# x in [0, 1]: its ends, 1/2, just above 1/2, and anywhere.
_walk_args = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.integers(1, 10**6).map(lambda d: Fraction(d + 1, 2 * d)),
    st.integers(1, 10**6).flatmap(lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))),
)


@settings(deadline=None)
@given(_walk_args, _width_pairs)
@example(Fraction(1), [(2, 27), (2, 27), (1, 10**40)])  # an even numerator, twice
@example(Fraction(1, 2), [(1, 24), (1, 25)])  # the first term equals the first width
@example(Fraction(1000001, 2000000), [(9, 1), (4, 1000)])
@example(Fraction(0), [(1, 1), (1, 10)])
def test_walk_brackets_are_the_enclosures(x, widths):
    # Each bracket one walk gives along the run, reduced, is
    # arctan_enclosure's at that width.
    walk = _Walk(*x.as_integer_ratio())
    for width in widths:
        (ln, ld), (hn, hd) = walk.bracket(*width)
        assert ld > 0 and hd > 0
        enc = arctan_enclosure(x, Fraction(*width))
        assert (Fraction(ln, ld), Fraction(hn, hd)) == (enc.lo, enc.hi)


@pytest.mark.parametrize(
    "x, width",
    [
        (Fraction(1, 3), Fraction(1, 10**6)),
        (Fraction(1, 2), Fraction(1, 24)),  # closed by the first term
        (Fraction(1, 64), Fraction(1, 4**22)),
        (Fraction(2, 5), Fraction(3, 10**40)),
    ],
)
def test_a_walk_stops_at_the_term_of_the_width_asked_for(x, width):
    # Asked for its first width, the walk stands at the step whose term
    # a^(2k+1) / ((2k+1) b^(2k+1)) first falls within it, and asked for the
    # same width again, it stays there.
    walk = _Walk(*x.as_integer_ratio())
    k = next(k for k in count(1) if x ** (2 * k + 1) / (2 * k + 1) <= width)
    for _ in range(2):
        lo, hi = (Fraction(*pair) for pair in walk.bracket(*width.as_integer_ratio()))
        assert walk.k == k
        assert hi - lo == x ** (2 * k + 1) / (2 * k + 1)


def euler_enclosure(x, eps):
    """(lo, hi) around arctan(x) for x = a/b in [0, 1], of width at most eps,
    by Euler's series: the sum of t_n = 2^{2n}(n!)^2/(2n+1)! x^{2n+1} /
    (1+x^2)^{n+1}, every term positive, each ratio t_{n+1}/t_n below
    y = x^2/(1+x^2).  So arctan(x) lies in [S_N, S_N + t_N (1+x^2)] after N
    terms.  Integers only, sharing nothing with oracle: t_N = top/den and
    S_N = total/den over the current term's denominator."""
    a, b = x.as_integer_ratio()
    e, d = eps.as_integer_ratio()
    c = a * a + b * b
    top, den, total, n = a * b, c, 0, 0
    while top * c * d > e * den * b * b:  # t_N c/b^2 > eps
        grow = (2 * n + 3) * c
        top, den, total = top * 2 * (n + 1) * a * a, den * grow, (total + top) * grow
        n += 1
    return Fraction(total, den), Fraction(total * b * b + top * c, den * b * b)


def overlaps(lo, hi, enc):
    return max(lo, enc.lo) <= min(hi, enc.hi)


# Arguments in [0, 1] with parts of up to 30 digits, and eps down to 1e-200.
_unit_args = st.integers(1, 10**30).flatmap(
    lambda d: st.integers(0, d).map(lambda n: Fraction(n, d))
)
_euler_eps = st.builds(
    lambda c, e: Fraction(c, 10**e), st.integers(1, 9), st.integers(1, 200)
)


@settings(deadline=None, max_examples=300)
@given(_unit_args, _euler_eps)
@example(Fraction(0), Fraction(1, 10))
@example(Fraction(1), Fraction(1, 10**100))
@example(Fraction(1), Fraction(1, 10**300))
@example(Fraction(1, 2), Fraction(1, 10**100))
@example(Fraction(1, 2), Fraction(1, 10**300))
@example(Fraction(40503, 65536), Fraction(1, 10**100))
@example(Fraction(40503, 65536), Fraction(1, 10**300))
def test_euler_series_overlaps_the_walk(x, eps):
    lo, hi = euler_enclosure(x, eps)
    assert 0 <= hi - lo <= eps
    assert overlaps(lo, hi, arctan_enclosure(x, eps))


@pytest.mark.parametrize("eps", ["1e-100", "1e-300"])
def test_euler_pi_overlaps_pi_enclosure(eps):
    # pi = 4 arctan(1), with Euler's series at eps/4.
    lo, hi = euler_enclosure(Fraction(1), Fraction(eps) / 4)
    assert overlaps(4 * lo, 4 * hi, pi_enclosure(eps))


@pytest.mark.parametrize("x", ["40503/65536", "2"])
def test_served_values_are_within_their_bound_by_euler(x):
    # arctan_auto at 1e-300 serves m = 100.  Euler's enclosure at a sixteenth
    # of the bound lies within the bound of the value; at x = 2 it is
    # pi/2 - arctan(1/2) = 2 arctan(1) - arctan(1/2).
    x = Fraction(x)
    result = arctan_auto(x, "1e-300")
    assert result.m == 100
    width = result.error_bound / 16
    if x <= 1:
        lo, hi = euler_enclosure(x, width)
    else:
        (lo_1, hi_1), (lo_r, hi_r) = (euler_enclosure(y, width / 4) for y in (1, 1 / x))
        lo, hi = 2 * lo_1 - hi_r, 2 * hi_1 - lo_r
    assert result.value - result.error_bound <= lo <= hi <= result.value + result.error_bound
