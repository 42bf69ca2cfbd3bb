"""Polynomial calculus: frozen examples plus seeded algebraic property loops."""

import math
import random
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import no_int_str_limit
from medina_arctan.arctan_eval import decimal_str, pi_estimate
from medina_arctan import poly_core
from medina_arctan.medina import medina_h
from medina_arctan.poly_core import (
    MAX_EXPONENT,
    IntPoly,
    degree,
    horner_den,
    horner_numerator,
    normalize,
    poly,
    poly_add,
    poly_antiderivative,
    poly_derivative,
    poly_eval_horner,
    poly_eval_powers,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_to_strings,
    powers_form,
    powers_at,
    powers_terms,
    rat,
    rat_parse,
    rat_text,
)

P1 = poly([4, 0, -4, 0, 5, -4, 1])
# x^4 (1-x)^4, by binomial expansion of (1-x)^4 shifted up four powers.
WINDOW = poly([0, 0, 0, 0, 1, -4, 6, -4, 1])


def test_rat_parse_exact_decimal():
    assert rat_parse("0.95") == Fraction(19, 20)
    assert rat_parse("22/7") == Fraction(22, 7)
    assert rat_parse("1e-9") == Fraction(1, 10**9)
    assert rat_parse("-3") == Fraction(-3)
    assert rat_parse(" 3/4 ") == Fraction(3, 4)


def test_rat_parse_typographic_minus():
    assert rat_parse("−1/3") == Fraction(-1, 3)


@pytest.mark.parametrize("bad", ["1/0", "abc", "", "1//2", "1.2.3"])
def test_rat_parse_rejects(bad):
    with pytest.raises(ValueError):
        rat_parse(bad)


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 5)) == Fraction(2, 5)
    assert rat("1/3") == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_poly_canonical_form():
    assert poly([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert poly([]) == ()
    assert poly(["1/2", "0.5"]) == (Fraction(1, 2), Fraction(1, 2))
    assert degree(poly([])) == -1
    assert degree(P1) == 6
    assert normalize([Fraction(0)]) == ()


def test_eval_horner_examples():
    assert poly_eval_horner(poly([3, 0, 1]), 2) == 7
    assert poly_eval_horner(poly([]), 5) == 0
    assert poly_eval_horner(P1, 1) == 2


def horner_by_fractions(p, x):
    """The Fraction loop that poly_eval_horner ran before it moved to integers."""
    x = rat(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = c + x * acc
    return acc


def horner_flat(nums, a, b):
    """The one integer loop horner_numerator ran on every form before it
    merged blocks: the reference for the merged path."""
    acc, scale = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * scale
        scale *= b
    return acc


FLAT_MAX, BLOCK = poly_core._FLAT_MAX, poly_core._BLOCK
# Lengths at the cutover and at block edges: the longest flat form; one past
# it, with a one-coefficient last block; even and odd block counts with a
# full last block; odd counts ending in one coefficient or a partial block.
EDGE_LENGTHS = [
    FLAT_MAX,
    FLAT_MAX + 1,
    4 * BLOCK,
    5 * BLOCK,
    4 * BLOCK + 1,
    8 * BLOCK + 1,
    9 * BLOCK + 1,
    9 * BLOCK + 12,
]
EDGE_POINTS = [(-40503, 65536), (0, 2**64), (2**64 - 1, 2**64), (-7, 1), (3, 1)]


def at_block_edges(test):
    rng = random.Random(20)
    for n in EDGE_LENGTHS:
        nums = [rng.randint(-(2**80), 2**80) for _ in range(n)]
        for a, b in EDGE_POINTS:
            test = example(nums, a, b)(test)
    return test


@settings(deadline=None)
@given(
    st.integers(0, 300).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0), st.integers(-(2**80), 2**80)), min_size=n, max_size=n
        )
    ),
    st.one_of(st.just(0), st.integers(-(2**64), 2**64)),
    st.one_of(st.just(1), st.integers(1, 2**64)),
)
@at_block_edges
def test_block_merge_matches_the_flat_loop(nums, a, b):
    assert horner_numerator(nums, a, b) == horner_flat(nums, a, b)


# h_20 has more than _FLAT_MAX coefficients, and b = 1 still runs one loop.
@pytest.mark.parametrize(
    "nums",
    [(), (5,), (3, 0, -2, 7), medina_h(7).nums, medina_h(20).nums],
    ids=["zero", "constant", "cubic", "h_7", "h_20"],
)
def test_horner_at_an_integer_point(nums):
    # At x = 1, the pi bootstrap's point, the integer is the sum of the
    # numerators; every other integer point runs the flat loop.
    assert horner_numerator(nums, 1, 1) == sum(nums) == horner_flat(nums, 1, 1)
    for a in (-5, 0, 2):
        assert horner_numerator(nums, a, 1) == horner_flat(nums, a, 1)
        assert horner_numerator(nums, a, 1) == powers_at(powers_terms(nums, 1), a)


# Raw tuples, so plain ints, zeros and the empty polynomial all occur, and
# denominators differ from one coefficient to the next.
coefficients = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=2**40),
    ),
)
points = st.one_of(
    st.just(0),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=2**64),
    ),
)


@given(st.lists(coefficients, max_size=40).map(tuple), points)
def test_eval_horner_matches_fraction_loop(p, x):
    value = poly_eval_horner(p, x)
    assert isinstance(value, Fraction)
    assert value == horner_by_fractions(p, x)


def assert_horner_exact(p, x):
    coeffs = p.poly() if isinstance(p, IntPoly) else p
    assert poly_eval_horner(p, x) == horner_by_fractions(coeffs, x)


@given(
    st.lists(coefficients, max_size=40).map(tuple),
    st.lists(points, min_size=1, max_size=3),
)
def test_repeated_eval_horner_matches_fraction_loop(p, xs):
    # An IntPoly is the integer form, made once and reused on every call;
    # the plain tuple, a value-equal copy, a same-length neighbour and other
    # tuples evaluated in between must not change any answer.
    prepared = IntPoly.of(p)
    neighbour = tuple(c + 1 for c in p)
    others = [p + (Fraction(k + 1),) for k in range(17)]
    for x in xs:
        for q in (prepared, p, prepared, tuple(list(p)), neighbour, *others, prepared):
            assert_horner_exact(q, x)


def test_eval_horner_reads_each_new_tuple_afresh():
    # Tuples made and dropped in turn often reuse one id.
    for k in range(200):
        assert_horner_exact(tuple(Fraction(k, j + 1) for j in range(5)), Fraction(3, 7))


def test_eval_horner_rereads_a_mutated_list():
    p = [Fraction(1), Fraction(1, 2)]
    assert poly_eval_horner(p, 3) == Fraction(5, 2)
    p[1] = Fraction(5)
    assert poly_eval_horner(p, 3) == 16


def test_int_poly_is_an_immutable_value():
    form = IntPoly(30, (10, 12, -105))
    with pytest.raises(AttributeError, match="^cannot assign to 'den': IntPoly is immutable$"):
        form.den = 1
    assert form != (10, 12, -105) and form != form.poly()
    assert repr(form) == "IntPoly(30, (10, 12, -105))"
    assert eval(repr(form)) == form


def test_int_poly_is_hashable():
    # Equal forms hash equal, so an IntPoly can key a dict or sit in a set.
    h = medina_h(2)
    same = IntPoly.of(h.poly())
    assert same is not h and same == h and hash(same) == hash(h)
    assert len({h, same, IntPoly(30, (10, 12, -105))}) == 2


def test_eval_horner_forms_once_per_prepared(monkeypatch):
    calls = []

    def lcm(*args):
        calls.append(args)
        return math.lcm(*args)

    monkeypatch.setattr(poly_core, "math", SimpleNamespace(lcm=lcm))
    p = poly(["1/3", "2/5", "-7/2"])
    prepared = IntPoly.of(p)
    assert prepared == IntPoly(30, (10, 12, -105)) and list(prepared) == [10, 12, -105]
    assert prepared.poly() == p
    assert len(calls) == 1
    for x in range(20):
        assert_horner_exact(prepared, x)
    assert len(calls) == 1
    # A plain tuple keeps nothing: its form is made again on every call.
    for x in range(20):
        assert_horner_exact(p, x)
    assert len(calls) == 21


def test_eval_horner_prepared_under_threads():
    # Every thread evaluates one shared integer form at once; at 200
    # coefficients it is past the cutover, so the blocks merge in each.
    rng = random.Random(7)
    coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(200)]
    p = IntPoly.of(coeffs)
    failures = []
    start = threading.Barrier(8)

    def work(seed):
        rng = random.Random(seed)
        start.wait(timeout=60)
        for _ in range(100):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if poly_eval_horner(p, x) != horner_by_fractions(coeffs, x):
                failures.append(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


EVAL_POINTS = [
    0,
    1,
    Fraction(19, 20),
    Fraction(1, 65536),
    Fraction(65535, 65536),
    Fraction(-3, 7),
    # A reciprocal image of a warm-mixed argument: a 25-bit denominator.
    Fraction(32768, 20909073),
]


# m = 12 has 96 coefficients, the most the flat loop takes; from m = 13 on
# the blocks are merged.
@pytest.mark.parametrize("m", [*range(1, 14), 17, 34, 80, 333])
def test_eval_horner_bit_identical_on_approximants(m):
    h = medina_h(m)
    for x in EVAL_POINTS:
        got, want = poly_eval_horner(h, x), horner_by_fractions(h.poly(), x)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    if m in (1, 7, 34):
        assert pi_estimate(m).value == 4 * horner_by_fractions(h.poly(), 1)


def test_eval_powers_examples():
    assert poly_eval_powers(poly([3, 0, 1]), 2) == 7
    assert poly_eval_powers(poly([0, 1]), Fraction(7, 9)) == Fraction(7, 9)
    assert poly_eval_powers(poly([1, 1, 1]), Fraction(1, 2)) == Fraction(7, 4)


def powers_by_fractions(p, x):
    """The powers route in Fraction arithmetic, a multiply and an add a term:
    the reference for poly_eval_powers, which sums integer terms."""
    x = rat(x)
    return sum((c * x**i for i, c in enumerate(p)), Fraction(0))


def powers_by_integer_terms(p, x):
    """The powers route with each nonzero term made from integer powers as one
    Fraction, (n_i a^i) / (d_i b^i), and the terms added as Fractions with no
    common denominator: the second reference for poly_eval_powers."""
    a, b = rat(x).as_integer_ratio()
    terms = (Fraction(c.numerator * a**i, c.denominator * b**i) for i, c in enumerate(p) if c)
    return sum(terms, Fraction(0))


# Coefficients with zeros among them, as ints (plain tuples) or Fractions.
_coeffs = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**300)),
)
_long_points = st.builds(
    Fraction, st.integers(-(10**300), 10**300), st.integers(10**299, 10**300)
)
_points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 7)]),
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
    _long_points,
)


@settings(deadline=None)
@given(st.lists(_coeffs, max_size=40), _points)
@example([0, 0, 0], 0)
@example([0, 0, 5], 0)
@example([Fraction(1, 3), 0, 0, -2], 1)
@example([], Fraction(-7, 2))
@example(list(medina_h(8).poly()), Fraction(-65535, 65536))
@example(list(medina_h(80).poly()), Fraction(40503, 65536))
def test_eval_powers_is_bit_identical_to_the_fraction_sum(coeffs, x):
    p = tuple(coeffs)
    got = poly_eval_powers(p, x)
    assert type(got) is Fraction
    for want in (powers_by_fractions(p, x), powers_by_integer_terms(p, x)):
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == poly_eval_horner(normalize(rat(c) for c in p), x)


def test_eval_powers_shares_nothing_with_horner(monkeypatch):
    # A second scheme: no integer form and no Horner nesting behind it.
    def refuse(*args):
        raise AssertionError("the powers route reached the Horner side")

    h = medina_h(8).poly()
    want = [horner_by_fractions(h, x) for x in EVAL_POINTS]
    monkeypatch.setattr(IntPoly, "of", classmethod(refuse))
    monkeypatch.setattr(poly_core, "poly_eval_horner", refuse)
    monkeypatch.setattr(poly_core, "horner_numerator", refuse)
    assert [poly_eval_powers(h, x) for x in EVAL_POINTS] == want


@given(
    st.lists(coefficients, max_size=40).map(tuple),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=1, max_value=2**40),
)
@example((), 3, 6)
@example((Fraction(1, 3), 0, 5, 0), 2, 4)
@example(tuple(medina_h(3).poly()), 6, 8)
def test_numerators_at_an_unreduced_point(p, a, b):
    # The lemma suite reads both loops at k/n without reducing it: each gives
    # its own denominator times b^n p(a/b), n = len(p) - 1, for any b > 0.
    x, n = Fraction(a, b), len(p) - 1
    value = horner_by_fractions(p, x)
    want = value * b ** max(n, 0)
    form = IntPoly.of(p)
    numerator = horner_numerator(form.nums, a, b)
    assert numerator == want * form.den
    assert Fraction(numerator, horner_den(form, b)) == value  # horner_den's D b^n
    den, nums = powers_form(p)
    assert den == form.den and len(nums) == len(p)
    assert powers_at(powers_terms(nums, b), a) == want * den


# Forms over D = 2^k 3^j, whose numerators carry a common factor built from
# the primes of the b drawn below, so that after gcd(N, D) primes of b are
# often left to strip; none, one, or about _FLAT_MAX coefficients.
reduction_forms = st.one_of(
    st.builds(
        lambda k, j, scale, nums: IntPoly(2**k * 3**j, tuple(scale * c for c in nums)),
        st.integers(0, 80),
        st.integers(0, 40),
        st.builds(lambda s, t, u: 2**s * 3**t * 5**u, *[st.integers(0, 30)] * 3),
        st.one_of(st.integers(0, 3), st.integers(FLAT_MAX - 2, FLAT_MAX + 2)).flatmap(
            lambda n: st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n)
        ),
    ),
    st.sampled_from([medina_h(m) for m in (1, 2, 7, 12, 13, 20)]),
)
reduction_points = st.builds(
    Fraction,
    st.one_of(st.just(0), st.integers(-(2**64), 2**64)),
    st.one_of(st.sampled_from([1, 2, 6, 12, 1000]), st.integers(1, 2**64)),
)


@settings(deadline=None)
@given(reduction_forms, reduction_points)
@example(IntPoly(1, ()), Fraction(3, 2))
@example(IntPoly(12, (36,)), Fraction(-5, 6))
@example(IntPoly(2**40, (0, 2**50, -(2**45))), Fraction(1, 2))
@example(IntPoly(1, (-1, 2)), Fraction(1, 2))  # a root: the value is 0
@example(medina_h(13), Fraction(0))
@example(medina_h(13), Fraction(-7, 1))
@example(medina_h(20), Fraction(999, 1000))
def test_horner_reduction_is_the_full_gcd_bit_for_bit(form, x):
    # poly_eval_horner reduces by gcd(N, D) and then by b's primes, and
    # builds the Fraction without a gcd of its own: the stored pair must be
    # the one a full gcd of N with D b^n gives, and the powers route's.
    a, b = x.as_integer_ratio()
    value = poly_eval_horner(form, x)
    num, den = value.as_integer_ratio()
    want = Fraction(horner_numerator(form.nums, a, b), horner_den(form, b))
    assert type(value) is Fraction
    assert (num, den) == want.as_integer_ratio()
    assert (num, den) == poly_eval_powers(form, x).as_integer_ratio()
    assert math.gcd(num, den) == 1 and den > 0
    assert hash(value) == hash(want) and value == want


class KeywordlessFraction(Fraction):
    """A Fraction with neither private route: no classmethod, no keyword."""

    _from_coprime_ints = None

    def __new__(cls, numerator=0, denominator=None, **keywords):
        if keywords:
            raise TypeError(f"unexpected keywords {sorted(keywords)}")
        return super().__new__(cls, numerator, denominator)


def test_coprime_route_falls_back_to_plain_fraction(monkeypatch):
    # An interpreter without either private route costs a gcd per value,
    # never a wrong one or an error: plain Fraction is the route left.
    assert poly_core._coprime_route() is poly_core._coprime_fraction
    assert poly_core._coprime_fraction(-2, 3).as_integer_ratio() == (-2, 3)
    with monkeypatch.context() as patch:
        patch.setattr(poly_core, "Fraction", KeywordlessFraction)
        route = poly_core._coprime_route()
    assert route is KeywordlessFraction
    monkeypatch.setattr(poly_core, "_coprime_fraction", route)
    value = poly_eval_horner(IntPoly(12, (36, 6)), Fraction(-5, 6))
    assert value.as_integer_ratio() == (31, 12)  # 186/72, 3 - 5/12


def test_each_evaluation_wraps_its_one_loop(monkeypatch):
    # No second copy of either loop: each Fraction route reads its own.
    calls = []
    for name in ("horner_numerator", "powers_terms", "powers_at"):

        def counted(*args, _loop=getattr(poly_core, name), _name=name):
            calls.append(_name)
            return _loop(*args)

        monkeypatch.setattr(poly_core, name, counted)
    h = medina_h(2).poly()
    assert poly_eval_horner(h, Fraction(3, 7)) == poly_eval_powers(h, Fraction(3, 7))
    assert calls == ["horner_numerator", "powers_terms", "powers_at"]


def test_add_examples():
    assert poly_add(poly([1, 2]), poly([0, -2])) == (Fraction(1),)
    assert poly_add(P1, poly([])) == P1
    assert poly_add(P1, poly([-4, 0, 4, 0, -5, 4, -1])) == ()


def test_scale_examples():
    assert poly_scale(poly([4, 0, -4]), Fraction(1, 4)) == poly([1, 0, -1])
    assert poly_scale(P1, 0) == ()
    assert poly_scale(P1, 1) == P1


def test_mul_examples():
    assert poly_mul(poly([0, 1]), poly([1, -1])) == poly([0, 1, -1])
    assert poly_mul(P1, poly([])) == ()
    hump_sq = poly_mul(poly([0, 1, -1]), poly([0, 1, -1]))
    assert poly_mul(hump_sq, hump_sq) == WINDOW
    # p_1 (1 + x^2) = x^4 (1-x)^4 + 4, the closed form at m = 1.
    assert poly_mul(P1, poly([1, 0, 1])) == poly_add(WINDOW, poly([4]))


def test_derivative_examples():
    assert poly_derivative(poly([3, 0, 1])) == poly([0, 2])
    assert poly_derivative(poly([7])) == ()
    assert poly_derivative(P1) == poly([0, -8, 0, 20, -20, 6])


def test_antiderivative_examples():
    assert poly_antiderivative(poly([1])) == poly([0, 1])
    assert poly_antiderivative(poly([])) == ()
    assert poly_antiderivative(poly_scale(P1, Fraction(1, 4))) == poly(
        [0, 1, 0, "-1/3", 0, "1/4", "-1/6", "1/28"]
    )
    # Beta(5, 5) = 4! 4! / 9!
    assert poly_eval_horner(poly_antiderivative(WINDOW), 1) == Fraction(1, 630)


def test_antiderivative_of_int_coefficients_is_exact():
    # Integer rows (the reference recurrence's) integrate to Fractions, never
    # to floats, at any size.
    anti = poly_antiderivative((1, 2))
    assert anti == (0, 1, 1)
    assert all(type(c) is Fraction for c in anti)
    big = 10**400 + 1
    anti = poly_antiderivative((big, 3, big))
    assert anti == (0, big, Fraction(3, 2), Fraction(big, 3))
    assert all(type(c) is Fraction for c in anti)
    assert anti == poly_antiderivative(poly([big, 3, big]))


def test_string_round_trip():
    assert poly_to_strings(poly([0, 1, 0, "-1/3"])) == ["0", "1", "0", "-1/3"]
    assert tuple(map(rat_parse, ["4", "0", "-4", "0", "5", "-4", "1"])) == P1
    assert poly_to_strings(P1) == ["4", "0", "-4", "0", "5", "-4", "1"]
    assert poly_to_strings(()) == []


@pytest.mark.parametrize("m", [1, 2, 7, 13, 34])
def test_intpoly_reads_as_its_coefficients(m):
    # An IntPoly is its coefficients to both routes, to the text rule, to
    # poly() and to IntPoly.of, not its numerators with den dropped.
    h = medina_h(m)
    for x in (Fraction(1, 2), Fraction(3, 7), Fraction(40503, 65536), 1):
        assert poly_eval_powers(h, x) == poly_eval_horner(h, x)
    assert poly_to_strings(h) == poly_to_strings(h.poly())
    assert poly(h) == h.poly()
    assert IntPoly.of(h) == h


def test_string_round_trip_past_the_int_str_limit():
    p = (Fraction(1, 10**5000), Fraction(-(7**6000), 3), Fraction(2))
    strings = poly_to_strings(p)
    assert strings[0] == "1/1" + "0" * 5000
    assert strings[2] == "2"
    assert tuple(map(rat_parse, strings)) == p


def test_int_check_message_past_the_int_str_limit():
    # The value is echoed by the one rule, cut past 40 digits.
    message = r"^digits must be an integer >= 0, got -1000000000…0{10} \(5001 digits\)$"
    with pytest.raises(ValueError, match=message):
        decimal_str(0, -(10**5000))
    with pytest.raises(ValueError, match=r"got '2'$"):
        decimal_str(0, "2")


def test_decimal_places_are_capped_before_the_power_of_ten():
    # 10^digits is formed only up to rat_parse's exponent cap, since its cost
    # grows about as digits^2 and 10^9 is ten bytes to ask for.  The cap
    # itself still renders in full.
    with pytest.raises(ValueError, match=r"^digits must be <= 100000, got 1000000000$"):
        decimal_str(Fraction(1, 3), 10**9)
    with pytest.raises(ValueError, match=r"got 1000000000…0000000000 \(5001 digits\)$"):
        decimal_str(0, 10**5000)
    assert decimal_str(Fraction(1, 3), MAX_EXPONENT) == "0." + "3" * MAX_EXPONENT


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(1, 10**39), "1/1" + "0" * 39),
        (Fraction(1, 10**40), "1/1000000000…0000000000 (41 digits)"),
        (
            Fraction(10**40 + 7, 3**90),
            "1000000000…0000000007 (41 digits)/8727963568…7340041449 (43 digits)",
        ),
        (Fraction(10**40 + 1), "1000000000…0000000001 (41 digits)"),
        (-(10**40) - 1, "-1000000000…0000000001 (41 digits)"),
        (Fraction(-1, 10**40), "-1/1000000000…0000000000 (41 digits)"),
        (10**5000, "1000000000…0000000000 (5001 digits)"),
        ("a" * 38, "'" + "a" * 38 + "'"),
        ("a" * 39, "'aaaaaaaaa…aaaaaaaaa' (41 characters)"),
        (2.5, "2.5"),
        (True, "True"),
    ],
    ids=[
        "40-digits",
        "41-digits",
        "both-parts",
        "integer",
        "negative",
        "negative-fraction",
        "past-int-str-limit",
        "repr-40-characters",
        "repr-41-characters",
        "float",
        "bool",
    ],
)
def test_refusals_cut_parts_past_forty_digits(value, text):
    # A rational is written as rat_text writes it, its sign aside; anything
    # else as its repr.  Each part past 40 digits or characters keeps its
    # first and last ten around "…", and its length.
    assert poly_core._brief(value) == text


def _with_digits(count, rest):
    """A positive int of exactly `count` decimal digits."""
    return 10 ** (count - 1) + rest % (9 * 10 ** (count - 1))


def _brief_by_text(value):
    """_brief's rule applied to the whole text of a rational."""
    with no_int_str_limit():
        text = str(value)
    sign = "-" if text.startswith("-") else ""
    return sign + "/".join(
        f"{part[:10]}…{part[-10:]} ({len(part)} digits)" if len(part) > 40 else part
        for part in text.removeprefix("-").split("/")
    )


# 40 and 41 digits, and both sides of the 4,300-digit int-to-str limit.
_brief_counts = st.one_of(st.integers(38, 43), st.integers(4290, 4310))
_brief_parts = st.one_of(
    st.builds(_with_digits, _brief_counts, st.integers(0, 2**160)),
    _brief_counts.map(lambda count: 10 ** (count - 1)),
    _brief_counts.map(lambda count: 10**count - 1),
)


@given(st.sampled_from([1, -1]), _brief_parts, st.one_of(st.just(1), _brief_parts))
@example(1, 10**40, 1)
@example(-1, 10**40 - 1, 1)
@example(1, 1, 10**4300)
@example(-1, 10**4299, 10**4300 - 1)
def test_brief_cuts_by_arithmetic_what_the_text_rule_cuts(sign, num, den):
    # The head, the tail and the digit count come from arithmetic on the
    # value, and read byte for byte as they would cut from its whole text.
    for value in (sign * num, Fraction(sign * num, den)):
        assert poly_core._brief(value) == _brief_by_text(value)


def test_brief_does_not_write_out_a_long_int(monkeypatch):
    # _brief once rendered the whole value before cutting it: an index of
    # 10^1,000,000 took 23 s to be refused with a 74-character message.
    with pytest.raises(ValueError) as caught:
        medina_h(10**200_000)
    assert str(caught.value) == (
        "sequence index must be <= 2000, got 1000000000…0000000000 (200001 digits)"
    )
    n = -(7**50_000)
    expected = _brief_by_text(n)
    monkeypatch.setattr(poly_core, "rat_text", None)  # no whole rendering
    assert poly_core._brief(n) == expected == "-7979959970…4030000001 (42255 digits)"


def test_brief_survives_a_repr_that_raises():
    # A container's repr raises past the int-to-str digit limit; the
    # package's own message still comes out, short, naming the type.
    with pytest.raises(ValueError) as caught:
        poly_core.check_int([10**5000], "m", 1)
    message = str(caught.value)
    assert message == "m must be an integer >= 1, got <unprintable list>"
    assert len(message.encode()) < 200


# Digit counts on both sides of the interpreter's 4,300-digit default limit.
_digit_counts = st.one_of(st.integers(1, 40), st.integers(4290, 4310))
_parts = st.builds(_with_digits, _digit_counts, st.integers(0, 2**128))
_rationals = st.one_of(
    st.builds(lambda sign, n: sign * n, st.sampled_from([1, -1]), _parts),
    st.builds(
        lambda sign, n, d: Fraction(sign * n, d),
        st.sampled_from([1, -1]),
        _parts,
        _parts,
    ),
)


@given(_rationals)
def test_rat_text_is_str_and_inverts_rat_parse(q):
    text = rat_text(q)
    assert rat_parse(text) == q
    try:
        expected = str(q)
    except ValueError:
        with no_int_str_limit():
            expected = str(q)
    assert text == expected


# Text of either form on both sides of the digit limit, well-formed or not.
_digit_runs = st.builds(
    lambda head, digit, count: head + digit * count,
    st.text("0123456789", max_size=4),
    st.sampled_from("0123456789"),
    _digit_counts,
)


def _maybe(strategy):
    return st.one_of(st.just(""), strategy)


_texts = st.one_of(
    st.builds(
        "{}{}{}{}{}".format,
        _maybe(st.sampled_from(["-", "+", "−", " "])),
        _maybe(_digit_runs),
        _maybe(st.one_of(st.just("."), _digit_runs.map(".{}".format))),
        _maybe(st.builds("{}{}".format, st.sampled_from("eE"), st.integers(-60, 60))),
        _maybe(st.sampled_from([" ", "/3", "_1"])),
    ),
    st.builds(
        "{}{}{}{}".format,
        _maybe(st.sampled_from(["-", "+", "−"])),
        _digit_runs,
        st.sampled_from(["/", " / ", "//"]),
        _digit_runs,
    ),
)


@given(_texts)
@example("1 / 3")
@example("1e-9/3")
@example("nan")
@example("0x10")
@example("1_000/3_0")
@example("1" * 4301 + "/0")
def test_rat_parse_reads_what_fraction_reads(text):
    # Under the default digit limit, rat_parse gives what Fraction gives with
    # the limit lifted, and raises where Fraction raises.
    with no_int_str_limit():
        try:
            expected = Fraction(text.replace("−", "-"))
        except (ValueError, ZeroDivisionError) as error:
            expected = type(error)
    if expected is ValueError:
        with pytest.raises(ValueError, match="^malformed rational"):
            rat_parse(text)
    elif expected is ZeroDivisionError:
        with pytest.raises(ValueError, match="^zero denominator"):
            rat_parse(text)
    else:
        assert rat_parse(text) == expected


def test_rat_parse_refuses_a_long_part_with_a_giant_exponent():
    # Fraction would need 10^(10^19); decimal refuses such an exponent.
    with pytest.raises(ValueError, match="^exponent out of range"):
        rat_parse("1" * 5000 + "e" + "9" * 19)


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_rat_parse_caps_the_written_exponent(sign):
    # The cap is checked before any power of ten is computed, so a 24-byte
    # text with an 18-digit exponent is refused at once.
    assert rat_parse(f"1e{sign}100000") == Fraction(10) ** int(f"{sign}100000")
    assert rat_parse(f"1E{sign}0_100_000") == rat_parse(f"1e{sign}100000")
    for text in (f"1e{sign}100001", f"2.5E{sign}1_000_000", f"1e{sign}" + "9" * 18):
        with pytest.raises(ValueError, match="^exponent out of range in rational"):
            rat_parse(text)


def test_rat_parse_errors_past_the_int_str_limit():
    # Each message echoes the text by the one rule, cut past 40 characters.
    for text, message in [
        ("1/" + "0" * 5000, "zero denominator in rational '1/0000000…000000000'"),
        ("1" * 5000 + "/2/3", "malformed rational '111111111…11111/2/3'"),
        ("1e" + "9" * 5000, "exponent out of range in rational '1e9999999…999999999'"),
    ]:
        with pytest.raises(ValueError) as caught:
            rat_parse(text)
        assert str(caught.value) == f"{message} ({len(text) + 2} characters)"


def _random_poly(rng, max_degree=20):
    return poly(
        Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        for _ in range(rng.randint(0, max_degree + 1))
    )


def _random_point(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def test_ring_laws_seeded():
    rng = random.Random(1729)
    for _ in range(50):
        p, q, r = (_random_poly(rng, 12) for _ in range(3))
        assert poly_mul(poly_add(p, q), r) == poly_add(poly_mul(p, r), poly_mul(q, r))
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_sub(p, p) == ()
        assert poly_add(poly_sub(p, q), q) == p
        x = _random_point(rng)
        assert poly_eval_horner(poly_mul(p, q), x) == poly_eval_horner(
            p, x
        ) * poly_eval_horner(q, x)


def test_calculus_round_trips_seeded():
    rng = random.Random(1729)
    for _ in range(50):
        p = _random_poly(rng)
        anti = poly_antiderivative(p)
        assert poly_derivative(anti) == p
        assert poly_eval_horner(anti, 0) == 0
