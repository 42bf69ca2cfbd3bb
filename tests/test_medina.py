"""Sequence construction: frozen landmarks, degree laws, both build routes."""

import math
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import comb

import pytest

from conftest import REF_ARCTAN_1, REF_ARCTAN_HALF
from medina_arctan import medina, poly_core
from medina_arctan.medina import (
    HUMP,
    MedinaPair,
    approximant,
    medina_closed_numerator,
    medina_error_bound,
    medina_h,
    medina_min_m_for,
    medina_p1,
    medina_p_closed,
    medina_p_recurrence,
    medina_pair,
    medina_scale,
    window_poly,
)
from medina_arctan.oracle import arctan_enclosure
from medina_arctan.poly_core import (
    IntPoly,
    degree,
    poly,
    poly_add,
    poly_antiderivative,
    poly_eval_horner,
    poly_mul,
    poly_scale,
    poly_to_strings,
    rat_parse,
)
from medina_arctan.verify import corrupted_seed


def test_seed_polynomial():
    p1 = medina_p1()
    assert p1 == poly([4, 0, -4, 0, 5, -4, 1])
    assert poly_eval_horner(p1, 0) == 4
    assert poly_eval_horner(p1, 1) == 2


def test_recurrence_small_indices():
    assert medina_p_recurrence(1) == medina_p1()
    p2 = medina_p_recurrence(2)
    assert degree(p2) == 14
    assert p2[0] == -16  # constant term from (-4) * 4
    assert p2[-1] == 1
    assert degree(medina_p_recurrence(3)) == 22


def test_closed_form_matches_recurrence():
    # The shipped h_m (closed form) against the h rule on the recurrence, the
    # binomial window against 4m products of x(1 - x), and p_m (1 + x^2)
    # against the numerator, which holds exactly when 1 + x^2 divides it.
    for m in [*range(1, 11), 16, 24]:
        recurrence = medina_p_recurrence(m)
        assert medina_p_closed(m) == recurrence
        assert medina_h(m).poly() == approximant(recurrence, m)
        assert window_poly(m) == reduce(poly_mul, (HUMP,) * (4 * m), (Fraction(1),))
        numerator = poly(medina_closed_numerator(m))
        assert poly_mul(poly([1, 0, 1]), medina_p_closed(m)) == numerator


def test_shipped_approximant_skips_the_recurrence(monkeypatch):
    expected = approximant(medina_p_recurrence(5), 5)

    def refuse(*args):
        raise AssertionError("the shipped h_m must not use this")

    monkeypatch.setattr(medina, "recurrence", refuse)
    monkeypatch.setattr(medina, "poly_mul", refuse)
    assert medina_h.__wrapped__(5).poly() == expected


def p_by_index_loop(seed, m):
    """p_m as the per-index loop grew it before the recurrence became one walk."""
    p = seed
    for j in range(2, m + 1):
        shift = Fraction(-4) ** (j - 1)
        p = poly_add(poly_mul(window_poly(1), p), poly_scale(seed, shift))
    return p


@pytest.mark.parametrize(
    "seed", [medina_p1(), corrupted_seed()], ids=["shipped", "corrupted"]
)
def test_walk_matches_the_per_index_loop(seed):
    walk = list(islice(medina.recurrence(seed), 12))
    assert walk == [p_by_index_loop(seed, m) for m in range(1, 13)]
    # Plain Fraction tuples: the verifier puts each into integer form once.
    assert all(type(p) is tuple for p in walk)
    assert all(type(c) is Fraction for p in walk for c in p)


@pytest.mark.parametrize("m", [1, 2, 7, 17, 34])
def test_approximants_are_prepared_and_unchanged(m):
    # The rule h_m was built by before it kept its Horner form.  The shipped
    # h_m comes in that form, the one IntPoly.of makes from the old tuple.
    old = poly_scale(poly_antiderivative(medina_p_closed(m)), 1 / medina_scale(m))
    assert approximant(medina_p_recurrence(m), m) == old
    assert medina_h(m) == IntPoly.of(old)
    assert medina_h(m).poly() == old


def approximant_by_fractions(p, m):
    """approximant as it was before medina_h moved to integers (it returned
    the tuple as a Prepared, which kept the form below on first use)."""
    s = medina_scale(m).numerator
    terms = (Fraction(c.numerator, c.denominator * s * k) for k, c in enumerate(p, 1))
    return (Fraction(0), *terms)


def horner_form(p):
    """Prepared.horner_form before IntPoly: (D, [D*c_i] highest power first)."""
    den = math.lcm(*(c.denominator for c in p))
    return den, [den // c.denominator * c.numerator for c in reversed(p)]


def test_integer_form_is_the_old_horner_form():
    # Reduced once at construction: the same D and numerators as before, so
    # evaluation does the same integer work.
    for m in [*range(1, 81), 160, 333, 665]:
        h = medina_h(m)
        den, scaled = horner_form(approximant_by_fractions(medina_p_closed(m), m))
        assert (h.den, h.nums) == (den, tuple(reversed(scaled)))
        assert list(h) == list(h.nums) and all(type(c) is int for c in h)


def test_integer_form_reads_as_the_reference_approximant():
    for m in range(1, 25):
        h = medina_h(m).poly()
        assert h == approximant(medina_p_recurrence(m), m) == medina_pair(m).h


@pytest.mark.parametrize("m", [1, 2, 7, 34, 80])
def test_shipped_approximant_makes_no_fraction(monkeypatch, m):
    def refuse(*args, **kwargs):
        raise AssertionError("medina_h made a Fraction")

    monkeypatch.setattr(medina, "Fraction", refuse)
    monkeypatch.setattr(poly_core, "Fraction", refuse)
    h = medina_h.__wrapped__(m)
    assert type(h) is IntPoly and len(h) == 8 * m


def test_medina_h_cache_is_a_bounded_lru():
    assert medina_h.cache_info().maxsize == 16
    medina_h.cache_clear()
    medina_h(1)
    for m in range(2, 17):  # fifteen others: index 1 is still kept
        medina_h(m)
    hits = medina_h.cache_info().hits
    medina_h(1)
    assert medina_h.cache_info().hits == hits + 1
    for m in range(17, 33):  # sixteen others since index 1 was last used
        medina_h(m)
    misses = medina_h.cache_info().misses
    medina_h(1)
    assert medina_h.cache_info().misses == misses + 1
    assert medina_h.cache_info().currsize == 16


@pytest.mark.parametrize(
    "seed",
    [medina_p1(), corrupted_seed(), poly(["1/3", "-2/5", 0, "7/4"])],
    ids=["shipped", "corrupted", "fractional"],
)
def test_approximant_matches_scale_then_integrate(seed):
    # The route approximant took before scaling and integration became one
    # Fraction per coefficient.
    for m, p in enumerate(islice(medina.recurrence(seed), 12), start=1):
        h = approximant(p, m)
        assert h == poly_antiderivative(poly_scale(p, 1 / medina_scale(m)))
        assert all(isinstance(c, Fraction) for c in h)


def binomial_row(m):
    """x^{4m} (1-x)^{4m} from math.comb, one binomial per power."""
    n = 4 * m
    return (0,) * n + tuple((-1) ** k * comb(n, k) for k in range(n + 1))


def test_window_row_matches_binomials():
    for m in [*range(1, 201), 665]:
        assert window_poly(m) == binomial_row(m)


def test_closed_form_refuses_an_indivisible_numerator(monkeypatch):
    # x + x^2 is 1 + x^2 plus the remainder x - 1.
    monkeypatch.setattr(medina, "medina_closed_numerator", lambda m: poly([0, 1, 1]))
    with pytest.raises(ArithmeticError, match="does not divide"):
        medina_p_closed(1)


def test_shipped_approximant_refuses_an_indivisible_numerator(monkeypatch):
    # medina_h divides the same numerator, through the same check.
    monkeypatch.setattr(medina, "medina_closed_numerator", lambda m: [0, 1, 1])
    with pytest.raises(ArithmeticError, match="does not divide"):
        medina_h.__wrapped__(1)


@pytest.mark.parametrize(
    "numerator",
    [poly([2, 0, 1]), poly([0, 0, 0, 1])],
    ids=["2+x^2 leaves 1", "x^3 leaves -x"],
)
def test_closed_form_reads_both_remainder_coefficients(monkeypatch, numerator):
    monkeypatch.setattr(medina, "medina_closed_numerator", lambda m: numerator)
    with pytest.raises(ArithmeticError, match="does not divide"):
        medina_p_closed(1)


@pytest.mark.parametrize(
    "numerator", [[2, 0, 1], [0, 0, 0, 1]], ids=["2+x^2 leaves 1", "x^3 leaves -x"]
)
def test_shipped_approximant_reads_both_remainder_coefficients(monkeypatch, numerator):
    monkeypatch.setattr(medina, "medina_closed_numerator", lambda m: numerator)
    with pytest.raises(ArithmeticError, match="does not divide"):
        medina_h.__wrapped__(1)


def test_in_place_division_matches_long_division():
    # The quotient of an exact division is the p with p (1 + x^2) == numerator.
    for m in [*range(1, 81), 160, 333]:
        numerator = poly(medina_closed_numerator(m))
        assert poly_mul(poly([1, 0, 1]), medina_p_closed(m)) == numerator


def test_degree_law():
    for m in range(1, 11):
        assert degree(medina_p_recurrence(m)) == 8 * m - 2
        assert degree(medina_h(m)) == 8 * m - 1


def test_scale_values():
    assert medina_scale(1) == 4
    assert medina_scale(2) == -16
    assert medina_scale(3) == 64


def test_first_approximant():
    h1 = medina_h(1)
    assert h1 == IntPoly(84, (0, 84, 0, -28, 0, 21, -14, 3))
    assert h1.poly() == poly([0, 1, 0, "-1/3", 0, "1/4", "-1/6", "1/28"])
    # 1 - 1/3 + 1/4 - 1/6 + 1/28 = 66/84
    assert poly_eval_horner(h1, 1) == Fraction(11, 14)


def test_approximants_anchored_at_zero():
    for m in range(1, 7):
        assert poly_eval_horner(medina_h(m), 0) == 0


def test_error_bound_values():
    assert medina_error_bound(1) == Fraction(1, 1024)
    assert medina_error_bound(2) == Fraction(1, 1048576)
    for m in range(1, 8):
        assert medina_error_bound(m + 1) == medina_error_bound(m) / 1024


def test_min_m_for():
    assert medina_min_m_for(Fraction(1, 1000)) == 1  # 1/1024 <= 1/1000
    assert medina_min_m_for(Fraction(1, 2000)) == 2
    assert medina_min_m_for(1) == 1
    assert medina_min_m_for("1e-9") == 3
    with pytest.raises(ValueError):
        medina_min_m_for(0)


@pytest.mark.parametrize("bad", [0, -3, True, "2"])
def test_index_validation(bad):
    with pytest.raises(ValueError):
        medina_p_recurrence(bad)
    with pytest.raises(ValueError):
        medina_h(bad)


@pytest.mark.parametrize(
    "build",
    [window_poly, medina_p_recurrence, medina_scale, medina_h, medina_error_bound],
)
def test_index_past_the_limit_is_refused(monkeypatch, build):
    monkeypatch.setattr(medina, "MAX_INDEX", 10)
    medina_h.cache_clear()  # a kept h_11 would be handed out unchecked
    assert build(10)
    with pytest.raises(ValueError, match="sequence index must be <= 10, got 11"):
        build(11)
    with pytest.raises(ValueError, match="sequence index must be an integer >= 1"):
        build(0)


def test_endpoint_values():
    # From the closed form: p_m(0) = -(-4)^m and 2 p_m(1) = -(-4)^m.
    for m in range(2, 11):
        shift = Fraction((-4) ** m)
        assert poly_eval_horner(medina_p_recurrence(m), 0) == -shift
        assert 2 * poly_eval_horner(medina_p_recurrence(m), 1) == -shift


def test_algebraic_rearrangement_on_grid():
    for m in range(1, 7):
        p = medina_p_recurrence(m)
        shift = Fraction((-4) ** m)
        for k in range(17):
            x = Fraction(k, 16)
            assert (1 + x * x) * poly_eval_horner(p, x) + shift == (
                x * (1 - x)
            ) ** (4 * m)


def test_scaled_integrand_nonnegative_on_grid():
    for m in range(1, 7):
        p = medina_p_recurrence(m)
        scale = medina_scale(m)
        for k in range(17):
            x = Fraction(k, 16)
            assert poly_eval_horner(p, x) - scale / (1 + x * x) >= 0


def test_defect_sign_alternates_with_index():
    # h_m overshoots arctan for odd m and undershoots for even m on (0, 1].
    for m in range(1, 4):
        width = Fraction(1, 4 ** (5 * m + 10))
        for x in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            value = poly_eval_horner(medina_h(m), x)
            enc = arctan_enclosure(x, width)
            if m % 2:
                assert value > enc.hi
            else:
                assert value < enc.lo


def test_window_poly():
    assert window_poly(1) == poly([0, 0, 0, 0, 1, -4, 6, -4, 1])
    assert degree(window_poly(3)) == 24


def test_pair_bundle_and_json():
    pair = medina_pair(1)
    assert pair == MedinaPair(
        m=1, p=medina_p1(), h=medina_h(1).poly(), bound=Fraction(1, 1024)
    )
    doc = pair.to_json()
    assert doc == {
        "m": 1,
        "p": ["4", "0", "-4", "0", "5", "-4", "1"],
        "h": ["0", "1", "0", "-1/3", "0", "1/4", "-1/6", "1/28"],
        "bound": "1/1024",
    }
    assert medina_pair(4).p == medina_p_recurrence(4)


def test_pair_is_built_without_the_recurrence(monkeypatch):
    def refuse(*args):
        raise AssertionError("medina_pair must take p_m from the closed form")

    monkeypatch.setattr(medina, "medina_p_recurrence", refuse)
    monkeypatch.setattr(medina, "recurrence", refuse)
    for m in [*range(1, 6), 400]:
        pair = medina_pair(m)
        assert (pair.m, pair.p) == (m, medina_p_closed(m))


def test_pair_json_past_the_int_str_limit():
    # The bound 4^-7145 of h_1429 has 4,302 digits; the pair is built
    # directly, without constructing h_1429.
    big = Fraction(-(3**9100), 7)
    bound = medina_error_bound(1429)
    pair = MedinaPair(m=1429, p=(big,), h=(Fraction(0), big), bound=bound)
    doc = pair.to_json()
    assert rat_parse(doc["bound"]) == Fraction(1, 4**7145)
    assert tuple(map(rat_parse, doc["p"])) == (big,)
    assert tuple(map(rat_parse, doc["h"])) == (Fraction(0), big)


def test_first_approximant_accuracy_landmarks():
    # |h_1 - arctan| at two reference points, against frozen 40-digit values.
    bound = medina_error_bound(1)
    assert abs(poly_eval_horner(medina_h(1), 1) - REF_ARCTAN_1) <= bound
    assert (
        abs(poly_eval_horner(medina_h(1), Fraction(1, 2)) - REF_ARCTAN_HALF) <= bound
    )


def test_serialization_helper_round_trip():
    pair = medina_pair(2)
    assert poly_to_strings(pair.p)[0] == "-16"
