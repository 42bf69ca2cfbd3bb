"""Taylor baseline: the walk's partial sums and omitted terms, the searches."""

import math
from fractions import Fraction
from functools import cache
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medina_arctan import taylor_baseline
from medina_arctan.medina import medina_h
from medina_arctan.oracle import Enclosure, arctan_enclosure
from medina_arctan.poly_core import poly, poly_eval_horner, rat_text
from medina_arctan.taylor_baseline import (
    COMPARISON_COLUMNS,
    DEGREE_CUTOFF,
    DegreeLimitError,
    comparison_row,
    medina_min_m_observed,
    taylor_min_degree,
)


def partial_sum(n, x):
    """T_n(x) = x - x^3/3 + ... + (-1)^k x^n/n, n = 2k + 1, summed afresh."""
    return sum((-1) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(n // 2 + 1))


def remainder_bound(n, x):
    """The first omitted term x^(n+2)/(n+2), which bounds |T_n(x) - arctan x|."""
    return x ** (n + 2) / (n + 2)


def walk(source, x, n):
    """The value num/den the lazy source yields for odd degree n at x."""
    pairs = islice(source(Fraction(x)), n // 2 + 1)
    return {k: Fraction(num, den) for k, num, den in pairs}[n]


def test_partial_sum_polynomials():
    x = Fraction(1, 2)
    assert walk(taylor_baseline._partial_sums, x, 1) == poly_eval_horner(poly([0, 1]), x)
    t5 = poly([0, 1, 0, "-1/3", 0, "1/5"])
    assert walk(taylor_baseline._partial_sums, x, 5) == poly_eval_horner(t5, x)


def test_partial_sum_coefficient_pattern():
    # Each sum, made from the last by one omitted term, is the series summed afresh.
    for x in (Fraction(1, 3), Fraction(19, 20), Fraction(1)):
        for n, num, den in islice(taylor_baseline._partial_sums(x), 11):
            assert Fraction(num, den) == partial_sum(n, x)


@pytest.mark.parametrize("n", [1, 5, 9])
def test_partial_sums_vanish_at_zero(n):
    assert walk(taylor_baseline._partial_sums, 0, n) == 0


def test_remainder_bound_values():
    terms = taylor_baseline._omitted_terms
    assert walk(terms, 1, 1) == Fraction(1, 3)
    assert walk(terms, Fraction(1, 2), 5) == Fraction(1, 896)
    assert walk(terms, Fraction(19, 20), 57) == Fraction(19, 20) ** 59 / 59
    for n, num, den in islice(terms(Fraction(3, 4)), 11):
        assert Fraction(num, den) == remainder_bound(n, Fraction(3, 4))


def test_min_degree_bound_mode():
    # (1/2)^7/7 = 1/896 is not below 1/1000; (1/2)^9/9 = 1/4608 is.
    assert taylor_min_degree(Fraction(1, 2), Fraction(1, 1000)) == 7
    assert taylor_min_degree(0, "1e-30") == 1


def test_min_degree_oracle_mode():
    assert taylor_min_degree(Fraction(1, 2), Fraction(1, 1000), oracle_mode=True) == 5
    assert taylor_min_degree(0, "1e-9", oracle_mode=True) == 1


def test_min_degree_headline_point():
    # Frozen from the pre-build high-precision run: the degree-55 error at
    # x = 19/20 is 5.037e-4, just above 5e-4, so the search lands on 57.
    assert taylor_min_degree(Fraction(19, 20), Fraction(1, 2000), oracle_mode=True) == 57


def test_min_degree_validation():
    with pytest.raises(ValueError):
        taylor_min_degree(2, Fraction(1, 10))
    with pytest.raises(ValueError):
        taylor_min_degree(Fraction(1, 2), 0)


def test_degree_cutoff_is_a_resource_error():
    # At x = 1 the bound decays like 1/n, so 4^-10 needs n near 10^6.
    with pytest.raises(DegreeLimitError):
        taylor_min_degree(1, Fraction(1, 4**10))


def test_true_value_within_remainder_bound():
    # Certified: |arctan(x) - T_n(x)| <= x^(n+2)/(n+2), with the enclosure
    # width scaled well below the bound being checked.
    for n in (1, 5, 9, 21):
        for k in range(9):
            x = Fraction(k, 8)
            value = partial_sum(n, x)
            bound = remainder_bound(n, x)
            if bound == 0:
                assert value == 0
                continue
            enc = arctan_enclosure(x, bound / 64)
            assert abs(value - enc.mid) + enc.width / 2 <= bound


def test_partial_sums_alternate_around_truth():
    for x in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        enc = arctan_enclosure(x, "1e-12")
        for n in (1, 3, 5, 7, 9):
            value = partial_sum(n, x)
            if n % 4 == 1:
                assert value > enc.hi
            else:
                assert value < enc.lo


def test_observed_index_search():
    assert medina_min_m_observed(Fraction(19, 20), Fraction(1, 2000)) == 1
    # True defects at 1/2, frozen pre-build: 1.2e-7 at m=2, 9.8e-11 at m=3.
    assert medina_min_m_observed(Fraction(1, 2), "1e-9") == 3
    with pytest.raises(ValueError):
        medina_min_m_observed(Fraction(1, 2), 0)


def _effective_taylor_degree(x, eps):
    try:
        return taylor_min_degree(x, eps)
    except DegreeLimitError:
        return None


def test_taylor_never_beats_matched_guarantee():
    # At the accuracy the m-th approximant guarantees, the Taylor degree on
    # [1/2, 1] is never smaller; None means the search passed the cutoff,
    # which exceeds every approximant degree used here.
    for m in range(1, 6):
        eps = Fraction(1, 4 ** (5 * m))
        for x in (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(7, 8), Fraction(1)):
            n = _effective_taylor_degree(x, eps)
            assert n is None or n >= 8 * m - 1


def test_comparison_row_headline():
    row = comparison_row("0.95", "5e-4")
    assert row == {
        "x": "19/20",
        "eps": "1/2000",
        "taylor_min_degree": 57,
        "medina_min_m": 1,
        "medina_degree": 7,
        "taylor_terms_evaluated": 29,
    }
    assert tuple(row) == COMPARISON_COLUMNS


def test_each_search_computes_each_enclosure_once(monkeypatch):
    calls = []

    def counting(x, width):
        calls.append((x, width))
        return arctan_enclosure(x, width)

    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", counting)
    comparison_row(1, Fraction(1, 1000))
    # One enclosure for the Taylor walk and one for the Medina walk.
    assert len(calls) == 2
    # The memo lives for one search, so a repeated row pays again.
    comparison_row(1, Fraction(1, 1000))
    assert len(calls) == 4


def test_comparison_row_bound_mode():
    row = comparison_row("0.5", "0.001", oracle_mode=False)
    assert row["taylor_min_degree"] == 7
    assert row["medina_min_m"] == 1
    assert row["medina_degree"] == 7
    assert row["taylor_terms_evaluated"] == 4


def test_comparison_row_domain():
    with pytest.raises(ValueError):
        comparison_row(2, "1e-3")


def test_cutoff_constant_is_odd_and_large():
    assert DEGREE_CUTOFF % 2 == 1
    assert DEGREE_CUTOFF > 10**4


# The three searches as the hand-written loops they were before they shared
# one walk.  Each reads DEGREE_CUTOFF at call time, so patching it bounds a
# search and its reference alike.
def cutoff_error(what, x, eps):
    cutoff = taylor_baseline.DEGREE_CUTOFF
    return DegreeLimitError(f"no {what} up to {cutoff} meets eps={eps} at x={x}")


def min_degree_by_bound_loop(x, eps):
    n = 1
    while remainder_bound(n, x) >= eps:
        n += 2
        if n > taylor_baseline.DEGREE_CUTOFF:
            raise cutoff_error("degree", x, eps)
    return n


def min_degree_by_oracle_loop(x, eps):
    certified_below = taylor_baseline._certifier(x, eps)
    n = 1
    partial = x
    power = x
    xsq = x * x
    k = 1
    while True:
        if certified_below(*partial.as_integer_ratio()):
            return n
        n += 2
        if n > taylor_baseline.DEGREE_CUTOFF:
            raise cutoff_error("degree", x, eps)
        power *= xsq
        term = power / (2 * k + 1)
        partial = partial - term if k % 2 else partial + term
        k += 1


def min_m_by_oracle_loop(x, eps):
    certified_below = taylor_baseline._certifier(x, eps)
    m = 1
    while True:
        if certified_below(*poly_eval_horner(medina_h(m), x).as_integer_ratio()):
            return m
        m += 1
        if 8 * m - 1 > taylor_baseline.DEGREE_CUTOFF:
            raise cutoff_error("index with degree", x, eps)


def outcome(search, x, eps):
    """The search's answer, or the text of the limit error it raised."""
    try:
        return search(x, eps)
    except DegreeLimitError as error:
        return f"DegreeLimitError: {error}"


def certified_below_by_abs(x, eps):
    """The certifier as it was before it was decided against cuts, the
    reference for the cut rule: subtractions and abs against each enclosure."""
    enclosures = cache(lambda width: taylor_baseline.arctan_enclosure(x, width))

    def certified_below(value: Fraction) -> bool:
        width = eps / 2**20
        for _ in range(12):
            enc = enclosures(width)
            worst = max(abs(value - enc.lo), abs(value - enc.hi))
            if worst < eps:
                return True
            best = Fraction(0) if enc.contains(value) else min(
                abs(value - enc.lo), abs(value - enc.hi)
            )
            if best >= eps:
                return False
            width /= 2**10
        raise DegreeLimitError(
            f"could not separate the error at x={rat_text(x)} "
            f"from eps={rat_text(eps)} "
            "after repeated enclosure tightening"
        )

    return certified_below


# A fixed enclosure 3/10 of EPS wide, so that every region is wide: True
# strictly between HI - EPS and LO + EPS, undecided in (LO - EPS, HI - EPS]
# and [LO + EPS, HI + EPS), False beyond.  An enclosure that never narrows
# leaves an undecided value undecided, so the search raises.  The shrinking
# one keeps its centre and narrows with the width asked for, from EPS wide
# at the first width, so most values are decided on a later round.
EPS = Fraction(1, 1000)
LO = Fraction(1, 3)
HI = LO + 3 * EPS / 10
FAKE_ORACLES = {
    "fixed": lambda x, width: Enclosure(LO, HI),
    "shrinking": lambda x, width: Enclosure(LO - width * 2**19, LO + width * 2**19),
}


@settings(deadline=None)
@given(
    st.sampled_from(sorted(FAKE_ORACLES)),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**4).map(lambda f: LO + f * EPS),
)
@example("fixed", LO)
@example("fixed", HI)
@example("fixed", LO - EPS)
@example("fixed", LO + EPS)
@example("fixed", HI - EPS)
@example("fixed", HI + EPS)
@example("shrinking", LO)
@example("shrinking", LO - EPS)
@example("shrinking", LO + EPS)
@example("shrinking", LO - EPS / 2)
@example("shrinking", LO + 3 * EPS / 2)
def test_certifier_cuts_decide_as_the_abs_rule(oracle, value):
    # The walk hands over unreduced pairs, so the value is also scaled by k/k.
    x = Fraction(1, 2)
    num, den = value.as_integer_ratio()
    with mock.patch.object(taylor_baseline, "arctan_enclosure", FAKE_ORACLES[oracle]):
        want = outcome(lambda x, eps: certified_below_by_abs(x, eps)(value), x, EPS)
        for k in (1, 3, 2**70 + 1):
            certified_below = taylor_baseline._certifier(x, EPS)
            got = outcome(lambda x, eps: certified_below(num * k, den * k), x, EPS)
            assert got == want


def test_a_search_asks_the_oracle_once_per_width(monkeypatch):
    # The shrinking oracle's radius at round i is EPS / 2^(10 i + 1), so a
    # value t * EPS from LO is True for |t| < 1 - radius and False for
    # |t| >= 1 + radius: the values below need rounds 0, 1 and 2, and t = 1
    # is never decided.
    widths = []

    def counting(x, width):
        widths.append(width)
        return FAKE_ORACLES["shrinking"](x, width)

    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", counting)
    certified_below = taylor_baseline._certifier(Fraction(1, 2), EPS)
    rounds = [EPS / 2 ** (20 + 10 * i) for i in range(12)]
    near = 1 - Fraction(1, 4096)
    offsets = [0, Fraction(1, 3), Fraction(3, 4), near, Fraction(5, 4), Fraction(3, 2)]
    for _ in range(3):
        for t in offsets + [-t for t in offsets]:
            value = LO + t * EPS
            assert certified_below(*value.as_integer_ratio()) is (abs(t) < 1)
    assert widths == rounds[:3]
    with pytest.raises(DegreeLimitError, match="after repeated enclosure tightening"):
        certified_below(*(LO + EPS).as_integer_ratio())
    assert widths == rounds


def unit_points(max_den):
    ratios = st.integers(1, max_den).flatmap(
        lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))
    )
    return st.one_of(ratios, st.sampled_from([Fraction(999, 1000), Fraction(1)]))


def powers_of_half(max_exp):
    return st.integers(0, max_exp).map(lambda j: Fraction(1, 2**j))


def odd_cutoffs(least, most):
    return st.integers(least // 2, most // 2).map(lambda k: 2 * k + 1)


def omitted_terms_by_fractions(x):
    """The omitted terms x^(n+2)/(n+2) as the walk made them before it ran on
    integers, one Fraction a step: the reference for _omitted_terms."""
    xsq = x * x
    power = x * xsq
    for n in range(1, DEGREE_CUTOFF + 1, 2):
        yield n, power / (n + 2)
        power *= xsq


def partial_sums_by_fractions(x):
    """T_n(x) as Fractions, each from the last omitted term: the reference
    for _partial_sums."""
    partial = x
    for n, term in omitted_terms_by_fractions(x):
        yield n, partial
        partial = partial - term if n % 4 == 1 else partial + term


# Points of [0, 1] with parts of about 300 digits, 1 and 0 among them.
_long_unit_points = st.integers(10**299, 10**300 - 1).flatmap(
    lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))
)


@settings(deadline=None)
@given(st.one_of(unit_points(10**6), _long_unit_points), st.integers(1, 40))
@example(Fraction(0), 40)
@example(Fraction(1), 40)
@example(Fraction(10**300 - 1, 10**300), 12)
def test_integer_walk_reduces_to_the_fraction_walk(x, steps):
    # The Fraction reference pays a gcd a step, which at 300-digit parts
    # grows as the cube of the step count; keep it to 12 steps there.
    a, b = x.as_integer_ratio()
    if b > 10**6:
        steps = min(steps, 12)
    pairs = zip(
        taylor_baseline._partial_sums(x),
        partial_sums_by_fractions(x),
        taylor_baseline._omitted_terms(x),
        omitted_terms_by_fractions(x),
    )
    lcm = 1
    for sums, (_, partial), (_, t_num, t_den), (_, term) in islice(pairs, steps):
        n, num, den = sums
        lcm = math.lcm(lcm, n)
        assert den == lcm * b**n
        assert Fraction(num, den) == partial
        assert (t_num, t_den) == (a ** (n + 2), (n + 2) * b ** (n + 2))
        assert Fraction(t_num, t_den) == term


# The bound loop recomputes x^(n+2) at every step, which takes seconds at
# x = 999/1000 and the real cutoff, so the properties draw a smaller cutoff.
@settings(deadline=None)
@given(unit_points(64), powers_of_half(60), odd_cutoffs(1, 2001))
def test_bound_walk_matches_loop(x, eps, cutoff):
    with mock.patch.object(taylor_baseline, "DEGREE_CUTOFF", cutoff):
        assert outcome(taylor_min_degree, x, eps) == outcome(
            min_degree_by_bound_loop, x, eps
        )


@settings(deadline=None)
@given(unit_points(16), powers_of_half(40), odd_cutoffs(1, 101))
def test_oracle_walk_matches_loop(x, eps, cutoff):
    def search(x, eps):
        return taylor_min_degree(x, eps, oracle_mode=True)

    with mock.patch.object(taylor_baseline, "DEGREE_CUTOFF", cutoff):
        assert outcome(search, x, eps) == outcome(min_degree_by_oracle_loop, x, eps)


# Below 7 no approximant fits, a cutoff the real one (10001) rules out.
@settings(deadline=None)
@given(unit_points(64), powers_of_half(60), odd_cutoffs(7, 63))
def test_observed_index_walk_matches_loop(x, eps, cutoff):
    with mock.patch.object(taylor_baseline, "DEGREE_CUTOFF", cutoff):
        assert outcome(medina_min_m_observed, x, eps) == outcome(
            min_m_by_oracle_loop, x, eps
        )


def test_bound_walk_at_the_real_cutoff():
    assert taylor_min_degree(1, Fraction(1, 10002)) == 10001
    with pytest.raises(DegreeLimitError, match="no degree up to 10001 meets"):
        taylor_min_degree(1, Fraction(1, 10004))


def test_oracle_walks_at_the_cutoff(monkeypatch):
    # Each answer's degree (8*3 - 1 = 23, and 57) is the last the cutoff
    # allows; one odd step lower, the search gives up.
    headline = (Fraction(19, 20), Fraction(1, 2000))
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 23)
    assert medina_min_m_observed(Fraction(1, 2), "1e-9") == 3
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 21)
    with pytest.raises(DegreeLimitError, match="no index with degree up to 21 meets"):
        medina_min_m_observed(Fraction(1, 2), "1e-9")
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 57)
    assert taylor_min_degree(*headline, oracle_mode=True) == 57
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 55)
    with pytest.raises(DegreeLimitError, match="no degree up to 55 meets"):
        taylor_min_degree(*headline, oracle_mode=True)


def refuse_the_oracle(*args):
    raise AssertionError("the oracle walk ran")


def test_oracle_mode_refuses_an_unreachable_eps_up_front(monkeypatch):
    # The floor x^(n+2)/((n+2)(1+x^2)) at the cutoff is at least eps, so the
    # search gives up before it asks the oracle for anything.
    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", refuse_the_oracle)
    x, eps = Fraction(999, 1000), Fraction(1, 10**30)
    message = rf"no degree up to 10001 meets eps={eps} at x={x}$"
    with pytest.raises(DegreeLimitError, match=message):
        taylor_min_degree(x, eps, oracle_mode=True)


# Near x = 1 the old floor t_{n+2} - t_{n+4} fell below these eps long
# before the cutoff, so the search summed exact terms up to it first.
@pytest.mark.parametrize(
    "x, eps",
    [(Fraction(9999, 10000), Fraction(1, 10**5)), (Fraction(1), Fraction(1, 10**6))],
)
def test_oracle_mode_refuses_near_one_up_front(monkeypatch, x, eps):
    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", refuse_the_oracle)
    message = rf"no degree up to 10001 meets eps={eps} at x={x}$"
    with pytest.raises(DegreeLimitError, match=message):
        taylor_min_degree(x, eps, oracle_mode=True)


@pytest.mark.parametrize("x", [Fraction(1), Fraction(9, 10), Fraction(1, 2)])
def test_floor_at_a_patched_cutoff_decides_the_walk(monkeypatch, x):
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 21)
    floor = x**23 / (23 * (1 + x * x))
    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", refuse_the_oracle)
    with pytest.raises(DegreeLimitError, match="no degree up to 21 meets"):
        taylor_min_degree(x, floor, oracle_mode=True)
    # Just above the floor the oracle walk runs, and agrees with the loop.
    eps = floor * (1 + Fraction(1, 2**40))

    def search(x, eps):
        return taylor_min_degree(x, eps, oracle_mode=True)

    spy = mock.Mock(wraps=arctan_enclosure)
    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", spy)
    got = outcome(search, x, eps)
    assert spy.called
    assert got == outcome(min_degree_by_oracle_loop, x, eps)


def test_floor_met_at_the_cutoff_itself_reaches_the_oracle_walk(monkeypatch):
    # At x = 1/2 and eps = 1/20000 the floors are 1.7e-4 at n = 7 and 3.5e-5
    # at n = 9, and the true error at 9 is below t_11 = 4.4e-5.
    x, eps = Fraction(1, 2), Fraction(1, 20000)
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 9)
    assert taylor_min_degree(x, eps, oracle_mode=True) == 9
    monkeypatch.setattr(taylor_baseline, "DEGREE_CUTOFF", 7)
    with pytest.raises(DegreeLimitError, match="no degree up to 7 meets"):
        taylor_min_degree(x, eps, oracle_mode=True)


def refuse_the_exact_floor(x, eps, n):
    raise AssertionError("the floor was raised to the cutoff's powers")


# CI's refusal rows, where the floor meets eps at no degree up to the
# cutoff, and rows that it meets far below: none forms a^10003 or b^10001.
@pytest.mark.parametrize(
    "x, eps",
    [
        (Fraction(1), Fraction(1, 10**6)),
        (Fraction(9999, 10000), Fraction(1, 10**5)),
        (Fraction(999, 1000), Fraction(1, 10**30)),
        (Fraction(1), Fraction(1, 10**5000)),
        (Fraction(19, 20), Fraction(1, 2000)),
        (Fraction(1, 10), Fraction(1, 10**12)),
    ],
)
def test_clear_floor_rows_form_no_power(monkeypatch, x, eps):
    n = 10001
    (a, b), (e, d), k = x.as_integer_ratio(), eps.as_integer_ratio(), n + 2
    exact = a**k * d < e * k * b**n * (a * a + b * b)
    monkeypatch.setattr(taylor_baseline, "_floor_meets_exactly", refuse_the_exact_floor)
    assert taylor_baseline._floor_meets(x, eps, n) is exact
    if not exact:
        monkeypatch.setattr(taylor_baseline, "arctan_enclosure", refuse_the_oracle)
        with pytest.raises(DegreeLimitError, match="no degree up to 10001 meets"):
            comparison_row(x, eps)


@pytest.mark.parametrize("n", [13, 10001])
@pytest.mark.parametrize(
    "x",
    [Fraction(1), Fraction(19, 20), Fraction(9999, 10000), Fraction(2, 3),
     Fraction(1, 10), Fraction(12345, 65536), Fraction(2**64 - 1, 2**64)],
)
def test_floor_within_float_error_of_eps_is_decided_exactly(x, n):
    # eps a factor 1 +- 2^-60 from the floor: the logarithms' gap is far
    # below their float error, so only the exact check has the sign.
    floor = x ** (n + 2) / ((n + 2) * (1 + x * x))
    for t, meets in [(1, True), (-1, False)]:
        assert taylor_baseline._floor_meets(x, floor * (1 + t * Fraction(1, 2**60)), n) is meets


@settings(deadline=None)
@given(unit_points(2**64), st.integers(0, 14), st.integers(-2, 2), st.data())
@example(Fraction(19, 20), 6, 0, None)
@example(Fraction(1), 13, 0, None)
@example(Fraction(999, 1000), 14, -1, None)
@example(Fraction(9999, 10000), 14, 0, None)
@example(Fraction(9999, 10000), 14, 1, None)
@example(Fraction(0), 0, 0, None)
def test_floor_by_logarithms_is_the_exact_rule_at_the_cutoff(x, j, t, data):
    # eps at or next to the floor at a degree 2^j - 1 up to the cutoff, the
    # cutoff itself among them, where the two sides' logarithms tie or
    # nearly do, or anywhere.
    n = 10001
    small = min(2**j - 1, n)

    def floor(n):
        return x ** (n + 2) / ((n + 2) * (1 + x * x))

    eps = floor(small) * Fraction(2) ** t
    if data is not None:
        eps = data.draw(st.one_of(st.just(eps), powers_of_half(20000)))
    eps = eps or Fraction(1, 10**9)
    (a, b), (e, d), k = x.as_integer_ratio(), eps.as_integer_ratio(), n + 2
    exact = a**k * d < e * k * b**n * (a * a + b * b)
    assert taylor_baseline._floor_meets(x, eps, n) == exact


@st.composite
def unit_rationals(draw):
    """a/b in [0, 1], a and b of independently drawn sizes up to 3,000 digits."""
    b = draw(st.integers(1, 2 ** draw(st.integers(1, 9966))))
    return Fraction(draw(st.integers(0, min(b, 2 ** draw(st.integers(0, 9966))))), b)


@settings(deadline=None)
@given(st.one_of(unit_points(64), unit_rationals()), st.data())
def test_floor_shortcut_agrees_with_the_exact_inequality(x, data):
    # The exact side costs about bits(x) * k squared; past 3,000 bits k stays
    # small enough to keep an example well under a second.
    most = 300 if max(x.numerator, x.denominator).bit_length() <= 3000 else 30
    n = 2 * data.draw(st.integers(0, most)) + 1
    k = n + 2
    floor = x**k / (k * (1 + x * x))
    eps = data.draw(
        st.one_of(
            st.integers(0, 4000).map(lambda j: Fraction(1, 2**j)),
            st.integers(0, 1200).map(lambda j: Fraction(1, 10**j)),
            # Next to the floor itself, where the answer turns.
            st.integers(-2, 2).map(lambda t: floor * Fraction(2) ** t),
        ).filter(lambda eps: eps > 0)
    )
    (a, b), (e, d) = x.as_integer_ratio(), eps.as_integer_ratio()
    exact = a**k * d < e * k * b**n * (a * a + b * b)
    assert taylor_baseline._floor_meets(x, eps, n) == exact


# eps at the floor itself, which x does not meet, and just above it; the
# denominators past 2^64 take the grid bracket, the others the exact check.
@pytest.mark.parametrize(
    "x, n",
    [
        (Fraction(3, 4), 13),
        (Fraction(1023, 1024), 1),
        (Fraction(1), 1),
        (Fraction(2**64 - 1, 2**65), 1),
        (Fraction(2**64 - 1, 2**65), 101),
        (Fraction(1, 2**64 + 1), 11),
    ],
)
def test_floor_shortcut_at_the_turn(x, n):
    floor = x ** (n + 2) / ((n + 2) * (1 + x * x))
    assert not taylor_baseline._floor_meets(x, floor, n)
    assert taylor_baseline._floor_meets(x, floor * (1 + Fraction(1, 2**40)), n)


def test_floor_check_decides_a_straddle_exactly():
    # x sits 10^-2000 above the grid point 1/2, so for eps at or just above
    # the floor at x, the floors at x's grid neighbours fall on both sides.
    n = 11
    k = n + 2

    def floor(t):
        return t**k / (k * (1 + t * t))

    x = Fraction(1, 2) + Fraction(1, 10**2000)
    lo, hi = Fraction(1, 2), Fraction(2**63 + 1, 2**64)
    above = floor(x) + (floor(hi) - floor(x)) / 2
    for eps, meets in [(floor(x), False), (above, True)]:
        assert floor(lo) < eps < floor(hi)
        assert taylor_baseline._floor_meets(x, eps, n) is meets


def test_comparison_row_at_a_tiny_argument():
    # The floor check settles at the grid point 2^-64 above x instead of
    # raising 10^5000 to the cutoff's power; the row renders past 4,300 digits.
    row = comparison_row(Fraction(1, 10**5000), Fraction(1, 1000))
    assert (row["taylor_min_degree"], row["medina_min_m"]) == (1, 1)
    assert row["x"] == "1/1" + "0" * 5000
    assert row["eps"] == "1/1000"


# The messages below name rationals past the int-to-str digit limit, each
# part past 40 digits cut to its first and last ten around "…".
def test_domain_message_past_the_int_str_limit():
    x = Fraction(10**5000 + 1, 10**5000)
    message = (
        r"^x must lie in \[0, 1\], got "
        r"10{9}…0{9}1 \(5001 digits\)/10{9}…0{10} \(5001 digits\)$"
    )
    with pytest.raises(ValueError, match=message):
        comparison_row(x, "1e-3")


def test_cutoff_message_past_the_int_str_limit(monkeypatch):
    monkeypatch.setattr(taylor_baseline, "arctan_enclosure", refuse_the_oracle)
    message = r"^no degree up to 10001 meets eps=1/10{9}…0{10} \(5001 digits\) at x=1$"
    with pytest.raises(DegreeLimitError, match=message):
        taylor_min_degree(1, Fraction(1, 10**5000), oracle_mode=True)


def test_tie_message_past_the_int_str_limit(monkeypatch):
    # An enclosure that always straddles the tie never lets the test decide.
    x, eps = Fraction(1, 10**5000), Fraction(10**5000 + 1, 10**5001)
    monkeypatch.setattr(
        taylor_baseline, "arctan_enclosure", lambda x, width: Enclosure(-eps, eps)
    )
    message = (
        r"^could not separate the error at x=1/10{9}…0{10} \(5001 digits\) "
        r"from eps=10{9}…0{9}1 \(5001 digits\)/10{9}…0{10} \(5002 digits\) "
        "after repeated enclosure tightening$"
    )
    with pytest.raises(DegreeLimitError, match=message):
        taylor_baseline._certifier(x, eps)(0, 1)
