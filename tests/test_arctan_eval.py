"""Full-line evaluation: range reduction, pi bootstrap, budgets, rendering."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REF_ARCTAN_1, REF_ARCTAN_95, REF_PI, no_int_str_limit
from medina_arctan import arctan_eval, medina
from medina_arctan.arctan_eval import (
    FULL_DECIMAL_DIGITS,
    ApproxResult,
    ReductionStep,
    ReductionTrace,
    approx_result_json,
    arctan_auto,
    decimal_str,
    guaranteed_digits,
    medina_arctan,
    pi_estimate,
    reduce,
)
from medina_arctan.medina import MAX_INDEX, medina_h, medina_min_m_for
from medina_arctan.oracle import arctan_enclosure
from medina_arctan.poly_core import check_int, poly_eval_powers, rat, rat_text


def test_reduce_in_range():
    trace = reduce(Fraction(1, 2))
    assert trace.reduced == Fraction(1, 2)
    assert trace.steps == ()
    assert reduce(1).steps == ()
    assert reduce(0).steps == ()


def test_reduce_reciprocal():
    trace = reduce(2)
    assert trace.reduced == Fraction(1, 2)
    assert trace.steps == (ReductionStep.RECIPROCAL,)


def test_reduce_negative_then_reciprocal():
    trace = reduce(-3)
    assert trace.original == -3
    assert trace.reduced == Fraction(1, 3)
    assert trace.steps == (ReductionStep.NEGATE, ReductionStep.RECIPROCAL)


def test_reduce_negative_only():
    trace = reduce("-1/2")
    assert trace.reduced == Fraction(1, 2)
    assert trace.steps == (ReductionStep.NEGATE,)


@pytest.mark.parametrize("x", ["-100", "-1", "-2/3", "0", "1/7", "1", "8/3", "50"])
def test_reduce_lands_in_unit_interval(x):
    trace = reduce(x)
    assert 0 <= trace.reduced <= 1


def test_pi_estimate_landmark():
    est = pi_estimate(1)
    assert est.value == Fraction(22, 7)
    assert est.error_bound == Fraction(1, 256)
    assert est.source_m == 1
    assert pi_estimate(2).error_bound == Fraction(1, 262144)


def test_pi_estimate_accuracy():
    for M in range(1, 5):
        est = pi_estimate(M)
        assert est.value > 3
        assert abs(est.value - REF_PI) <= est.error_bound


def test_eval_at_zero():
    result = medina_arctan(0, 3)
    assert result.value == 0
    assert [name for name, _ in result.ledger] == ["approximant"]


def test_eval_at_one():
    result = medina_arctan(1, 1)
    assert result.value == Fraction(11, 14)
    assert result.error_bound == Fraction(1, 1024)
    assert result.trace.steps == ()
    assert abs(result.value - REF_ARCTAN_1) <= Fraction(1, 1024)


def test_eval_above_one():
    # 22/7 / 2 - h_1(1/2) = 11/7 - 4987/10752 over the common denominator.
    result = medina_arctan(2, 1)
    assert result.value == Fraction(11909, 10752)
    assert result.error_bound == Fraction(5, 1024)
    assert [name for name, _ in result.ledger] == ["approximant", "pi"]
    assert [s.value for s in result.trace.steps] == ["Reciprocal"]


def test_eval_headline_defect():
    result = medina_arctan(Fraction(19, 20), 1)
    assert abs(result.value - REF_ARCTAN_95) < Fraction(5, 10**4)


def test_oddness_is_exact():
    for m in (1, 2, 3):
        for x in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
            assert medina_arctan(-x, m).value == -medina_arctan(x, m).value


def test_reciprocal_consistency():
    # value(x) + value(1/x) reconstructs the shared half-pi estimate exactly.
    for m in (1, 2, 3):
        for x in (Fraction(2), Fraction(10), Fraction(7, 2)):
            total = medina_arctan(x, m).value + medina_arctan(1 / x, m).value
            assert total == pi_estimate(m).value / 2


def test_budget_formula():
    for m in (1, 2):
        plain = medina_arctan(Fraction(1, 3), m)
        assert plain.error_bound == Fraction(1, 4 ** (5 * m))
        folded = medina_arctan(3, m)
        assert folded.error_bound == Fraction(5, 4 ** (5 * m))


def test_reduction_soundness_certified():
    for m in range(1, 5):
        width = Fraction(1, 4 ** (5 * m + 2))
        for x in (Fraction(-10), Fraction(-1, 2), Fraction(1, 2), Fraction(10)):
            result = medina_arctan(x, m)
            enc = arctan_enclosure(x, width)
            assert result.value - result.error_bound <= enc.lo
            assert enc.hi <= result.value + result.error_bound


@pytest.mark.parametrize("eps, m", [("1e-1000", 333), ("1e-2000", 665)])
@pytest.mark.parametrize(
    "x", [Fraction(40503, 65536), Fraction(2)], ids=["direct", "reciprocal"]
)
def test_deep_served_values_are_certified(x, eps, m):
    # The deepest values CI serves, on both branches, each within its bound
    # by an enclosure at width error_bound / 16, as the benchmark decides.
    result = arctan_auto(x, eps)
    assert result.m == m
    enc = arctan_enclosure(x, result.error_bound / 16)
    assert abs(result.value - enc.mid) + enc.width / 2 <= result.error_bound


def test_auto_selects_smallest_sufficient_index():
    assert arctan_auto(Fraction(1, 2), Fraction(1, 1000)).m == 1
    assert arctan_auto(2, Fraction(1, 1000)).m == 2  # one pi term forces m up
    assert arctan_auto(Fraction(1, 2), "1e-9").m == 3
    zero = arctan_auto(0, 1)
    assert zero.value == 0 and zero.m == 1


def test_auto_reduces_each_argument_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return reduce(x)

    monkeypatch.setattr(arctan_eval, "reduce", counting)
    for x in ("-3", "2/3", "5"):
        arctan_auto(x, "1e-20")
    assert len(calls) == 3


def test_auto_budget_meets_request():
    for x in ("-3", "0", "2/3", "5"):
        for eps in (Fraction(1, 100), "1e-7"):
            result = arctan_auto(x, eps)
            assert result.error_bound <= Fraction(eps)


_signed_rationals = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4)
)
_eps = st.builds(
    lambda a, k: Fraction(a, 10**k),
    st.one_of(st.just(1), st.integers(1, 10**6)),
    st.integers(0, 120),
)


@given(_signed_rationals, _eps)
def test_auto_ledger_is_the_least_sufficient_budget(x, eps):
    result = arctan_auto(x, eps)
    assert result.error_bound == sum(bound for _, bound in result.ledger)
    assert result.error_bound <= eps
    reciprocal = ReductionStep.RECIPROCAL in result.trace.steps
    below = ledger_by_bounds(reciprocal, result.m - 1) if result.m > 1 else ()
    assert result.m == 1 or sum(bound for _, bound in below) > eps
    # Bit for bit the rule the ledger replaced: a multiple of 4^(-5m), 5
    # after a reciprocal step and 1 otherwise, with m chosen for eps over it.
    multiple = 5 if ReductionStep.RECIPROCAL in result.trace.steps else 1
    assert result.error_bound == multiple * Fraction(1, 4 ** (5 * result.m))
    assert result.m == medina_min_m_for(eps / multiple)
    names = ["approximant", "pi"] if multiple == 5 else ["approximant"]
    assert [name for name, _ in result.ledger] == names


# The request's bookkeeping as it ran on Fractions, before the fold, the
# plan and the rounding moved to the integers of as_integer_ratio(): the
# references for the integer versions.
def reduce_by_fractions(x):
    x = rat(x)
    steps = []
    y = x
    if y < 0:
        steps.append(ReductionStep.NEGATE)
        y = -y
    if y > 1:
        steps.append(ReductionStep.RECIPROCAL)
        y = 1 / y
    return ReductionTrace(original=x, reduced=y, steps=tuple(steps))


def ledger_by_bounds(reciprocal, m):
    """The ledger at m from the two bounds themselves, as 4^(-5m) powers."""
    lines = (("approximant", Fraction(1, 4 ** (5 * m))),)
    return lines + (("pi", Fraction(4, 4 ** (5 * m))),) if reciprocal else lines


def plan_by_fractions(trace, eps):
    for m in range(medina_min_m_for(eps), MAX_INDEX + 1):
        ledger = ledger_by_bounds(ReductionStep.RECIPROCAL in trace.steps, m)
        if sum(b for _, b in ledger) <= eps:
            return m, ledger
    raise ValueError(f"no index meets eps: an index must be <= {MAX_INDEX}")


def decimal_by_fractions(value, digits):
    check_int(digits, "digits", 0)
    scaled = round(rat(value) * 10**digits)
    sign = "-" if scaled < 0 else ""
    text = rat_text(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[: len(text) - digits], text[len(text) - digits :]
    return f"{sign}{whole}.{frac}" if digits else f"{sign}{whole}"


def auto_by_fractions(x, eps):
    """arctan_auto from the references, its values by the powers route."""
    trace = reduce_by_fractions(x)
    m, ledger = plan_by_fractions(trace, rat(eps))
    value = poly_eval_powers(medina_h(m), trace.reduced)
    if ReductionStep.RECIPROCAL in trace.steps:
        value = 4 * poly_eval_powers(medina_h(m), 1) / 2 - value
    if ReductionStep.NEGATE in trace.steps:
        value = -value
    return ApproxResult(value, sum(b for _, b in ledger), m, trace, ledger)


def json_by_fractions(result, full):
    digits = guaranteed_digits(result.error_bound)
    shown = max(digits, FULL_DECIMAL_DIGITS) if full else digits
    return {
        "value": rat_text(result.value),
        "error_bound": rat_text(result.error_bound),
        "m": result.m,
        "steps": [step.value for step in result.trace.steps],
        "decimal": decimal_by_fractions(result.value, shown),
        "decimal_digits_guaranteed": digits,
    }


_parts = st.integers(-(2**26), 2**26)
_arguments = st.one_of(
    st.sampled_from([0, 1, -1]),
    _parts,
    st.builds(Fraction, _parts, st.integers(1, 2**26)),
)
# At, and one unit of 2^-(10m + 20) beside, each edge k 4^(-5m) of a ledger:
# k = 1 bounds h_m alone, k = 5 adds pi's line after a reciprocal step.
_edges = st.builds(
    lambda m, k, s: Fraction(k * 2**20 + s, 2 ** (10 * m + 20)),
    st.integers(1, 30),
    st.sampled_from([1, 5]),
    st.sampled_from([-1, 0, 1]),
)


@settings(deadline=None)
@given(_arguments, _edges)
@example(Fraction(-(2**26) + 1, 2**26), Fraction(5, 2**70))
@example(-(2**26), Fraction(5 * 2**20 - 1, 2**90))
def test_integer_bookkeeping_matches_the_fraction_references(x, eps):
    result = arctan_auto(x, eps)
    reference = auto_by_fractions(x, eps)
    assert result == reference
    for full in (False, True):
        assert approx_result_json(result, full=full) == json_by_fractions(reference, full)


# Denominators that divide a power of ten make exact ties at some places.
@given(
    st.builds(
        Fraction,
        st.integers(-(10**40), 10**40),
        st.sampled_from([1, 2, 8, 40, 2 * 10**5, 5**30, 10**30, 3 * 2**60]),
    ),
    st.integers(0, 50),
)
@example(Fraction(-5, 2), 0)
@example(Fraction(25, 1000), 2)
def test_decimal_rendering_matches_the_fraction_reference(value, digits):
    assert decimal_str(value, digits) == decimal_by_fractions(value, digits)


def test_requests_call_the_module_globals_the_benchmark_traces(monkeypatch):
    # The benchmark times evaluation, pi and construction by wrapping these
    # names in arctan_eval; a request must still reach each through them.
    calls = Counter()
    for name in ("poly_eval_horner", "pi_estimate", "medina_h"):

        def counted(*args, _fn=getattr(arctan_eval, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(arctan_eval, name, counted)
    arctan_auto(Fraction(-7, 3), "1e-20")
    assert calls == {"poly_eval_horner": 2, "pi_estimate": 1, "medina_h": 2}
    calls.clear()
    arctan_auto(Fraction(3, 7), "1e-20")
    assert calls == {"poly_eval_horner": 1, "medina_h": 1}


def test_pi_line_is_pi_estimates_bound():
    for m in (1, 2, 7):
        assert dict(medina_arctan(3, m).ledger)["pi"] == pi_estimate(m).error_bound


def test_pi_bound_is_four_approximant_bounds():
    # Made directly as 2^(2 - 10m), not by multiplying, with the same check.
    for m in (1, 2, 7, 665, MAX_INDEX):
        want = 4 * medina.medina_error_bound(m)
        assert arctan_eval._pi_bound(m).as_integer_ratio() == want.as_integer_ratio()
    for bad in (0, MAX_INDEX + 1, True):
        with pytest.raises(ValueError) as want:
            medina.medina_error_bound(bad)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            arctan_eval._pi_bound(bad)


def test_auto_budget_monotone_in_eps():
    budgets = [
        arctan_auto(2, Fraction(1, 10**k)).error_bound for k in range(0, 13, 2)
    ]
    assert all(b1 >= b2 for b1, b2 in zip(budgets, budgets[1:]))


def test_auto_eps_validation():
    with pytest.raises(ValueError):
        arctan_auto(1, 0)
    with pytest.raises(ValueError):
        arctan_auto(1, "-1/4")


def test_auto_refuses_an_index_past_the_limit(monkeypatch):
    # eps = 1e-40 needs m = 14; the plan stops at the first index past 10.
    monkeypatch.setattr(medina, "MAX_INDEX", 10)
    with pytest.raises(ValueError, match="sequence index must be <= 10, got 14"):
        arctan_auto(2, "1e-40")


@pytest.mark.parametrize(
    "x, eps", [(2, Fraction(1, 10**6020)), (Fraction(1, 2), Fraction(1, 10**6021))]
)
def test_auto_names_eps_when_no_index_meets_it(x, eps):
    # Both need m = 2001: at x = 2 for pi's line on top of 4^-10000, at 1/2
    # for 4^-10000 alone.  The plan refuses before it builds anything.
    before = medina_h.cache_info()
    with pytest.raises(ValueError, match="^no index meets eps: an index must be <= 2000$"):
        arctan_auto(x, eps)
    assert medina_h.cache_info() == before


def test_plan_reaches_the_largest_index():
    # The plan gives the index alone; the ledger at it is _budget's.
    m = arctan_eval._plan(reduce(Fraction(1, 2)), Fraction(1, 10**6020))
    assert type(m) is int and m == medina.MAX_INDEX
    ledger, bound = arctan_eval._budget(m, False)
    assert ledger == ledger_by_bounds(False, m)
    assert bound.as_integer_ratio() == (1, 4 ** (5 * m))


def plan_by_bisection(reciprocal, eps):
    """The least m whose ledger meets eps, by bisection over every index:
    the ledger's sum falls as m grows."""
    lo, hi = 1, MAX_INDEX
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(b for _, b in ledger_by_bounds(reciprocal, mid)) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo, ledger_by_bounds(reciprocal, lo)


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(0, 6000), st.sampled_from([Fraction(1, 2), 2]))
@example(4, 3, 2)
@example(1, 0, 2)
@example(1, 6000, 2)
@example(9, 6000, Fraction(1, 2))
def test_plan_is_the_ledger_rule_by_bisection(mantissa, exponent, x):
    # eps from 1 down to 1e-6000, on the direct branch and the reciprocal
    # one: the plan's index is the bisection's, and _budget's ledger and
    # sum at it, 1 or 5 over 2^(10m), are the ledger's own.  At eps = 4e-3,
    # between 4 and 5 times 2^-10, pi's line alone would let m = 1 pass.
    eps = Fraction(mantissa, 10**exponent)
    trace = reduce(x)
    reciprocal = ReductionStep.RECIPROCAL in trace.steps
    m, ledger = plan_by_bisection(reciprocal, eps)
    assert arctan_eval._plan(trace, eps) == m
    got_ledger, got_sum = arctan_eval._budget(m, reciprocal)
    want_sum = sum(b for _, b in ledger)
    assert got_ledger == ledger
    assert got_sum.as_integer_ratio() == want_sum.as_integer_ratio()


def test_medina_arctan_reads_the_plans_budget():
    # medina_arctan and the plan read one budget rule, and an index that is
    # not a plain int is refused before 2^(10m) is formed.
    for x in (Fraction(1, 3), 3):
        planned = arctan_auto(x, "1e-20")
        assert medina_arctan(x, planned.m) == planned
    for bad in (True, 1.0, 0, MAX_INDEX + 1):
        with pytest.raises(ValueError, match="sequence index"):
            medina_arctan(2, bad)


@given(_arguments, _edges)
@example(2, Fraction(5, 2**50))
@example(-1, Fraction(2**20 + 1, 2**40))
@example(Fraction(-7, 3), Fraction(5 * 2**20 - 1, 2**60))
def test_medina_arctan_at_the_planned_index_is_arctan_auto(x, eps):
    # Both entry points reach one result from (trace, m), ledger included,
    # on either side of 1 and at or beside each edge of the plan.
    result = arctan_auto(x, eps)
    assert medina_arctan(x, result.m) == result


def test_guaranteed_digits():
    assert guaranteed_digits(Fraction(1, 1024)) == 2
    assert guaranteed_digits(Fraction(5, 1048576)) == 5
    assert guaranteed_digits(Fraction(1, 2000)) == 3  # boundary is inclusive
    assert guaranteed_digits(Fraction(1, 2)) == 0
    assert guaranteed_digits(1) == 0
    with pytest.raises(ValueError):
        guaranteed_digits(0)


def test_decimal_rendering():
    assert decimal_str(Fraction(11, 14), 2) == "0.79"
    assert decimal_str(Fraction(22, 7), 6) == "3.142857"
    assert decimal_str(Fraction(22, 7), 0) == "3"
    assert decimal_str(Fraction(-11, 14), 2) == "-0.79"
    assert decimal_str(Fraction(-1, 2000), 2) == "0.00"  # no negative zero
    assert decimal_str(0, 4) == "0.0000"


def decimal_by_divmod(value, digits):
    """decimal_str as it rendered before it handled the int-to-str limit."""
    scaled = round(value * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


@given(
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
    st.integers(0, 50),
)
def test_decimal_rendering_matches_divmod(value, digits):
    assert decimal_str(value, digits) == decimal_by_divmod(value, digits)


def test_decimal_rendering_past_the_int_str_limit():
    assert decimal_str(Fraction(1, 3), 5000) == "0." + "3" * 5000
    assert decimal_str(Fraction(-(10**5000) - 1, 10), 0) == "-1" + "0" * 4999
    assert decimal_str(Fraction(-1, 10**5000), 5000) == "-0." + "0" * 4999 + "1"


def test_result_json_past_the_int_str_limit():
    # m = 107 is what eps = 1e-320 selects here; numerator and denominator
    # both pass 4,300 digits.
    result = medina_arctan(Fraction(40503, 65536), 107)
    doc = approx_result_json(result)
    with no_int_str_limit():
        assert doc["value"] == str(result.value)
        assert doc["error_bound"] == str(result.error_bound)
    scale = 10 ** doc["decimal_digits_guaranteed"]
    assert Fraction(doc["decimal"]) == Fraction(round(result.value * scale), scale)


def test_decimal_rounding_ties_to_even():
    assert decimal_str(Fraction(1, 8), 2) == "0.12"
    assert decimal_str(Fraction(3, 8), 2) == "0.38"


def test_decimal_digits_validation():
    with pytest.raises(ValueError):
        decimal_str(Fraction(1, 2), -1)


def test_result_json_schema():
    doc = approx_result_json(medina_arctan(-3, 1))
    assert set(doc) == {
        "value",
        "error_bound",
        "m",
        "steps",
        "decimal",
        "decimal_digits_guaranteed",
    }
    assert doc["steps"] == ["Negate", "Reciprocal"]
    assert doc["m"] == 1
    assert isinstance(doc["value"], str)
    assert isinstance(doc["error_bound"], str)


def test_result_json_digit_policy():
    result = medina_arctan(1, 1)
    doc = approx_result_json(result)
    assert doc["decimal_digits_guaranteed"] == 2
    assert doc["decimal"] == "0.79"
    full = approx_result_json(result, full=True)
    assert len(full["decimal"].split(".")[1]) == FULL_DECIMAL_DIGITS
    assert full["decimal_digits_guaranteed"] == 2
