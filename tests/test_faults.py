"""The fault catalogue: each planted fault fails the cheapest check that must
catch it.

A fault is a monkeypatch that plants one small, plausible mistake in the
package, either around a function or in its source, recompiled with one
edit.  Its check is an existing test of another module, run as it stands,
with the runner's monkeypatch if it takes one; under the fault it must
raise.  Where the construction refuses before the check can compare
anything, the refusal is the catch, and the entry says so.
"""

import __future__
import inspect
import textwrap

import pytest
import test_arctan_eval
import test_medina
import test_oracle
import test_poly_core
import test_verify

from medina_arctan import arctan_eval, medina, oracle, poly_core, verify
from medina_arctan.poly_core import IntPoly

# The deep index of the integration fault: one that arctan serves (at
# 1e-1000), and the deepest at which CI's lemma suite checks the shipped h_m.
DEEP_M = 333


def mutant(fn, old, new):
    """fn compiled again from its source with old replaced, once, by new.

    The copy runs in fn's module globals, so it calls what fn calls."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    flags = __future__.annotations.compiler_flag
    code = compile(source.replace(old, new), inspect.getfile(fn), "exec", flags, True)
    namespace = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


def window_binomial(monkeypatch):
    # C(4m, 4m - 1), the binomial of x^{8m-1}, one too large at every m,
    # wherever the window row is read.
    real = medina._window_row

    def window_row(m):
        row = real(m)
        row[-2] -= 1
        return row

    monkeypatch.setattr(medina, "_window_row", window_row)
    monkeypatch.setattr(verify, "_window_row", window_row)


def deep_numerator(monkeypatch):
    # One numerator of h_m off by one at DEEP_M alone, wherever h_m is
    # integrated.
    real = medina._integrate

    def integrate(row, m):
        form = real(row, m)
        if m != DEEP_M:
            return form
        nums = list(form.nums)
        nums[len(nums) // 2] += 1
        return IntPoly(form.den, tuple(nums))

    monkeypatch.setattr(medina, "_integrate", integrate)
    monkeypatch.setattr(verify, "_integrate", integrate)


def h_constant_term(monkeypatch):
    # h_3 with a constant term of 1, wherever h_m is integrated: h_3(0) is
    # then 1/D, about 6.1e-10, inside the bound 4^-15 (9.3e-10) that L7
    # decides, so only a comparison of coefficients sees it.
    real = medina._integrate

    def integrate(row, m):
        form = real(row, m)
        return IntPoly(form.den, (1, *form.nums[1:])) if m == 3 else form

    monkeypatch.setattr(medina, "_integrate", integrate)
    monkeypatch.setattr(verify, "_integrate", integrate)


def early_stop(monkeypatch):
    # The walk stops when the next term, not the current one, is within the
    # width, so its bracket is one term short.
    series = mutant(
        oracle._Walk._series,
        "if top * d <= e * odd * scale * bsq:",
        "if top * asq * d <= e * (odd + 2) * scale * bsq * bsq:",
    )
    monkeypatch.setattr(oracle._Walk, "_series", series)


def pivot_sign(monkeypatch):
    # arctan(1/2), the pivot's base half, enclosed as -arctan(1/2).
    real = oracle._pivot_base.__wrapped__

    def pivot_base(e, d):
        (lo, lo_d), (hi, hi_d) = real(e, d)
        return (-hi, hi_d), (-lo, lo_d)

    monkeypatch.setattr(oracle, "_pivot_base", pivot_base)


def merge_level(monkeypatch):
    # The second merge level lifts the low block by a^63, not a^64.
    merged = mutant(
        poly_core._merged_blocks,
        "a_up, b_up = a**size, b**size",
        "a_up, b_up = a ** (size - (size == 2 * _BLOCK)), b**size",
    )
    monkeypatch.setattr(poly_core, "_merged_blocks", merged)


def pi_sign(monkeypatch):
    # After a reciprocal step, -pi/2 - h_m(1/x) in place of pi/2 - h_m(1/x).
    reduced = mutant(
        arctan_eval._arctan_reduced,
        "value = pi_estimate(m).value / 2 - value",
        "value = -pi_estimate(m).value / 2 - value",
    )
    monkeypatch.setattr(arctan_eval, "_arctan_reduced", reduced)


def plan_reciprocal_budget(monkeypatch):
    # After a reciprocal step the plan reads eps over 4, pi's line alone, not
    # over 5, so it can pick an m whose ledger sums past eps.
    plan = mutant(arctan_eval._plan, "eps / 5", "eps / 4")
    monkeypatch.setattr(arctan_eval, "_plan", plan)


def verdict_unrecorded(monkeypatch):
    # L9 takes a passing verdict, None, for one never recorded, so it makes
    # every row that passed again: the same report, with each row made twice.
    schemes = mutant(
        verify._schemes, "if key not in run.verdicts:", "if not run.verdicts.get(key):"
    )
    lemmas = [(*row[:2], schemes) if row[0] == "L9" else row for row in verify._LEMMAS]
    monkeypatch.setattr(verify, "_LEMMAS", tuple(lemmas))


CATALOGUE = [
    # 1 + x^2 no longer divides the closed form's numerator: _p_row refuses.
    pytest.param(
        window_binomial, test_medina.test_closed_form_matches_recurrence, (),
        ArithmeticError, id="window-binomial",
    ),
    pytest.param(
        deep_numerator, test_medina.test_integer_form_is_the_old_horner_form, (),
        AssertionError, id="deep-integrate-numerator",
    ),
    pytest.param(
        h_constant_term, test_verify.test_round_trip_lemma_reads_the_shipped_form, (),
        AssertionError, id="h-constant-term",
    ),
    pytest.param(
        early_stop, test_oracle.test_width_contract, ("1/10", "1e-12"),
        AssertionError, id="walk-stops-early",
    ),
    pytest.param(
        pivot_sign, test_oracle.test_frozen_reference_digits,
        ("1", test_oracle.REF_ARCTAN_1), AssertionError, id="pivot-base-sign",
    ),
    # h_17 has 136 coefficients: five blocks, merged over three levels.
    pytest.param(
        merge_level, test_poly_core.test_eval_horner_bit_identical_on_approximants,
        (17,), AssertionError, id="merge-level",
    ),
    pytest.param(
        pi_sign, test_arctan_eval.test_reduction_soundness_certified, (),
        AssertionError, id="pi-sign",
    ),
    # Caught by the bisection's example at eps = 4e-3, with no h_m built.
    pytest.param(
        plan_reciprocal_budget, test_arctan_eval.test_plan_is_the_ledger_rule_by_bisection,
        (), AssertionError, id="plan-reciprocal-budget",
    ),
    # Every report is unchanged; only the count of Horner numerators sees it.
    pytest.param(
        verdict_unrecorded, test_verify.test_horner_rows_are_made_once_and_shared, (),
        AssertionError, id="verdict-unrecorded",
    ),
]


@pytest.mark.parametrize("fault, check, args, caught", CATALOGUE)
def test_each_fault_fails_its_cheapest_check(
    monkeypatch, fresh_caches, fault, check, args, caught
):
    fault(monkeypatch)
    if "monkeypatch" in inspect.signature(check).parameters:
        args = (monkeypatch, *args)
    with pytest.raises(caught):
        check(*args)
