"""The fault catalogue: each planted fault fails the cheapest check that must
catch it.

A fault is a monkeypatch that plants one small, plausible mistake in the
package, either around a function or in its source, recompiled with one
edit.  Its check is an existing test of another module, run as it stands,
with the runner's capsys and monkeypatch where it takes them; under the
fault it must raise.  Where the construction refuses before the check can
compare anything, the refusal is the catch, and the entry says so.
"""

import __future__
import inspect
import textwrap
from functools import partial

import pytest
import test_arctan_eval
import test_cli
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


def deep_numerator(monkeypatch, deep=DEEP_M):
    # One numerator of h_m off by one at the index deep alone, wherever h_m
    # is integrated.
    real = medina._integrate

    def integrate(row, m):
        form = real(row, m)
        if m != deep:
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
    # The verdict pass takes a passing verdict, None, for one never
    # recorded, so L8 makes every h_m that passed again and L9 every row:
    # the same report, with each h_m and each row made twice.
    recorded = mutant(
        verify._Run.recorded,
        "if (m, which, grid) not in self.verdicts:",
        "if not self.verdicts.get((m, which, grid)):",
    )
    lemmas = [
        (*row[:2], recorded, *row[3:]) if row[2] is verify._Run.recorded else row
        for row in verify._LEMMAS
    ]
    monkeypatch.setattr(verify, "_LEMMAS", tuple(lemmas))


def l8_on_shipped_form(monkeypatch):
    # L8 decided on the shipped medina_h(m) while an injected run serves its
    # seed's integral: the shipped form does not give back the corrupted
    # p_m, so the injected report fails L8 as well.
    h = mutant(
        verify._Run.h, "_round_trip_sides(form, p, m)", "_round_trip_sides(medina_h(m), p, m)"
    )
    monkeypatch.setattr(verify._Run, "h", h)


def first_multiple_final(monkeypatch):
    # A prime past sqrt(n) charged on its first multiple alone: p is dropped
    # from den when it divides c_p, even if it divides no c_k at another
    # multiple k of p.
    integrate = mutant(
        medina._integrate,
        "row[p - 1] % p or any(map(mod, row[2 * p - 1 :: p], repeat(p)))",
        "row[p - 1] % p",
    )
    monkeypatch.setattr(medina, "_integrate", integrate)


def small_prime_exponent(monkeypatch):
    # A prime up to sqrt(n) charged at most p, whichever power q of p its
    # c_k lack: h_7's den then holds 3, 5 and 7 once each, where k = 27,
    # 25 and 49 ask for 3^3, 5^2 and 7^2.
    integrate = mutant(
        medina._integrate,
        "f = max(f, q // math.gcd(q, *row[q - 1 :: q]))",
        "f = max(f, p // math.gcd(p, *row[q - 1 :: q]))",
    )
    monkeypatch.setattr(medina, "_integrate", integrate)


def golden_row(test, first):
    """The parameters of test's parametrized row whose first is first."""
    (mark,) = (mark for mark in test.pytestmark if mark.name == "parametrize")
    return next(row for row in mark.args[1] if row[0] == first)


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
    pytest.param(
        l8_on_shipped_form, test_cli.test_golden_refusals,
        golden_row(
            test_cli.test_golden_refusals, "verify --grid 16 --m-max 3 --inject-fault"
        ),
        AssertionError, id="l8-on-shipped-form",
    ),
    # At every index of the closed form up to 80, and at 160, 333 and 665, a
    # prime past sqrt(n) that divides c_p divides c_k at each other multiple
    # k of p, so no shipped h_m sees this; the frozen rule's rows do.
    pytest.param(
        first_multiple_final, test_medina.test_integrate_matches_the_lcm_rule, (),
        AssertionError, id="first-multiple-final",
    ),
    pytest.param(
        small_prime_exponent, test_medina.test_approximants_are_prepared_and_unchanged,
        (7,), AssertionError, id="small-prime-exponent",
    ),
    # Past every index an exact comparison lists; only the residues see it.
    pytest.param(
        partial(deep_numerator, deep=500),
        test_medina.test_shipped_form_matches_the_closed_form_modulo_a_prime, (500,),
        AssertionError, id="deep-integrate-numerator-500",
    ),
]


@pytest.mark.parametrize("fault, check, args, caught", CATALOGUE)
def test_each_fault_fails_its_cheapest_check(
    capsys, monkeypatch, fresh_caches, fault, check, args, caught
):
    fault(monkeypatch)
    fixtures = {"capsys": capsys, "monkeypatch": monkeypatch}
    names = inspect.signature(check).parameters
    wanted = [fixtures[name] for name in names if name in fixtures]
    with pytest.raises(caught):
        check(*wanted, *args)
