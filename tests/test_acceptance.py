"""Acceptance gate: the seven headline claims, one pass/fail line each.

Every check is decided in exact rational arithmetic against the enclosure
oracle; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import random
from fractions import Fraction

from medina_arctan.arctan_eval import medina_arctan
from medina_arctan.medina import (
    medina_closed_numerator,
    medina_error_bound,
    medina_h,
    medina_p_closed,
    medina_p_recurrence,
)
from medina_arctan.oracle import arctan_enclosure, pi_enclosure
from medina_arctan.poly_core import (
    degree,
    poly,
    poly_add,
    poly_antiderivative,
    poly_derivative,
    poly_eval_horner,
    poly_eval_powers,
    poly_mul,
    poly_scale,
)
from medina_arctan.taylor_baseline import taylor_min_degree
from medina_arctan.verify import run_suite


def taylor_partial_sum(n, x):
    """T_n(x) = x - x^3/3 + ... + (-1)^k x^n/n, n = 2k + 1."""
    return sum((-1) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(n // 2 + 1))


def _report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_pi_landmark():
    at_one = poly_eval_horner(medina_h(1), 1)
    value = 4 * at_one
    enc = pi_enclosure("1e-6")
    certified = abs(value - enc.mid) + enc.width / 2 <= Fraction(1, 256)
    ok = at_one == Fraction(11, 14) and value == Fraction(22, 7) and certified
    _report(1, "h_1(1) = 11/14 and |22/7 - pi| <= 1/256", ok)


def test_criterion_2_uniform_bound_sweep():
    ok = True
    for m in range(1, 6):
        bound = medina_error_bound(m)
        width = bound / 16
        h = medina_h(m)
        for k in range(65):
            x = Fraction(k, 64)
            enc = arctan_enclosure(x, width)
            if abs(poly_eval_horner(h, x) - enc.mid) + enc.width / 2 > bound:
                ok = False
    _report(2, "|h_m - arctan| <= 4^(-5m) on the 65-point grid, m <= 5", ok)


def test_criterion_3_construction_equivalence():
    ok = True
    for m in range(1, 11):
        if medina_p_recurrence(m) != medina_p_closed(m):
            ok = False
        # p_m (1 + x^2) is the numerator exactly when 1 + x^2 divides it.
        numerator = poly(medina_closed_numerator(m))
        if poly_mul(poly([1, 0, 1]), medina_p_closed(m)) != numerator:
            ok = False
    _report(3, "recurrence and closed form agree exactly, m <= 10", ok)


def test_criterion_4_headline_degrees():
    eps = Fraction(5, 10**4)
    x = Fraction(19, 20)
    enc = arctan_enclosure(x, "1e-9")
    half = enc.width / 2

    defect = abs(poly_eval_horner(medina_h(1), x) - enc.mid)
    low_degree_ok = defect + half < eps and degree(medina_h(1)) == 7

    found = taylor_min_degree(x, eps, oracle_mode=True)
    t51, t57 = taylor_partial_sum(51, x), taylor_partial_sum(57, x)
    bracket_ok = (
        found in {55, 57}
        and abs(t51 - enc.mid) - half > eps
        and abs(t57 - enc.mid) + half < eps
    )
    _report(4, "three decimals at 19/20: degree 7 suffices, Taylor needs ~57", low_degree_ok and bracket_ok)


def test_criterion_5_lemma_suite():
    report = run_suite(64, 4)
    ids = tuple(c.id for c in report.checks)
    ok = report.all_passed and ids == tuple(f"L{i}" for i in range(1, 10))
    _report(5, "all nine lemma checks pass at grid 64, m <= 4", ok)


def test_criterion_6_polynomial_calculus_properties():
    rng = random.Random(1729)

    def random_poly(max_degree=20):
        return poly(
            Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            for _ in range(rng.randint(0, max_degree + 1))
        )

    ok = True
    for _ in range(200):
        p = random_poly()
        if poly_derivative(poly_antiderivative(p)) != p:
            ok = False
        for _ in range(5):
            x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            if poly_eval_horner(p, x) != poly_eval_powers(p, x):
                ok = False
        q = random_poly(12)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        lin = poly_derivative(poly_add(poly_scale(p, a), poly_scale(q, b)))
        if lin != poly_add(
            poly_scale(poly_derivative(p), a), poly_scale(poly_derivative(q), b)
        ):
            ok = False
    _report(6, "calculus laws hold on 200 seeded random polynomials", ok)


def test_criterion_7_range_reduction_soundness():
    points = [Fraction(s) for s in ("-10", "-3", "-1", "-1/2", "0", "1/2", "1", "2", "10")]
    ok = True
    for m in (1, 2, 3):
        width = Fraction(1, 4 ** (5 * m + 2))
        for x in points:
            result = medina_arctan(x, m)
            enc = arctan_enclosure(x, width)
            inside = (
                result.value - result.error_bound <= enc.lo
                and enc.hi <= result.value + result.error_bound
            )
            if not inside:
                ok = False
    _report(7, "oracle enclosure sits inside value +/- budget on the line", ok)
