"""The closed forms for the least index and the guaranteed digits, checked
against the step-by-step searches they replaced."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medina_arctan.arctan_eval import guaranteed_digits
from medina_arctan.medina import medina_min_m_for


def min_m_by_search(eps: Fraction) -> int:
    m = 1
    while Fraction(1, 4 ** (5 * m)) > eps:
        m += 1
    return m


def digits_by_search(bound: Fraction) -> int:
    d = 0
    while Fraction(1, 2 * 10 ** (d + 1)) >= bound:
        d += 1
    return d


# Numerators and denominators spread over many magnitudes, so the answers
# range from the floor (eps >= 1) to m and d in the hundreds.
positive_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=1, max_value=2**2000),
)


@given(positive_rationals)
def test_min_m_matches_search(eps):
    assert medina_min_m_for(eps) == min_m_by_search(eps)
    # arctan_auto asks for eps / 5 when the reciprocal step spends pi's budget.
    assert medina_min_m_for(eps / 5) == min_m_by_search(eps / 5)


@given(positive_rationals)
def test_guaranteed_digits_matches_search(bound):
    assert guaranteed_digits(bound) == digits_by_search(bound)


NUDGE = Fraction(1, 10**700)


@pytest.mark.parametrize("k", [1, 5])
def test_min_m_at_exact_boundaries(k):
    for m in range(1, 120):
        edge = Fraction(k, 4 ** (5 * m))
        for eps in (edge, edge - NUDGE, edge + NUDGE):
            assert medina_min_m_for(eps) == min_m_by_search(eps), (m, eps)
        if k == 1:
            assert medina_min_m_for(edge) == m
            assert medina_min_m_for(edge - NUDGE) == m + 1


@pytest.mark.parametrize("eps", [1, Fraction(3, 2), 5, 10**50])
def test_min_m_floor_is_one(eps):
    assert medina_min_m_for(eps) == 1


@pytest.mark.parametrize("d", [0, 1, 2, 3, 17, 300, 4400])
def test_guaranteed_digits_at_exact_boundaries(d):
    # Past 4,300 digits int-to-str conversion is refused, so nothing may use it.
    edge = Fraction(1, 2 * 10**d)
    assert guaranteed_digits(edge) == d
    assert guaranteed_digits(edge * (1 - NUDGE)) == d
    assert guaranteed_digits(edge * (1 + NUDGE)) == max(0, d - 1)
