"""Machine checks for the inequality chain behind the h_m guarantee.

Each lemma below is a concrete claim about the constructed polynomials,
checked in exact rational arithmetic for every index up to m_max, with no
tolerance anywhere.  Identities are compared coefficient by coefficient:
L5 and L8 for each index, L1's square and L2's derivative once.  The
pointwise claims (L1, L3, L4, L6, L7, L9) are exact comparisons of
rationals sampled on the grid x = k/grid_n over [0, 1].  Only L7, h_m
against arctangent itself, consults the enclosure oracle, at a width two
factors of 4 below the asserted bound so that enclosure slack can never
mask a violation.

The suite reports every lemma with a pass/fail flag and, when a claim
fails, a witness pinning down where.  A deliberately corrupted seed
polynomial can be injected to exercise that failure path end to end.

The work meter charges grid_n + 1 units a grid row, one an index of an
identity and one for L2, each row paid for before it is built.  It raises
WorkLimitExceeded once the caller's limit is passed, with the report of
the checks completed so far attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import zip_longest
from operator import eq, ge, le
from typing import Optional

from .medina import (
    HUMP,
    _check_index,
    approximant,
    medina_error_bound,
    medina_h,
    medina_p1,
    medina_scale,
    recurrence,
    window_poly,
)
from .oracle import arctan_enclosure
from .poly_core import (
    IntPoly,
    Poly,
    check_int,
    poly,
    poly_add,
    poly_antiderivative,
    poly_derivative,
    poly_eval_horner,
    poly_eval_powers,
    poly_mul,
    poly_sub,
    rat_text,
)

DEFAULT_WORK_LIMIT = 2_000_000

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class Witness:
    """Where a claim was pinned down: grid point and/or index, both sides."""

    x: Optional[Fraction]
    m: Optional[int]
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "x": None if self.x is None else rat_text(self.x),
            "m": self.m,
            "lhs": rat_text(self.lhs),
            "rhs": rat_text(self.rhs),
        }


@dataclass(frozen=True)
class LemmaCheck:
    id: str
    description: str
    passed: bool
    witness: Optional[Witness] = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "passed": self.passed,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[LemmaCheck, ...]
    grid_size: int
    m_max: int

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "m_max": self.m_max,
            "all_passed": self.all_passed,
            "checks": [check.to_json() for check in self.checks],
        }


class WorkLimitExceeded(RuntimeError):
    """Raised when the metered workload passes the limit; carries the part done."""

    def __init__(self, message: str, partial: VerificationReport):
        super().__init__(message)
        self.partial = partial


def run_suite(
    grid_n: int,
    m_max: int,
    *,
    base_poly=None,
    work_limit: Optional[int] = None,
) -> VerificationReport:
    """Check every lemma for indices 1..m_max.

    L5 and L8 are compared coefficient by coefficient for each index, and
    L1, L3, L4, L6, L7 and L9 sampled on the k/grid_n grid.  By default L5,
    L6, L8 and L9 check the reference recurrence's p_m, and L7 and L9 the
    shipped medina_h.  base_poly overrides the seed (the fault-injection
    hook), and h_m is then integrated from its p_m.  One recurrence walk
    serves the run.  Each row (an index, or a pass over the grid) is paid
    for before anything in it is grown, integrated or made, and the meter
    raises WorkLimitExceeded past the limit, with the checks done so far.
    """
    check_int(grid_n, "grid_n", 2)
    _check_index(m_max, "m_max")
    limit = check_int(
        DEFAULT_WORK_LIMIT if work_limit is None else work_limit, "work limit", 1
    )

    used = 0
    checks: list[LemmaCheck] = []

    def spend(units: int = 1) -> None:
        nonlocal used
        used += units
        if used > limit:
            raise WorkLimitExceeded(
                f"work limit {limit} exhausted during {lemmas[len(checks)][0]} "
                f"({len(checks)} of {len(lemmas)} checks completed)",
                VerificationReport(checks=tuple(checks), grid_size=grid_n, m_max=m_max),
            )

    indices = range(1, m_max + 1)
    seed = None if base_poly is None else poly(base_poly)
    walk = recurrence(medina_p1() if seed is None else seed)
    grown: list[Poly] = []
    points: list[Fraction] = []

    def p_of(m: int) -> Poly:
        """p_m from the run's one walk, grown a member at a time as asked for."""
        while len(grown) < m:
            grown.append(next(walk))
        return grown[m - 1]

    @cache
    def p_form(m: int) -> IntPoly:
        """p_m in integer form, made once for the rows that evaluate it."""
        return IntPoly.of(p_of(m))

    @cache
    def h_of(m: int) -> IntPoly:
        """h_m: the shipped one, or one integrated from the injected seed's p_m."""
        return medina_h(m) if seed is None else IntPoly.of(approximant(p_of(m), m))

    def grid() -> list[Fraction]:
        """The points k/grid_n, one unit each, paid for before they are made."""
        spend(grid_n + 1)
        if not points:
            points.extend(Fraction(k, grid_n) for k in range(grid_n + 1))
        return points

    def scan(claim, holds, rows=None):
        """(True, None), or (False, witness) at the first point where the
        claim fails: holds(lhs, rhs) is false for (lhs, rhs) = sides(x).

        rows yields the arguments of claim, m first; by default (m,) for
        each index.  sides = claim(*row) is made once the row is paid for.
        """
        for row in rows or ((m,) for m in indices):
            xs, sides = grid(), claim(*row)
            for x in xs:
                lhs, rhs = sides(x)
                if not holds(lhs, rhs):
                    return False, Witness(x=x, m=row[0], lhs=lhs, rhs=rhs)
        return True, None

    def identity(sides):
        """(True, None), or (False, witness) at the lowest-power coefficients
        where the polynomials sides(m) first differ, each m paid for first."""
        for m in indices:
            spend()
            for a, b in zip_longest(*sides(m), fillvalue=Fraction(0)):
                if a != b:
                    return False, Witness(x=None, m=m, lhs=a, rhs=b)
        return True, None

    def check_peak_bound():
        symbolic = poly_sub(poly([_QUARTER]), HUMP) == poly_mul(
            poly([-_HALF, 1]), poly([-_HALF, 1])
        )
        if not symbolic:
            return False, Witness(x=None, m=None, lhs=Fraction(0), rhs=_QUARTER)
        witness = None
        for x in grid():
            value = x * (1 - x)
            if value > _QUARTER or (value == _QUARTER) != (x == _HALF):
                return False, Witness(x=x, m=None, lhs=value, rhs=_QUARTER)
            if x == _HALF:
                witness = Witness(x=x, m=None, lhs=value, rhs=_QUARTER)
        return True, witness

    def check_peak_slope():
        spend()
        slope = poly_derivative(HUMP)
        at_half = poly_eval_horner(slope, _HALF)
        if slope != poly([1, -2]) or at_half != 0:
            return False, Witness(x=_HALF, m=None, lhs=at_half, rhs=Fraction(0))
        return True, None

    def power_bound(m):
        cap = Fraction(1, 4 ** (4 * m))
        return lambda x: ((x * (1 - x)) ** (4 * m), cap)

    def integral_bound(m):
        cap = Fraction(1, 4 ** (4 * m))
        anti = IntPoly.of(poly_antiderivative(window_poly(m)))
        # Both caps at once: 4^{-4m} x, and 4^{-4m} itself.
        return lambda x: (poly_eval_horner(anti, x), min(cap * x, cap))

    def closed_identity(m):
        return poly_add(poly_mul((1, 0, 1), p_of(m)), ((-4) ** m,)), window_poly(m)

    def integrand_sign(m):
        p, scale = p_form(m), medina_scale(m)
        return lambda x: (poly_eval_horner(p, x) - scale / (1 + x * x), Fraction(0))

    def final_bound(m):
        h, bound = h_of(m), medina_error_bound(m)
        width = bound / 16

        def sides(x):
            enc = arctan_enclosure(x, width)
            return abs(poly_eval_horner(h, x) - enc.mid) + enc.width / 2, bound

        return sides

    def round_trip(m):
        return poly_derivative(poly_antiderivative(p_of(m))), p_of(m)

    def schemes_agree(m, which):
        # No data shared: the powers side reads the reference Fraction tuple.
        form = (p_form, h_of)[which](m)
        target = approximant(p_of(m), m) if which else p_of(m)
        return lambda x: (poly_eval_horner(form, x), poly_eval_powers(target, x))

    lemmas = (
        (
            "L1",
            "x(1-x) <= 1/4 on [0, 1] with equality only at x = 1/2; "
            "1/4 - x(1-x) is the square (x - 1/2)^2",
            check_peak_bound,
        ),
        (
            "L2",
            "the derivative of x(1-x) is 1 - 2x and vanishes at the peak x = 1/2",
            check_peak_slope,
        ),
        (
            "L3",
            "(x(1-x))^{4m} <= 4^{-4m} on [0, 1]",
            partial(scan, power_bound, le),
        ),
        (
            "L4",
            "the integral of x^{4m}(1-x)^{4m} from 0 to x is at most "
            "4^{-4m} x, hence at most 4^{-4m}",
            partial(scan, integral_bound, le),
        ),
        (
            "L5",
            "(1 + x^2) p_m(x) + (-4)^m equals x^{4m}(1-x)^{4m} identically",
            partial(identity, closed_identity),
        ),
        (
            "L6",
            "p_m(x) - ((-1)^{m+1} 4^m)/(1 + x^2) >= 0 on [0, 1]",
            partial(scan, integrand_sign, ge),
        ),
        (
            "L7",
            "|h_m(x) - arctan(x)| <= 4^{-5m} on [0, 1], decided against "
            "enclosures of width 4^{-5m-2}",
            partial(scan, final_bound, le),
        ),
        (
            "L8",
            "differentiating the antiderivative of p_m gives back p_m "
            "coefficient for coefficient",
            partial(identity, round_trip),
        ),
        (
            "L9",
            "Horner and explicit-powers evaluation agree on p_m and h_m "
            "at every grid point",
            # p_m at every point, then h_m, for each m in turn.
            partial(scan, schemes_agree, eq, ((m, i) for m in indices for i in (0, 1))),
        ),
    )

    for lemma_id, description, runner in lemmas:
        checks.append(LemmaCheck(lemma_id, description, *runner()))
    return VerificationReport(checks=tuple(checks), grid_size=grid_n, m_max=m_max)


def corrupted_seed() -> Poly:
    """medina_p1 with the x^2 coefficient's sign flipped; breaks the identity."""
    seed = list(medina_p1())
    seed[2] = -seed[2]
    return poly(seed)
