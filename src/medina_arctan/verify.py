"""Machine checks for the inequality chain behind the h_m guarantee.

Each lemma below is a concrete claim about the constructed polynomials,
checked in exact rational arithmetic for every index up to m_max, with no
tolerance anywhere.  L5 and L8 are identities, compared coefficient by
coefficient for each index.  L8 differentiates, on integers, each h_m form
the run makes, the shipped medina_h(m) or the injected seed's integral,
and checks it, constant term included, against the reference p_m: it is
the one exact link between what ships and the reference.
The pointwise claims (L1, L3, L4, L6, L7, L9) are sampled on the grid
x = k/grid_n over [0, 1] and decided on integers, with no gcd: a
polynomial's value at k/grid_n is its Horner numerator over the row's
common denominator D grid_n^deg, and two sides over different
denominators are cross-multiplied.
Each exact check is decided on its object as the object is made: L5 on
each p_m as the walk grows it, L8 on each h_m, and L9 on each Horner row,
compared with the powers route on the same form, which raises each
b^(n-i) once a row; both are numerators over one denominator, so they
are compared as they are.  L5's, L8's and L9's passes read the verdicts
and make only what no earlier lemma reached: an h_m past L7's first
failure is made twice, for L8 and for L9.  A run keeps the verdicts and
the p_m forms; no h_m form or row outlives its lemma.
Fractions appear only in witnesses.  L4's integral is formed from an
integer row over a plain lcm, and a clean run integrates nothing else:
its h_m are medina_h's.  Only
L7, h_m against arctangent itself, consults the enclosure oracle, at a
width two factors of 4 below the asserted bound so that enclosure slack
can never mask a violation; one oracle walk a grid point carries its
series on from index to index.

run_suite runs _LEMMAS, the table of the nine lemmas, in order over one
_Run, which holds all that a run shares and makes each p_m's IntPoly once.
A row of the table is an id, a description, a runner and the runner's
arguments after the run: _Run.scan with the builder of a grid claim's
rows, _Run.recorded with the forms whose verdicts it reads (L5, L8 and,
on Horner rows, L9), or, for L1, L2 and L7, a runner of the lemma's own
with none.
The suite reports every lemma with a pass/fail flag and, when a claim
fails, a witness pinning down where.  A deliberately corrupted seed
polynomial can be injected to exercise that failure path end to end.
The work meter charges grid_n + 1 units a grid row, one an index of an
identity and one for L2, each row paid for before it is built, and raises
WorkLimitExceeded past the caller's limit, with the report so far attached.
An index or row also pays for the checks decided on what it makes (L5's
for p_m, L6's and L7's for L9 on their rows, L7's for h_m and L8); L8
and L9 pay again, a unit an index and grid_n + 1 a form, whether they
read the verdict or make the object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import filterfalse, product, zip_longest
from typing import NamedTuple, Optional, Sequence

from .medina import (
    HUMP,
    _check_index,
    _integrate,
    _window_row,
    medina_error_bound,
    medina_h,
    medina_p1,
    medina_scale,
    recurrence,
)
from .oracle import _Walk, arctan_enclosure
from .poly_core import (
    IntPoly,
    Poly,
    check_int,
    horner_den,
    horner_numerator,
    poly,
    poly_derivative,
    poly_eval_horner,
    poly_mul,
    poly_sub,
    powers_at,
    powers_terms,
    rat_text,
)

DEFAULT_WORK_LIMIT = 2_000_000

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


class Witness(NamedTuple):
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


class LemmaCheck(NamedTuple):
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


class VerificationReport(NamedTuple):
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


# Each grid claim below, for the row of points k/n, returns (holds, sides):
# holds(k) decides the claim at k/n on integers, and sides(x) gives its two
# sides as Fractions, which only a witness reads.  A polynomial's value at k/n
# is horner_numerator(form.nums, k, n), or values[k], over horner_den(form, n).


def _peak_claim(n: int):
    """L1: x(1-x) <= 1/4 with equality only at 1/2, as 4k(n-k) <= n^2 with
    equality only at 2k = n."""
    top = n * n

    def holds(k):
        value = 4 * k * (n - k)
        return value <= top and (value == top) == (2 * k == n)

    return holds, lambda x: (x * (1 - x), _QUARTER)


def _power_claim(n: int, m: int):
    """L3: (x(1-x))^{4m} <= 4^{-4m}, as (4k(n-k))^{4m} <= n^{8m}."""
    e = 4 * m
    top, cap = n ** (2 * e), Fraction(1, 4**e)
    return (
        lambda k: (4 * k * (n - k)) ** e <= top,
        lambda x: ((x * (1 - x)) ** e, cap),
    )


def _integral_claim(n: int, m: int, anti: IntPoly):
    """L4: anti(x) <= min(4^{-4m} x, 4^{-4m}), as H 4^{4m} n <= D n^d min(k, n)
    with H/(D n^d) = anti(k/n)."""
    cap = Fraction(1, 4 ** (4 * m))
    left, right = 4 ** (4 * m) * n, horner_den(anti, n)
    return (
        lambda k: horner_numerator(anti.nums, k, n) * left <= right * min(k, n),
        lambda x: (poly_eval_horner(anti, x), min(cap * x, cap)),
    )


def _sign_claim(n: int, p: IntPoly, scale: Fraction, values: list[int]):
    """L6: p(x) - s/(1 + x^2) >= 0 for the integer s = scale, as
    H (n^2 + k^2) >= s D n^{d+2} with H = values[k], D n^d p(k/n)."""
    right = scale.numerator * horner_den(p, n) * n * n
    return (
        lambda k: values[k] * (n * n + k * k) >= right,
        lambda x: (poly_eval_horner(p, x) - scale / (1 + x * x), Fraction(0)),
    )


def _final_claim(n: int, h: IntPoly, bound: Fraction, width: Fraction, walk, values):
    """L7: |h(x) - mid| + width/2 <= bound against the enclosure [lo, hi] of
    arctan(x) at width.  The left side is max(h - lo, hi - h), so the claim
    is hi - bound <= h <= lo + bound, both cross-multiplied with the integer
    pairs ((lo_n, lo_d), (hi_n, hi_d)) that walk(k), arctan's oracle walk
    at k/n, gives at width, and h's numerator values[k]."""
    q, (bn, bd) = horner_den(h, n), bound.as_integer_ratio()
    e, d = width.as_integer_ratio()

    def holds(k):
        (ln, ld), (un, ud) = walk(k).bracket(e, d)
        value = values[k]
        if (un * bd - bn * ud) * q > value * ud * bd:  # h below hi - bound
            return False
        return value * ld * bd <= (ln * bd + bn * ld) * q  # h at most lo + bound

    def sides(x):
        enc = arctan_enclosure(x, width)
        return abs(poly_eval_horner(h, x) - enc.mid) + enc.width / 2, bound

    return holds, sides


def _schemes_claim(n: int, form: IntPoly, values):
    """L9: form's Horner numerators values equal the powers route's sums
    over form's own numerators, both over horner_den(form, n), so compared
    as they are.  The powers side raises n^(d-i) once a row; a witness's
    sides are the two values."""
    terms, den = powers_terms(form.nums, n), horner_den(form, n)

    def sides(x):
        k = x.numerator * n // x.denominator
        return Fraction(values[k], den), Fraction(powers_at(terms, k), den)

    return lambda k: values[k] == powers_at(terms, k), sides


def _antiderivative(row: Sequence[int]) -> IntPoly:
    """IntPoly(L, nums): L4's integral, the antiderivative of row from 0, on
    integers, with nums[k] = L row[k-1] / k exactly and L the plain lcm of
    those coefficients' reduced denominators.  It is the form of
    poly_antiderivative(row), with no Fraction made and no step shared with
    _integrate."""
    den = math.lcm(*(k // math.gcd(c, k) for k, c in enumerate(row, 1)))
    return IntPoly(den, (0, *(den * c // k for k, c in enumerate(row, 1))))


class _Run:
    """One run's state: the grid and indices, the work meter and the checks
    done, the one recurrence walk with the p_m forms grown from it, and the
    verdicts, each the first witness or None, under (m, which, grid): which
    0 for p_m and 1 for h_m, grid True for L9 on the form's Horner row and
    False for the identity on the form (L5 on p_m, L8 on h_m).  No h_m
    form or row is kept.  _LEMMAS holds none of it, so concurrent runs
    share the table."""

    def __init__(self, grid_n: int, m_max: int, limit: int, seed, injected: bool):
        self.n, self.m_max, self.limit, self.used = grid_n, m_max, limit, 0
        self.indices, self.walk, self.grown = range(1, m_max + 1), recurrence(seed), []
        self.injected, self.verdicts, self.done = injected, {}, []

    def spend(self, units: int = 1) -> None:
        """Pay units of work; past the limit, raise with the report so far,
        naming the lemma under way by its place in _LEMMAS."""
        self.used += units
        if self.used > self.limit:
            raise WorkLimitExceeded(
                f"work limit {self.limit} exhausted during {_LEMMAS[len(self.done)][0]} "
                f"({len(self.done)} of {len(_LEMMAS)} checks completed)",
                VerificationReport(tuple(self.done), self.n, self.m_max),
            )

    def p(self, m: int) -> IntPoly:
        """p_m from the run's one walk, grown as asked for: its integer row,
        wrapped once a run as the form IntPoly(1, row) that L6, L8 and L9
        read, with L5 decided on the row as it is grown."""
        while len(self.grown) < m:
            j, row = len(self.grown) + 1, next(self.walk)
            self.verdicts[j, 0, False] = _first_difference(j, *_closed_sides(row, j))
            self.grown.append(IntPoly(1, row))
        return self.grown[m - 1]

    def h(self, m: int) -> IntPoly:
        """h_m, made each time it is asked for: the shipped one, or the
        injected seed's p_m integrated as medina_h integrates the closed
        form's row, with L8 decided on it as it is made.  The run keeps
        nothing of it."""
        p = self.p(m).nums
        form = _integrate(p, m) if self.injected else medina_h(m)
        self.verdicts[m, 1, False] = _first_difference(m, *_round_trip_sides(form, p, m))
        return form

    def form(self, m: int, which: int) -> IntPoly:
        """p_m (which 0) or h_m (which 1)."""
        return (self.p, self.h)[which](m)

    def row(self, m: int, which: int) -> tuple[IntPoly, list[int]]:
        """form(m, which) with its Horner row, and L9 decided on the row as
        it is made: its first witness, or None, is recorded under
        (m, which, True), and the row itself is not kept."""
        form = self.form(m, which)
        row = [horner_numerator(form.nums, k, self.n) for k in range(self.n + 1)]
        self.verdicts[m, which, True] = self.witness(m, *_schemes_claim(self.n, form, row))
        return form, row

    def point(self, k: int) -> _Walk:
        """arctan's oracle walk at k/grid_n, in lowest terms."""
        g = math.gcd(k, self.n)
        return _Walk(k // g, self.n // g)

    def scan(self, claim, rows=None):
        """(True, None), or (False, witness) at the first point x = k/grid_n
        where holds(k) is false, with (holds, sides) = claim(run, *row) and
        (lhs, rhs) = sides(x).  rows yields the arguments after the run, m
        first, by default (m,) for each index; a row's grid_n + 1 points cost
        a unit each, paid before the claim is made."""
        for row in rows or ((m,) for m in self.indices):
            self.spend(self.n + 1)
            if witness := self.witness(row[0], *claim(self, *row)):
                return False, witness
        return True, None

    def witness(self, m: Optional[int], holds, sides) -> Optional[Witness]:
        """The witness at index m and the first point x = k/grid_n where
        holds(k) is false, with (lhs, rhs) = sides(x), or None."""
        points = (Fraction(k, self.n) for k in filterfalse(holds, range(self.n + 1)))
        return next((Witness(x, m, *sides(x)) for x in points), None)

    def recorded(self, kinds: tuple[int, ...], grid: bool = False):
        """(True, None), or (False, witness) at the first recorded witness,
        reading for each index m in turn the verdict on each form `which` in
        kinds (0 p_m, 1 h_m): the identity's, a unit each, or with grid
        L9's on its Horner row, grid_n + 1 units each.  Each is paid for
        first, and what no earlier lemma made is made here, its verdict
        recorded."""
        for m, which in product(self.indices, kinds):
            self.spend(self.n + 1 if grid else 1)
            if (m, which, grid) not in self.verdicts:
                (self.row if grid else self.form)(m, which)
            if verdict := self.verdicts[m, which, grid]:
                return False, verdict
        return True, None


def _first_difference(m: int, lhs, rhs, den: int) -> Optional[Witness]:
    """The witness at index m and the lowest power where the integer rows
    lhs and rhs first differ, its sides their coefficients over den; None
    where the rows agree."""
    diff = ((a, b) for a, b in zip_longest(lhs, rhs, fillvalue=0) if a != b)
    return next((Witness(None, m, Fraction(a, den), Fraction(b, den)) for a, b in diff), None)


def _peak_bound(run: _Run):
    half = poly([-_HALF, 1])
    if poly_sub(poly([_QUARTER]), HUMP) != poly_mul(half, half):
        return False, Witness(x=None, m=None, lhs=Fraction(0), rhs=_QUARTER)
    passed, witness = run.scan(_peak_row, ((None,),))
    if passed and run.n % 2 == 0:
        # The equality the claim allows, where the grid reaches it.
        witness = Witness(x=_HALF, m=None, lhs=_QUARTER, rhs=_QUARTER)
    return passed, witness


def _peak_row(run: _Run, m: None):
    return _peak_claim(run.n)


def _peak_slope(run: _Run):
    run.spend()
    slope = poly_derivative(HUMP)
    at_half = poly_eval_horner(slope, _HALF)
    if slope != poly([1, -2]) or at_half != 0:
        return False, Witness(x=_HALF, m=None, lhs=at_half, rhs=Fraction(0))
    return True, None


def _power_row(run: _Run, m: int):
    return _power_claim(run.n, m)


def _integral_row(run: _Run, m: int):
    return _integral_claim(run.n, m, _antiderivative(_window_row(m)))


def _closed_sides(p: Sequence[int], m: int):
    # p + x^2 p + (-4)^m, the constant in x^2 p's place, against the window.
    return [a + b for a, b in zip((*p, 0, 0), ((-4) ** m, 0, *p))], _window_row(m), 1


def _sign_row(run: _Run, m: int):
    p, values = run.row(m, 0)
    return _sign_claim(run.n, p, medina_scale(m), values)


def _final(run: _Run):
    """L7's scan.  Row 1 of several makes one oracle walk a grid point, in
    lowest terms, kept for later rows to carry on until the scan returns."""
    walks: list[_Walk] = []
    return run.scan(_final_row, ((m, walks) for m in run.indices))


def _final_row(run: _Run, m: int, walks: list[_Walk]):
    if not walks and m < run.m_max:  # paid for; the last row keeps none
        walks.extend(map(run.point, range(run.n + 1)))
    (h, values), bound = run.row(m, 1), medina_error_bound(m)
    walk = walks.__getitem__ if walks else run.point
    return _final_claim(run.n, h, bound, bound / 16, walk, values)


def _round_trip_sides(form: IntPoly, p: Sequence[int], m: int):
    # h_m = (1/s) * the integral of p_m from 0, with s = medina_scale(m), so
    # its form (D, H) has H_0 = 0 and s k H_k = D p_{k-1} at each power k >= 1.
    s = medina_scale(m).numerator
    slopes = [form.nums[0], *(s * k * c for k, c in enumerate(form.nums[1:], 1))]
    return slopes, [0, *(form.den * c for c in p)], form.den


_LEMMAS = (
    (
        "L1",
        "x(1-x) <= 1/4 on [0, 1] with equality only at x = 1/2; "
        "1/4 - x(1-x) is the square (x - 1/2)^2",
        _peak_bound,
    ),
    (
        "L2",
        "the derivative of x(1-x) is 1 - 2x and vanishes at the peak x = 1/2",
        _peak_slope,
    ),
    ("L3", "(x(1-x))^{4m} <= 4^{-4m} on [0, 1]", _Run.scan, _power_row),
    (
        "L4",
        "the integral of x^{4m}(1-x)^{4m} from 0 to x is at most "
        "4^{-4m} x, hence at most 4^{-4m}",
        _Run.scan,
        _integral_row,
    ),
    (
        "L5",
        "(1 + x^2) p_m(x) + (-4)^m equals x^{4m}(1-x)^{4m} identically",
        _Run.recorded,
        (0,),
    ),
    ("L6", "p_m(x) - ((-1)^{m+1} 4^m)/(1 + x^2) >= 0 on [0, 1]", _Run.scan, _sign_row),
    (
        "L7",
        "|h_m(x) - arctan(x)| <= 4^{-5m} on [0, 1], decided against "
        "enclosures of width 4^{-5m-2}",
        _final,
    ),
    (
        "L8",
        "differentiating the antiderivative of p_m gives back p_m "
        "coefficient for coefficient",
        _Run.recorded,
        (1,),
    ),
    (
        "L9",
        "Horner and explicit-powers evaluation agree on p_m and h_m "
        "at every grid point",
        _Run.recorded,
        (0, 1),
        True,
    ),
)


def run_suite(
    grid_n: int,
    m_max: int,
    *,
    base_poly=None,
    work_limit: Optional[int] = None,
) -> VerificationReport:
    """Check every lemma for indices 1..m_max.

    By default L5, L6 and L9 check the reference recurrence's p_m, L7 and
    L9 the shipped medina_h, and L8 that medina_h against the reference.
    base_poly overrides the seed (the fault-injection hook), and h_m is then
    integrated from its p_m.  One recurrence walk serves the run, on integer
    rows, so base_poly must have integer coefficients (ValueError before
    anything is paid for otherwise).  Each row (an index, or a pass over
    the grid) is paid for before anything in it is grown, integrated or made.
    """
    check_int(grid_n, "grid_n", 2)
    _check_index(m_max, "m_max")
    limit = check_int(
        DEFAULT_WORK_LIMIT if work_limit is None else work_limit, "work limit", 1
    )
    seed = IntPoly.of(medina_p1() if base_poly is None else poly(base_poly))
    if seed.den != 1:
        raise ValueError("base_poly must have integer coefficients")
    run = _Run(grid_n, m_max, limit, seed.nums, base_poly is not None)
    for lemma_id, description, runner, *args in _LEMMAS:
        run.done.append(LemmaCheck(lemma_id, description, *runner(run, *args)))
    return VerificationReport(tuple(run.done), grid_n, m_max)


def corrupted_seed() -> Poly:
    """medina_p1 with the x^2 coefficient's sign flipped; breaks the identity."""
    seed = list(medina_p1())
    seed[2] = -seed[2]
    return poly(seed)
