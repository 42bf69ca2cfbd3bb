"""Lemma suite: clean passes, fault injection, determinism, work metering."""

import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medina_arctan import medina, verify
from medina_arctan.medina import (
    approximant,
    medina_error_bound,
    medina_h,
    medina_p1,
    medina_scale,
    recurrence,
    window_poly,
)
from medina_arctan.oracle import _Walk, arctan_enclosure
from medina_arctan.poly_core import (
    IntPoly,
    horner_numerator,
    poly_add,
    poly_antiderivative,
    poly_mul,
    rat_parse,
)
from medina_arctan.verify import (
    Witness,
    WorkLimitExceeded,
    corrupted_seed,
    run_suite,
)

LEMMA_IDS = tuple(f"L{i}" for i in range(1, 10))


def test_minimal_grid_passes():
    report = run_suite(2, 1)
    assert report.all_passed
    assert report.grid_size == 2
    assert report.m_max == 1
    assert tuple(c.id for c in report.checks) == LEMMA_IDS


def test_peak_equality_witness_present():
    report = run_suite(2, 1)
    peak = report.checks[0]
    assert peak.id == "L1"
    assert peak.passed
    assert peak.witness is not None
    assert peak.witness.x == Fraction(1, 2)
    assert peak.witness.lhs == peak.witness.rhs == Fraction(1, 4)


def test_grid_without_midpoint_still_passes():
    report = run_suite(3, 1)
    assert report.all_passed
    assert report.checks[0].witness is None


def test_wider_run_passes():
    report = run_suite(64, 3)
    assert report.all_passed


def test_determinism():
    assert run_suite(16, 2) == run_suite(16, 2)


def test_corrupted_seed_fails_identity_with_witness():
    report = run_suite(8, 2, base_poly=corrupted_seed())
    assert not report.all_passed
    failed = {c.id for c in report.checks if not c.passed}
    assert "L5" in failed
    # the claims not involving p_m are untouched by the corruption
    assert {"L1", "L2", "L3", "L4"}.isdisjoint(failed)
    broken = next(c for c in report.checks if c.id == "L5")
    # L5 is compared by coefficients: the x^2 coefficients of its two sides.
    assert broken.witness == Witness(x=None, m=1, lhs=Fraction(8), rhs=Fraction(0))


@pytest.mark.parametrize("grid_n,m_max", [(2, 1), (16, 3)])
def test_seed_that_vanishes_on_the_grid_fails_the_identity(grid_n, m_max):
    # p_1 plus the integer polynomial (grid_n x - 0) ... (grid_n x - grid_n),
    # zero at every k/grid_n: sampling L5 on the grid cannot tell this seed
    # from Medina's, comparing coefficients can.
    vanishing = (1,)
    for k in range(grid_n + 1):
        vanishing = poly_mul(vanishing, (-k, grid_n))
    report = run_suite(grid_n, m_max, base_poly=poly_add(medina_p1(), vanishing))
    by_id = {c.id: c for c in report.checks}
    assert all(by_id[i].passed for i in ("L1", "L2", "L3", "L4"))
    assert not by_id["L5"].passed
    assert by_id["L5"].witness.x is None
    assert by_id["L5"].witness.m == 1


def test_final_bound_checks_the_reported_bound(monkeypatch):
    # L7 reads medina_error_bound, so a bound 4x too tight is caught there.
    def too_tight(m):
        return Fraction(1, 4 ** (5 * m + 1))

    monkeypatch.setattr(verify, "medina_error_bound", too_tight)
    report = run_suite(16, 3)
    assert [c.id for c in report.checks if not c.passed] == ["L7"]
    witness = next(c.witness for c in report.checks if c.id == "L7")
    assert (witness.x, witness.m) == (Fraction(5, 8), 1)
    assert witness.rhs == Fraction(1, 4**6)
    assert witness.lhs > witness.rhs


@pytest.mark.parametrize("power", [3, 0], ids=["x^3", "constant"])
def test_round_trip_lemma_catches_a_wrong_shipped_approximant(monkeypatch, power):
    # L8 differentiates the shipped h_m itself against the reference p_m, so
    # one numerator of medina_h(2) off by one fails it at m = 2, with the
    # index and the two sides' coefficients at that power as its witness:
    # s k H_k / D against p_{k-1}, or at k = 0 h_2(0) = H_0 / D against 0.
    # L9 compares the two schemes on that same form, so it passes.
    good = medina_h(2)
    nums = list(good.nums)
    nums[power] += 1
    bad = IntPoly(good.den, tuple(nums))
    monkeypatch.setattr(verify, "medina_h", lambda m: bad if m == 2 else medina_h(m))
    report = run_suite(16, 3)
    failed = {c.id for c in report.checks if not c.passed}
    assert "L8" in failed
    assert {"L1", "L2", "L3", "L4", "L5", "L6", "L9"}.isdisjoint(failed)
    witness = next(c.witness for c in report.checks if c.id == "L8")
    reference = (0, *medina._p_row(2))[power]
    step = medina_scale(2).numerator * power if power else 1
    assert witness == Witness(None, 2, reference + Fraction(step, good.den), Fraction(reference))


def integrating_wrongly(change):
    """medina._integrate with change(nums) applied to its numerators at m = 2."""
    real = medina._integrate

    def integrate(row, m):
        form = real(row, m)
        return IntPoly(form.den, tuple(change(list(form.nums)))) if m == 2 else form

    return integrate


def bump_h3(nums):
    nums[3] += 1
    return nums


@pytest.mark.parametrize(
    "change, power",
    [(bump_h3, 2), (lambda nums: nums[:-1], 14)],
    ids=["one-numerator", "top-dropped"],
)
def test_round_trip_lemma_catches_a_wrong_integration(
    monkeypatch, fresh_caches, change, power
):
    # medina_h integrates wrongly at m = 2: a numerator off by one, or a
    # dropped top term.  L8 differentiates that shipped form on integers and
    # fails at the lowest power of the reference p_2 it no longer gives
    # back.  Both faults move h_2 past its bound, so L7 fails too; L9 reads
    # the same form on both sides, so it passes.
    wrong = integrating_wrongly(change)
    monkeypatch.setattr(medina, "_integrate", wrong)
    report = run_suite(16, 3)
    assert [c.id for c in report.checks if not c.passed] == ["L7", "L8"]
    witness = next(c.witness for c in report.checks if c.id == "L8")
    assert (witness.x, witness.m) == (None, 2)
    row = list(islice(recurrence(medina._SEED), 2))[1]
    form = wrong(row, 2)
    top = form.nums[power + 1] if power + 1 < len(form.nums) else 0
    slope = Fraction(medina_scale(2).numerator * (power + 1) * top, form.den)
    assert (witness.lhs, witness.rhs) == (slope, Fraction(row[power]))
    assert witness.lhs != witness.rhs


@pytest.mark.parametrize(
    "seed, m_max",
    [(corrupted_seed(), 60), ((1, 0, 2), 10)],
    ids=["corrupted", "short"],
)
def test_injected_h_is_integrated_as_medina_h_is(seed, m_max):
    # The injected seed's h_m comes from medina's integer route, the one
    # medina_h serves; it is the Fraction rule's form at every index.
    rows = islice(recurrence(tuple(map(int, seed))), m_max)
    for m, row in enumerate(rows, 1):
        assert medina._integrate(row, m) == IntPoly.of(approximant(row, m))


@settings(deadline=None)
@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40))
@example([0])
@example(medina._window_row(3))
def test_integral_form_is_the_fraction_routes(row):
    # L4's integral, formed on integers, is the form IntPoly.of makes from
    # poly_antiderivative's Fractions, den and numerators alike.
    assert verify._antiderivative(row) == IntPoly.of(poly_antiderivative(row))


def test_round_trip_lemma_reads_the_shipped_form():
    # L8's two sides are made from the form the run holds, medina_h(m)
    # itself, and the reference p_m: H_0 against 0, then s k H_k against
    # D p_{k-1}, equal power by power.
    run = verify._Run(2, 3, 100, medina._SEED, False)
    for m, row in zip(run.indices, recurrence(medina._SEED)):
        slopes, reference, den = verify._round_trip_sides(run, m)
        assert run.h(m) is medina_h(m)
        assert den == medina_h(m).den
        assert slopes == reference == [0, *(den * c for c in row)]


def test_a_clean_run_integrates_nothing_of_its_own(monkeypatch):
    # Every h_m of a clean run is the shipped medina_h(m), which L8 checks.
    def refuse(row, m):
        raise AssertionError("verify integrated h_m itself")

    monkeypatch.setattr(verify, "_integrate", refuse)
    assert run_suite(16, 3).all_passed


def counting_walks(monkeypatch):
    """Install an oracle walk in verify that logs each walk made, with the
    number then alive, and each freed; return (made, alive, freed)."""
    made, alive, freed = [], [], []

    class Counting(_Walk):
        __slots__ = ()

        def __init__(self, a, b):
            super().__init__(a, b)
            made.append((a, b))
            alive.append(len(made) - len(freed))

        def __del__(self):
            freed.append(1)

    monkeypatch.setattr(verify, "_Walk", Counting)
    return made, alive, freed


def counting_l8(monkeypatch, freed):
    """Log len(freed) at each payment L8 makes, one an index, each before
    anything of that index is read."""
    at_l8 = []
    spend = verify._Run.spend

    def counting(run, units=1):
        if len(run.done) == LEMMA_IDS.index("L8"):
            at_l8.append(len(freed))
        spend(run, units)

    monkeypatch.setattr(verify._Run, "spend", counting)
    return at_l8


@pytest.mark.parametrize("tight", [False, True], ids=["passing", "tight bound"])
def test_l7_keeps_a_walk_a_point_and_lets_them_go(monkeypatch, tight):
    # L7 makes one oracle walk at each grid point, in lowest terms, in its
    # first row and asks it again in each later row; all are gone before
    # L8 runs (its first payment).
    if tight:
        monkeypatch.setattr(verify, "medina_error_bound", lambda m: Fraction(1, 4 ** (5 * m + 1)))
    made, alive, freed = counting_walks(monkeypatch)
    at_l8 = counting_l8(monkeypatch, freed)
    report = run_suite(16, 3)
    # The tight bound fails L7 at 10/16 in its first row.
    assert report.all_passed is not tight
    assert made == [Fraction(k, 16).as_integer_ratio() for k in range(17)]
    assert alive == list(range(1, 18))
    assert at_l8[0] == len(made)


def test_l7_keeps_no_walk_in_its_last_row(monkeypatch):
    # At m_max = 1 the first row is the last: no later row asks a walk
    # again, so each goes once its point is decided, and at most the one
    # being asked is alive.
    made, alive, freed = counting_walks(monkeypatch)
    at_l8 = counting_l8(monkeypatch, freed)
    assert run_suite(16, 1).all_passed
    assert made == [Fraction(k, 16).as_integer_ratio() for k in range(17)]
    assert max(alive) == 1
    assert at_l8[0] == len(made)


def test_horner_rows_are_made_once_and_shared(monkeypatch):
    # L4, L6 and L7 each make one Horner numerator a grid point of each of
    # their rows, and L9 is decided on L6's rows (p_m) and L7's (h_m) as they
    # are made.  The corrupted seed fails L6 at m = 2 and L7 at m = 1, so L9
    # makes p_3, h_2 and h_3 itself; either way no row is made twice.
    calls = Counter()

    def counting(nums, a, b):
        calls[tuple(nums)] += 1
        return horner_numerator(nums, a, b)

    monkeypatch.setattr(verify, "horner_numerator", counting)
    for seed, failed in ((None, []), (corrupted_seed(), ["L5", "L6", "L7"])):
        calls.clear()
        report = run_suite(16, 3, base_poly=seed)
        assert [c.id for c in report.checks if not c.passed] == failed
        rows = list(islice(recurrence(tuple(map(int, seed or medina_p1()))), 3))
        made = list(rows)
        for m, row in enumerate(rows, 1):
            made.append((medina._integrate(row, m) if seed else medina_h(m)).nums)
            made.append(verify._antiderivative(medina._window_row(m)).nums)
        assert calls == Counter({tuple(nums): 17 for nums in made})


@pytest.mark.parametrize(
    "seed", [None, corrupted_seed()], ids=["row made by L7", "row made by L9"]
)
def test_a_horner_fault_fails_l9(monkeypatch, seed):
    # h_2's Horner row, off by one at 5/16, fails L9 there with the Fraction
    # rules' witness, the off numerator over D 16^d against the powers
    # route's h_2.  L7 makes that row on a clean run; the corrupted seed
    # fails L7 at m = 1, so L9 makes it itself.
    p_2 = list(islice(recurrence(tuple(map(int, seed or medina_p1()))), 2))[1]
    h = medina._integrate(p_2, 2) if seed else medina_h(2)

    def off(nums, a, b):
        value = horner_numerator(nums, a, b)
        return value + 1 if (tuple(nums), a, b) == (h.nums, 5, 16) else value

    monkeypatch.setattr(verify, "horner_numerator", off)
    report = run_suite(16, 3, base_poly=seed)
    failed = [c.id for c in report.checks if not c.passed]
    assert failed == (["L9"] if seed is None else ["L5", "L6", "L7", "L9"])
    assert seed is None or report.checks[LEMMA_IDS.index("L7")].witness.m == 1
    x = Fraction(5, 16)
    assert report.checks[-1].witness == Witness(
        x, 2, form_at(h, x) + Fraction(1, 16 ** (len(h) - 1) * h.den),
        value_at(approximant(p_2, 2), x),
    )


def test_concurrent_runs_each_get_their_own_report():
    # The lemma table is shared by every run; a run's state is its own, so
    # runs interleaved in four threads each report as a run alone does.
    seeds = (None, corrupted_seed())
    want = [run_suite(16, 3, base_poly=seed) for seed in seeds]
    got = []

    def runs():
        got.append([run_suite(16, 3, base_poly=seed) for seed in seeds])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runs) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4


def test_peak_identity_failure_has_a_witness(monkeypatch):
    # L1's symbolic square is a poly_mul; a wrong product fails it up front.
    monkeypatch.setattr(verify, "poly_mul", lambda p, q: (Fraction(1),))
    by_id = {c.id: c for c in run_suite(2, 1).checks}
    assert not by_id["L1"].passed
    assert by_id["L1"].witness == Witness(None, None, Fraction(0), Fraction(1, 4))
    assert all(by_id[i].passed for i in LEMMA_IDS[1:])


def test_peak_slope_failure_has_a_witness(monkeypatch):
    # L2 reads the slope by poly_derivative; one that misses the peak fails.
    monkeypatch.setattr(verify, "poly_derivative", lambda p: (Fraction(1), Fraction(-1)))
    by_id = {c.id: c for c in run_suite(2, 1).checks}
    assert not by_id["L2"].passed
    assert by_id["L2"].witness == Witness(Fraction(1, 2), None, Fraction(1, 2), Fraction(0))


def test_failed_checks_always_carry_witnesses():
    report = run_suite(8, 2, base_poly=corrupted_seed())
    for check in report.checks:
        if not check.passed:
            assert check.witness is not None


@pytest.mark.parametrize("grid_n,m_max", [(1, 1), (0, 1), (2, 0), (True, 1), (2, -2)])
def test_parameter_validation(grid_n, m_max):
    with pytest.raises(ValueError):
        run_suite(grid_n, m_max)


def test_work_limit_zero_rejected():
    with pytest.raises(ValueError):
        run_suite(2, 1, work_limit=0)


def test_work_limit_aborts_with_partial_report():
    with pytest.raises(WorkLimitExceeded) as caught:
        run_suite(64, 3, work_limit=200)
    partial = caught.value.partial
    assert tuple(c.id for c in partial.checks) == ("L1", "L2")
    assert "L3" in str(caught.value)


def test_work_limit_can_abort_immediately():
    with pytest.raises(WorkLimitExceeded) as caught:
        run_suite(64, 3, work_limit=10)
    assert caught.value.partial.checks == ()


def refusing_walk(seed):
    """A stand-in for recurrence that raises at its first member."""
    raise AssertionError("grew the recurrence before the work meter paid for it")
    yield


def test_work_limit_is_spent_before_anything_is_built(monkeypatch):
    # The walk is verify's recurrence, which grows nothing until a member is
    # asked for; integration is _integrate (an injected seed's h_m) and
    # _antiderivative (L4's integral), and L7's oracle walks start at the
    # points of its first row.
    def refuse(*args):
        raise AssertionError("grew or integrated before the work meter paid for it")

    monkeypatch.setattr(verify, "recurrence", refusing_walk)
    monkeypatch.setattr(verify, "_window_row", refuse)
    monkeypatch.setattr(verify, "_integrate", refuse)
    monkeypatch.setattr(verify, "_antiderivative", refuse)
    monkeypatch.setattr(verify, "_Walk", refuse)
    # Every grid point is a Fraction made in verify, after its row is paid for.
    monkeypatch.setattr(verify, "Fraction", refuse)
    before = medina_h.cache_info()
    for seed in (None, corrupted_seed()):
        with pytest.raises(WorkLimitExceeded):
            run_suite(2, 30, base_poly=seed, work_limit=1)
    after = medina_h.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    with pytest.raises(WorkLimitExceeded) as caught:
        run_suite(10**12, 1)
    assert caught.value.partial.checks == ()


@pytest.mark.parametrize("seed", [None, corrupted_seed()], ids=["shipped", "corrupted"])
def test_suite_grows_the_recurrence_once(monkeypatch, seed):
    # One walk per run: m_max members, so m_max - 1 steps, not one regrowth
    # from p_1 per index.  Each member is an integer row.
    walks, members = [], []

    def counting(row):
        walks.append(row)
        for p in medina.recurrence(row):
            members.append(p)
            yield p

    monkeypatch.setattr(verify, "recurrence", counting)
    run_suite(2, 40, base_poly=seed)
    assert len(walks) == 1
    assert len(members) - 1 == 39
    assert all(type(c) is int for p in members for c in p)


@pytest.mark.parametrize("seed", [None, corrupted_seed()], ids=["shipped", "corrupted"])
def test_suite_forms_each_polynomial_once(monkeypatch, seed):
    # Each polynomial that IntPoly.of puts into integer form (one lcm) is
    # formed once a run, not once a point: the seed, checked for integer
    # coefficients, and L2's slope.  p_m's rows (L6 and L9) are integers
    # already, read as IntPoly(1, row) with no lcm; L4's integral is formed
    # from its integer row by _antiderivative, and an injected seed's h_m is
    # integrated straight into its form, as medina_h's is.
    formed = []
    of = IntPoly.of.__func__

    def counting(cls, p):
        formed.append(tuple(p))
        return of(cls, p)

    monkeypatch.setattr(IntPoly, "of", classmethod(counting))
    assert run_suite(16, 3, base_poly=seed).all_passed == (seed is None)
    assert len(formed) == len(set(formed)) == 2


@pytest.mark.parametrize(
    "seed",
    [[Fraction(1, 3)], poly_add(medina_p1(), (0, Fraction(1, 2)))],
    ids=["one third", "p_1 plus x/2"],
)
def test_rational_seed_is_refused_before_anything_is_paid(monkeypatch, seed):
    # The walk runs on integer rows.  A limit of 1 is spent by L1's first
    # row, so a ValueError here came before the meter charged anything.
    monkeypatch.setattr(verify, "recurrence", refusing_walk)
    with pytest.raises(ValueError, match="base_poly must have integer coefficients"):
        run_suite(2, 1, base_poly=seed, work_limit=1)


def test_huge_grid_exhausts_the_limit_at_once():
    with pytest.raises(WorkLimitExceeded) as caught:
        run_suite(10**12, 1, work_limit=10)
    assert caught.value.partial.checks == ()


def test_work_meter_sweep_matches_per_lemma_units():
    # run_suite(8, 2) spends L1 9, L2 1, L3 and L4 18 each, L5 2, L6 and L7
    # 18 each, L8 2 and L9 36 units: one per grid point and index (L9 two,
    # for p_m and h_m), one for L2, one per index for the identities L5 and
    # L8.  Each row is paid in full before it is built, so each limit below
    # is the least that runs short in that lemma, and 122 the least that
    # completes.
    first_short = {}
    for limit in range(1, 123):
        try:
            report = run_suite(8, 2, work_limit=limit)
        except WorkLimitExceeded as exc:
            lemma = LEMMA_IDS[len(exc.partial.checks)]
            assert f"during {lemma} " in str(exc)
            first_short.setdefault(lemma, limit)
        else:
            assert report.all_passed
            first_short.setdefault("pass", limit)
    assert first_short == {
        "L1": 1, "L2": 9, "L3": 10, "L4": 28, "L5": 46,
        "L6": 48, "L7": 66, "L8": 84, "L9": 86, "pass": 122,
    }


@pytest.mark.parametrize("seed", [None, corrupted_seed()], ids=["clean", "corrupted"])
def test_partial_reports_are_prefixes_of_the_full_report(seed):
    # Every limit short of the least that completes runs short, and the
    # checks it reports, witnesses included, open the unlimited report.
    full = run_suite(8, 2, base_poly=seed)
    limit = 1
    while True:
        try:
            report = run_suite(8, 2, base_poly=seed, work_limit=limit)
        except WorkLimitExceeded as exc:
            done = exc.partial
            assert (done.grid_size, done.m_max) == (8, 2)
            assert len(done.checks) < len(LEMMA_IDS)
            assert done.checks == full.checks[: len(done.checks)]
            limit += 1
        else:
            break
    assert report == full
    assert limit > len(LEMMA_IDS)


def test_report_json_shape():
    doc = run_suite(2, 1).to_json()
    assert set(doc) == {"grid_size", "m_max", "all_passed", "checks"}
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 9
    for entry in doc["checks"]:
        assert set(entry) == {"id", "description", "passed", "witness"}
    by_id = {entry["id"]: entry for entry in doc["checks"]}
    assert by_id["L1"]["witness"] == {"x": "1/2", "m": None, "lhs": "1/4", "rhs": "1/4"}
    assert by_id["L3"]["witness"] is None


def test_witness_json_past_the_int_str_limit():
    x, lhs, rhs = Fraction(1, 3**9100), Fraction(-(10**5000)), Fraction(2, 7)
    doc = Witness(x=x, m=4, lhs=lhs, rhs=rhs).to_json()
    assert doc["m"] == 4
    assert [rat_parse(doc[key]) for key in ("x", "lhs", "rhs")] == [x, lhs, rhs]
    assert doc["lhs"] == "-1" + "0" * 5000
    assert doc["rhs"] == "2/7"


# The grid claims' Fraction rules as they were decided before the integer
# deciders: each gives (lhs, rhs, holds) at a point x, evaluating every
# polynomial by a Fraction sum, so nothing is shared with the numerators.
_QUARTER = Fraction(1, 4)


def value_at(coeffs, x):
    """sum c_i x^i over Fraction coefficients, one Fraction a term."""
    return sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


def form_at(form, x):
    return value_at([Fraction(c, form.den) for c in form.nums], x)


def peak_rule(x):
    value = x * (1 - x)
    return value, _QUARTER, not (value > _QUARTER or (value == _QUARTER) != (x == Fraction(1, 2)))


def power_rule(m, x):
    lhs, rhs = (x * (1 - x)) ** (4 * m), Fraction(1, 4 ** (4 * m))
    return lhs, rhs, lhs <= rhs


def integral_rule(m, anti, x):
    cap = Fraction(1, 4 ** (4 * m))
    lhs, rhs = form_at(anti, x), min(cap * x, cap)
    return lhs, rhs, lhs <= rhs


def sign_rule(p, scale, x):
    lhs = form_at(p, x) - scale / (1 + x * x)
    return lhs, Fraction(0), lhs >= 0


def final_rule(h, bound, width, x):
    enc = arctan_enclosure(x, width)
    lhs = abs(form_at(h, x) - enc.mid) + enc.width / 2
    return lhs, bound, lhs <= bound


def schemes_rule(made, form, x):
    # The value of the form a Horner row was made from, against form's.
    lhs, rhs = form_at(made, x), form_at(form, x)
    return lhs, rhs, lhs == rhs


def pad(form, zeros):
    """The same polynomial with `zeros` zero numerators above its top."""
    return IntPoly(form.den, form.nums + (0,) * zeros)


CASES = ("shipped", "corrupted", "tight bound", "numerator off")


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 24),
    m=st.integers(1, 3),
    case=st.sampled_from(CASES),
    at=st.integers(0, 10**6),
    delta=st.sampled_from((-1, 1)),
    zeros=st.integers(0, 1),
    stretch=st.integers(1, 4),
)
# x = 1/2 on an even grid: L1's and L3's equality point.
@example(n=2, m=1, case="shipped", at=0, delta=1, zeros=0, stretch=1)
@example(n=16, m=3, case="shipped", at=0, delta=1, zeros=0, stretch=1)
# An odd grid, with no 1/2 on it.
@example(n=3, m=2, case="shipped", at=0, delta=1, zeros=0, stretch=1)
# L4 at x = 1, where min(k, n) switches from k to n, on an integral that
# passes 4^{-4m} x at x = 1 and not at smaller x.
@example(n=8, m=1, case="shipped", at=0, delta=1, zeros=0, stretch=3)
# L7 with its bound tight at x = 0, where the enclosure is the point 0 and
# h_m(0) = 0, so the bound is 0, on a padded h_m; and tight at x = 3/5.
@example(n=5, m=1, case="tight bound", at=0, delta=1, zeros=1, stretch=1)
@example(n=5, m=2, case="tight bound", at=3, delta=1, zeros=0, stretch=1)
# One numerator of h_m off, at x^0 and at the top power.
@example(n=4, m=1, case="numerator off", at=0, delta=-1, zeros=0, stretch=1)
@example(n=4, m=2, case="numerator off", at=15, delta=1, zeros=1, stretch=1)
@example(n=7, m=3, case="corrupted", at=0, delta=1, zeros=1, stretch=2)
def test_grid_claims_decide_as_the_fraction_rules(n, m, case, at, delta, zeros, stretch):
    # Every grid claim, at every point k/n: the integer decision is the
    # Fraction rule's, and the witness sides are its (lhs, rhs).
    seed = verify.corrupted_seed() if case == "corrupted" else medina_p1()
    p = next(islice(recurrence(seed), m - 1, None))
    target = approximant(p, m)
    h = IntPoly.of(target) if case == "corrupted" else medina_h(m)
    # L9's Horner row is made from h before any numerator is put off, so
    # there the "numerator off" case is a row that is not h's.
    made = h
    if case == "numerator off":
        nums = list(h.nums)
        nums[at % len(nums)] += delta
        h = IntPoly(h.den, tuple(nums))
    bound = medina_error_bound(m)
    width = bound / 16
    if case == "tight bound":
        # L7's left side at one grid point: equality there, failures past it.
        bound = final_rule(h, bound, width, Fraction(at % (n + 1), n))[0]
    anti = IntPoly.of(poly_antiderivative(window_poly(m)))
    anti = IntPoly(anti.den, tuple(stretch * c for c in anti.nums))
    # Zero numerators on top change no value, only the degree the row reads.
    p_form, h, made, anti = (pad(f, zeros) for f in (IntPoly.of(p), h, made, anti))
    scale = medina_scale(m)

    # L7's endpoints at k/n from one oracle walk a point, at one width; k/n
    # unreduced, which changes the integers but not the rationals.
    walks = [_Walk(k, n) for k in range(n + 1)]
    # L6, L7 and L9 read each polynomial's row of Horner numerators, as
    # run_suite makes it once for all three.
    p_row, h_row, made_row = (
        [horner_numerator(f.nums, k, n) for k in range(n + 1)] for f in (p_form, h, made)
    )

    claims = [
        (verify._peak_claim(n), peak_rule),
        (verify._power_claim(n, m), partial(power_rule, m)),
        (verify._integral_claim(n, m, anti), partial(integral_rule, m, anti)),
        (verify._sign_claim(n, p_form, scale, p_row), partial(sign_rule, p_form, scale)),
        (
            verify._final_claim(n, h, bound, width, walks.__getitem__, h_row),
            partial(final_rule, h, bound, width),
        ),
        (verify._schemes_claim(n, p_form, p_row), partial(schemes_rule, p_form, p_form)),
        (verify._schemes_claim(n, h, made_row), partial(schemes_rule, made, h)),
    ]
    for (holds, sides), rule in claims:
        for k in range(n + 1):
            x = Fraction(k, n)
            lhs, rhs, want = rule(x)
            assert holds(k) == want, (k, n)
            assert sides(x) == (lhs, rhs)
