"""The benchmark's workloads: seeded requests, how to send one, how to check it.

Each workload turns a seed into one pass: a fixed list of requests.  The
runner replays the pass on a freshly imported and warmed-up package (a
new one for every pass of a cold workload) and times every request on its
own.  Outputs are checked afterwards, outside the timed region, against
the independent oracle in the package: a result counts only when its
`error_bound` holds, decided at width `error_bound / 16` as lemma L7 of
the package's own suite decides it.

Why these three:

- warm-mixed is what a library caller pays once every construction cache
  is warm: evaluation and the pi bootstrap, no construction.
- cold-ladder is what a command-line user pays at high precision: every
  request needs a new index m, so construction and rendering dominate.
- certify is the proof side: the lemma suite and the degree table, which
  evaluate many small-m polynomials at small-denominator points.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction


def certified(pkg, x: Fraction, value: Fraction, bound: Fraction) -> bool:
    """True when |value - arctan(x)| <= bound, proved by an oracle enclosure."""
    enc = pkg.oracle.arctan_enclosure(x, bound / 16)
    return abs(value - enc.mid) + enc.width / 2 <= bound


class Workload:
    """One seeded request mix; subclasses fill in the inputs and the check."""

    name = ""
    # True: every request of a pass must build its own h_m (no cache hits).
    cold = False

    def __init__(self, seed: int):
        self.seed = seed

    def _rng(self, purpose: str) -> random.Random:
        # String seeds hash the same way in every interpreter run.
        return random.Random(f"{self.name}:{purpose}:{self.seed}")

    def pass_requests(self) -> list:
        """The requests of one pass, fixed by the seed."""
        raise NotImplementedError

    def warm_up(self, pkg) -> None:
        raise NotImplementedError

    def call(self, pkg, request):
        """One request through the package's public functions; returns its output."""
        raise NotImplementedError

    def check(self, pkg, request, output) -> bool:
        raise NotImplementedError

    def oracle_targets(self, request) -> list:
        """The (x, eps) pairs this request asks for, to time the oracle on."""
        raise NotImplementedError

    def result_doc(self, output):
        """The arctan result document in an output, or None if it has none."""
        return None

    def composition(self, results) -> dict:
        """Shares of the request properties the run depends on."""
        return {}


DENOMINATORS = (7, 64, 1000, 65536)
# eps class -> requests per (denominator, side of 1) cell of a warm-mixed pass.
# Equal weights would put the median latency exactly on the gap between
# the 1e-50 requests below 1 and those above 1 (the reciprocal step costs
# a pi bootstrap), where it jumps with the seed; 3:2:2 puts it inside one.
EPS_CELL = {"1e-20": 60, "1e-50": 40, "1e-100": 40}


class WarmMixed(Workload):
    """arctan_auto then approx_result_json on a seeded pass, caches warm.

    |x| is log-uniform in [1e-3, 1e3]; numerators round to the nearest
    integer over one of DENOMINATORS, and never to 0.  The eps classes
    select m = 7, 17 and 34.  The pass is stratified: every (eps,
    denominator, side of 1) cell gets a fixed number of requests, half of
    them negative, so every seed gives the same mix and moves only
    magnitudes and order.  A pass has 1,120 requests.
    """

    name = "warm-mixed"

    def pass_requests(self) -> list:
        rng = self._rng("pass")
        requests = []
        for eps, count in EPS_CELL.items():
            for den in DENOMINATORS:
                for low, high in ((-3, 0), (0, 3)):
                    for k in range(count):
                        magnitude = 10 ** rng.uniform(low, high)
                        x = Fraction(max(1, round(magnitude * den)), den)
                        requests.append((-x if k % 2 else x, Fraction(eps)))
        rng.shuffle(requests)
        return requests

    def warm_up(self, pkg) -> None:
        # Every eps class on both sides of 1 builds every h_m the pass uses.
        for eps in EPS_CELL:
            for x in (Fraction(1, 2), Fraction(2)):
                self.call(pkg, (x, Fraction(eps)))

    def call(self, pkg, request):
        x, eps = request
        result = pkg.arctan_eval.arctan_auto(x, eps)
        return pkg.arctan_eval.approx_result_json(result)

    def check(self, pkg, request, output) -> bool:
        x, eps = request
        bound = Fraction(output["error_bound"])
        return bound <= eps and certified(pkg, x, Fraction(output["value"]), bound)

    def result_doc(self, output):
        return output

    def oracle_targets(self, request) -> list:
        return [request]

    def composition(self, results) -> dict:
        count = len(results)
        if not count:
            return {}
        steps = Counter(step for _, doc in results for step in doc["steps"])
        labels = {Fraction(eps): eps for eps in EPS_CELL}
        eps_classes = Counter(labels[eps] for (_, eps), _ in results)
        small = sum(1 for (x, _), _ in results if abs(x) < Fraction(1, 10))
        return {
            "requests": count,
            "reciprocal_share": steps["Reciprocal"] / count,
            "negate_share": steps["Negate"] / count,
            "abs_x_below_tenth_share": small / count,
            "eps_share": {eps: n / count for eps, n in sorted(eps_classes.items())},
        }


# One index per rung, 8..80, all distinct, so every request builds a new h_m.
# The rungs are about evenly spaced in log m, so the digits asked for are too
# (24 to 240).  Construction cost grows about as m^2.6, and this spacing runs
# a pass in 0.6 of the time evenly spaced rungs take, so a run replays each
# request more often (see run.LeastPieces).
LADDER_M = (8, 9, 10, 12, 13, 15, 17, 19, 21, 24, 27, 30, 34, 39, 44, 49, 56, 63, 71, 80)


def ladder_eps(m: int) -> str:
    """The decimal 1e-K that selects index m on either side of 1.

    10^K <= 4^(5m) / 5 makes m enough even with the reciprocal step's pi
    budget, and 10^K > 4^(5m) / 50 > 4^(5m - 5) makes m - 1 too little.
    """
    return f"1e-{len(str(4 ** (5 * m) // 5)) - 1}"


class ColdLadder(Workload):
    """`arctan --x X --eps E` through cli.main, each request a new index m.

    A pass is the ladder's eps values in a seeded order, with x alternating
    between (0, 1) and (1, inf).  The warm-up builds no h_m the ladder uses,
    so every request of a pass builds its own.
    """

    name = "cold-ladder"
    cold = True

    def pass_requests(self) -> list:
        rng = self._rng("pass")
        eps_values = [ladder_eps(m) for m in LADDER_M]
        rng.shuffle(eps_values)
        requests = []
        for i, eps in enumerate(eps_values):
            den = rng.choice(DENOMINATORS[:3])
            num = rng.randint(1, den - 1)
            x = Fraction(num, den) if i % 2 == 0 else Fraction(den, num)
            requests.append((x, eps))
        return requests

    def warm_up(self, pkg) -> None:
        # Small m, off the ladder: loads the command-line path, builds nothing it uses.
        for x in ("1/2", "2"):
            self.call(pkg, (Fraction(x), "1/10"))

    def call(self, pkg, request):
        x, eps = request
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(["arctan", "--x", str(x), "--eps", eps])
        return code, out.getvalue()

    def check(self, pkg, request, output) -> bool:
        x, eps = request
        if output[0] != 0:
            return False
        doc = self.result_doc(output)
        bound = Fraction(doc["error_bound"])
        return bound <= Fraction(eps) and certified(
            pkg, x, Fraction(doc["value"]), bound
        )

    def oracle_targets(self, request) -> list:
        x, eps = request
        return [(x, Fraction(eps))]

    def result_doc(self, output):
        return json.loads(output[1])

    def composition(self, results) -> dict:
        count = len(results)
        if not count:
            return {}
        above_one = sum(1 for (x, _), _ in results if x > 1)
        return {"requests": count, "reciprocal_share": above_one / count}


# (x, eps) -> (taylor_min_degree, medina_min_m), both judged by certified true
# error.  The first row is the paper's headline: Taylor needs degree 57 where
# h_1, of degree 7, suffices.
LANDMARKS = {
    ("19/20", "1/2000"): (57, 1),
    ("1/2", "1/1000"): (5, 1),
    ("1", "1/1000"): (499, 1),
    ("1/10", "1/1000000000000"): (9, 3),
}
SUITE_GRID = 64
SUITE_M_MAX = 4


class Certify(Workload):
    """Certification rounds: run_suite(64, 4), then an oracle-mode comparison
    row at each of LANDMARKS.  One round is one request, and a pass is one
    round.  A round takes about 0.2 s, and on a shared host co-tenants slow
    the machine for seconds at a time, so its least latency needs every
    replay the run can give it.  Its p50 and p99 are therefore one sample.

    The seed only orders the landmark rows, so every seed does the same work.
    """

    name = "certify"

    def _request(self, rng: random.Random) -> tuple:
        landmarks = [tuple(map(Fraction, key)) for key in LANDMARKS]
        rng.shuffle(landmarks)
        return tuple(landmarks)

    def pass_requests(self) -> list:
        return [self._request(self._rng("pass"))]

    def warm_up(self, pkg) -> None:
        self.call(pkg, self._request(self._rng("warm-up")))

    def call(self, pkg, request):
        report = pkg.verify.run_suite(SUITE_GRID, SUITE_M_MAX)
        rows = [
            pkg.taylor_baseline.comparison_row(x, eps, oracle_mode=True)
            for x, eps in request
        ]
        return report.all_passed, rows

    def check(self, pkg, request, output) -> bool:
        all_passed, rows = output
        if not all_passed:
            return False
        for row in rows:
            expected = LANDMARKS.get((row["x"], row["eps"]))
            if expected != (row["taylor_min_degree"], row["medina_min_m"]):
                return False
        return len(rows) == len(LANDMARKS)

    def oracle_targets(self, request) -> list:
        return list(request)


WORKLOADS = {cls.name: cls for cls in (WarmMixed, ColdLadder, Certify)}
