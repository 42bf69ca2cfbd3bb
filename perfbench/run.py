"""Layered benchmark for medina-arctan: one workload, one seed, one run.

    python3 perfbench/run.py --workload warm-mixed --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
src/ and driven through its public functions by one closed-loop client
(the next request is sent when the last returns), in one process, with
no threads.  Workloads are described in workloads.py.

A run replays one seeded pass of requests at least MIN_PASSES times and
for as long as another pass fits in --seconds, on a freshly imported and
warmed-up package: a new one for every pass of a cold workload, and a
few spread over the run for a warm one.  Each request's latency is its
least over the replays, taken piece by piece (see LeastPieces).
--trace 0 reports the end-to-end metrics, setup_s being the median of
the set-ups.  --trace 1
alternates plain and traced passes and reports the per-layer metrics,
medians over the traced passes, plus the tracing overhead.  Either way
every output is checked against the oracle after timing.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A readable summary goes to stderr, and the full run record (metrics,
request mix, sample counts, source line count, Python version, CPU
count) goes to perfbench/runs/, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Splitter, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "medina_arctan"
MODULES = ("poly_core", "medina", "arctan_eval", "oracle", "taylor_baseline", "verify", "cli")
RUNS = HERE / "runs"

# Each pass replays the same requests; each request reports its least latency.
MIN_PASSES = 5
# Set-ups in a run of a warm workload (see replay).
SETUPS = 6
# Least length of a piece of a request, in seconds (see LeastPieces).
PIECE_S = 0.002

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}
PER_LAYER_UNITS = {
    "poly_core.eval_s": "s",
    "poly_core.eval_calls": "count",
    "poly_core.coeff_bits_max": "bits",
    "medina.build_s": "s",
    "medina.cache_misses": "count",
    "medina.cache_hits": "count",
    "arctan_eval.select_s": "s",
    "arctan_eval.reduce_s": "s",
    "arctan_eval.pi_s": "s",
    "arctan_eval.pi_calls": "count",
    "arctan_eval.m_mean": "index",
    "arctan_eval.render_s": "s",
    "arctan_eval.result_bits_mean": "bits",
    "cli.self_s": "s",
    "oracle.enclosure_s": "s",
    "oracle.enclosure_calls": "count",
    "verify.self_s": "s",
    "taylor_baseline.compare_s": "s",
    "oracle.same_eps_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Package:
    """The package's modules as attributes: pkg.arctan_eval, pkg.cli, ..."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        top = importlib.import_module(PACKAGE)
        if Path(top.__file__).resolve().parent != SRC / PACKAGE:
            raise ImportError(f"{PACKAGE} was imported from {top.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    @classmethod
    def fresh(cls) -> "Package":
        """Forget the loaded package and import it again, so every cache starts empty."""
        for name in [n for n in sys.modules if n.split(".")[0] == PACKAGE]:
            del sys.modules[name]
        return cls()

    def approximant_cache(self):
        """cache_info() of the h_m cache; its misses are constructions."""
        return self.medina.medina_h.cache_info()


class Tally:
    """One pass: each request and its output, per-request seconds, cache traffic."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.results = []  # (request, output or the exception raised)
        self.latencies = []
        self.failed = set()  # indices into results, filled in by check_outputs
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)


class LeastPieces:
    """Each request's least latency over a run's passes of one kind, piece by piece.

    On a shared host co-tenants slow the machine by up to about 2x, in
    spells that are often shorter than a long request, so the least of the
    replays of a whole 0.2 s request still depends on how busy the host
    was.  The clock readings at the calls the package makes (a Splitter's
    or a Tracer's) cut a request's wall time; consecutive cuts are grouped
    into pieces of at least PIECE_S, fixed by the request's first replay.
    A request's latency is the sum over its pieces of each piece's least
    time over the replays.  It keeps all the work the request does, and
    every piece is short enough to have run unslowed in some replay.  A
    request shorter than PIECE_S is one piece, so its latency is its least
    whole latency; so is that of a request whose calls differ between
    replays.
    """

    def __init__(self):
        self.cuts = {}  # request index -> (clock readings, indices cut at)
        self.least = {}  # request index -> least time of each piece, or None
        self.whole = {}  # request index -> least whole latency

    def add(self, index: int, clock: list) -> None:
        """One replay of request `index`: clock readings from its start to its end."""
        self.whole[index] = min(self.whole.get(index, math.inf), clock[-1] - clock[0])
        if index not in self.cuts:
            cuts = [0]
            for i in range(1, len(clock) - 1):
                if clock[i] - clock[cuts[-1]] >= PIECE_S:
                    cuts.append(i)
            cuts.append(len(clock) - 1)
            self.cuts[index] = (len(clock), cuts)
            self.least[index] = self._pieces(clock, cuts)
            return
        readings, cuts = self.cuts[index]
        if readings != len(clock):
            self.least[index] = None
        elif self.least[index] is not None:
            self.least[index] = list(map(min, self.least[index], self._pieces(clock, cuts)))

    @staticmethod
    def _pieces(clock: list, cuts: list) -> list:
        return [clock[b] - clock[a] for a, b in zip(cuts, cuts[1:])]

    def latency(self, index: int) -> float:
        least = self.least[index]
        return self.whole[index] if least is None else sum(least)


def run_pass(workload, pkg, requests, least: LeastPieces, tracer=None) -> Tally:
    """Run each request once, timing each on its own, and add it to `least`.

    A traced pass cuts each request at the spans `tracer` records; a plain
    pass reads the clock with a Splitter at the same calls.
    """
    tally = Tally(tracer)
    patcher = tracer if tracer is not None else Splitter()
    patcher.install(pkg)
    before = pkg.approximant_cache()
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
            first_span = len(tracer.spans)
        else:
            patcher.clock.clear()
        start = perf_counter()
        try:
            output = workload.call(pkg, request)
        except Exception as exc:  # a failed request is counted, not fatal
            output = exc
        end = perf_counter()
        tally.latencies.append(end - start)
        tally.results.append((request, output))
        if tracer is None:
            readings = patcher.clock
        else:
            readings = sorted(t for span in tracer.spans[first_span:] for t in span[3:])
        least.add(index, [start, *readings, end])
    after = pkg.approximant_cache()
    tally.cache_hits = after.hits - before.hits
    tally.cache_misses = after.misses - before.misses
    patcher.uninstall()
    return tally


def replay(workload, seconds: float, traced: bool):
    """Run the workload's pass MIN_PASSES times, then while another fits in `seconds`.

    A set-up is a fresh import of the package and the workload's warm-up,
    timed.  A cold workload sets up before every pass.  A warm one sets up
    before the first pass and then once every `seconds / SETUPS`, and runs
    the passes between on the package it has, whose caches the warm-up
    already filled: the run spends its time on replays, and the set-ups,
    spread over the run, leave no one slow moment of the machine to decide
    their median.  When traced, passes alternate plain and traced, starting
    plain.
    """
    requests = workload.pass_requests()
    passes, setups = [], []
    least = {"plain": LeastPieces(), "traced": LeastPieces()}
    start = perf_counter()
    next_setup = 0.0
    last = 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + last < seconds:
        pass_start = perf_counter()
        if workload.cold or pass_start - start >= next_setup:
            pkg = Package.fresh()
            workload.warm_up(pkg)
            setups.append(perf_counter() - pass_start)
            next_setup += seconds / SETUPS
        tracer = Tracer() if traced and len(passes) % 2 else None
        kind = "plain" if tracer is None else "traced"
        passes.append(run_pass(workload, pkg, requests, least[kind], tracer))
        last = perf_counter() - pass_start
    return pkg, passes, setups, least


def check_outputs(workload, pkg, passes) -> None:
    """Mark each request that raised or whose output fails the check.

    Passes replay the same requests, so an output equal to one already
    checked for the same request gets the same verdict without a second check.
    """
    verdicts = {}
    for tally in passes:
        for index, (request, output) in enumerate(tally.results):
            if isinstance(output, Exception):
                tally.failed.add(index)
                continue
            key = (index, repr(output))
            if key not in verdicts:
                try:
                    verdicts[key] = workload.check(pkg, request, output)
                except Exception:  # an output the check cannot read is wrong
                    verdicts[key] = False
            if not verdicts[key]:
                tally.failed.add(index)


def cache_expectation(workload, passes) -> str | None:
    """Why the passes' cache traffic does not fit the workload, or None."""
    requests = sum(len(t.results) for t in passes)
    misses = sum(t.cache_misses for t in passes)
    expected = requests if workload.cold else 0
    if misses != expected:
        return (
            f"{misses} h_m constructions in timed requests, "
            f"expected {expected} for {requests} requests"
        )
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the samples at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def failed_requests(passes) -> set:
    """Indices of the requests that failed in any pass."""
    return set().union(*(t.failed for t in passes))


def least_latencies(passes, least: LeastPieces) -> list:
    """Each request's least latency (see LeastPieces), for requests that never failed."""
    failed = failed_requests(passes)
    return [least.latency(i) for i in range(len(passes[0].results)) if i not in failed]


def end_to_end_metrics(passes, least: LeastPieces) -> dict:
    """Throughput and latency percentiles over the requests' least latencies.

    The p99 is nearest-rank: with fewer than 100 requests in a pass it is
    the slowest request.
    """
    best = least_latencies(passes, least) or [math.nan]
    return {
        "throughput_rps": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p99_ms": percentile(best, 0.99) * 1e3,
    }


def result_stats(workload, tally) -> dict:
    """Mean index m and mean bit size of the values returned, over arctan requests."""
    ms, bits = [], []
    for _, output in tally.results:
        doc = None if isinstance(output, Exception) else workload.result_doc(output)
        if doc is None:
            continue
        ms.append(doc["m"])
        value = doc["value"].split("/")
        bits.append(sum(abs(int(part)).bit_length() for part in value))
    return {
        "arctan_eval.m_mean": statistics.fmean(ms) if ms else 0.0,
        "arctan_eval.result_bits_mean": statistics.fmean(bits) if bits else 0.0,
    }


def traced_metrics(workload, pkg, passes, least) -> dict:
    """Per-layer metrics: seconds are medians over traced passes, counts from the first.

    trace.overhead_frac compares the requests' least latencies over the
    traced passes with those over the plain passes.
    """
    traced = [t for t in passes if t.tracer is not None]
    per_pass = [layer_metrics(t.tracer) for t in traced]
    metrics = {
        name: statistics.median(m[name] for m in per_pass) if name.endswith("_s") else value
        for name, value in per_pass[0].items()
    }
    metrics["medina.cache_misses"] = traced[0].cache_misses
    metrics["medina.cache_hits"] = traced[0].cache_hits
    metrics.update(result_stats(workload, traced[0]))
    oracle_ms = []
    for request, _ in traced[0].results:
        for x, eps in workload.oracle_targets(request):
            start = perf_counter()
            pkg.oracle.arctan_enclosure(x, eps)
            oracle_ms.append((perf_counter() - start) * 1e3)
    metrics["oracle.same_eps_p50_ms"] = statistics.median(oracle_ms)
    metrics["trace.overhead_frac"] = (
        sum(least_latencies(passes, least["traced"]))
        / sum(least_latencies(passes, least["plain"]))
        - 1
    )
    return metrics


def package_facts() -> dict:
    src_lines = sum(
        len(path.read_text().splitlines()) for path in (SRC / PACKAGE).glob("*.py")
    )
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "package.src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": cpus,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        pkg, passes, setup_samples, least = replay(
            workload, args.seconds, bool(args.trace)
        )
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    check_outputs(workload, pkg, passes)
    if args.trace:
        metrics = traced_metrics(workload, pkg, passes, least)
        units = PER_LAYER_UNITS
    else:
        metrics = {"setup_s": statistics.median(setup_samples)}
        metrics.update(end_to_end_metrics(passes, least["plain"]))
        units = END_TO_END_UNITS
    attempted = sum(len(t.results) for t in passes)
    failed = sum(len(t.failed) for t in passes)
    cache_problem = cache_expectation(workload, passes)
    correct = not failed and cache_problem is None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_requests": sorted(
            {repr(passes[0].results[i][0]) for t in passes for i in t.failed}
        )[:10],
        "cache_problem": cache_problem,
        "passes": len(passes),
        "samples_per_pass": len(passes[0].results),
        "pass_seconds": [t.busy for t in passes],
        "setup_samples_s": setup_samples,
        "composition": workload.composition(
            [r for i, r in enumerate(passes[0].results) if i not in passes[0].failed]
        ),
        "metrics": metrics,
        **package_facts(),
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with (RUNS / f"{stem}.spans.jsonl").open("w") as stream:
            for number, tally in enumerate(passes):
                if tally.tracer is not None:
                    tally.tracer.write(stream, number)

    print(
        f"{args.workload} seed={args.seed}: {attempted} requests in "
        f"{len(passes)} passes of {len(passes[0].results)} (the latency samples), "
        f"{failed} failed (failed_frac {record['failed_frac']:.4g})",
        file=sys.stderr,
    )
    if cache_problem:
        print(f"error: {cache_problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32} {value:.6g} {units[name]}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
