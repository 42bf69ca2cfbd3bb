"""Tests of the benchmark itself: seeded inputs, the output check, the tally."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, ColdLadder, WarmMixed


@pytest.fixture(scope="module")
def pkg():
    # The package as already imported; Package.fresh() would swap the
    # modules under the rest of the test session.
    return run.Package()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_pass(name):
    def requests(seed):
        return WORKLOADS[name](seed).pass_requests()

    assert requests(1) == requests(1)
    assert requests(1) != requests(2)


def test_check_counts_a_wrong_value_as_failed(pkg):
    workload = WarmMixed(1)
    request = workload.pass_requests()[0]
    doc = workload.call(pkg, request)
    assert workload.check(pkg, request, doc)
    wrong = Fraction(doc["value"]) + 2 * Fraction(doc["error_bound"])
    assert not workload.check(pkg, request, {**doc, "value": str(wrong)})


def test_cli_check_counts_a_wrong_value_or_exit_code_as_failed(pkg):
    workload = ColdLadder(1)
    request = (Fraction(3, 2), "1e-20")
    code, stdout = workload.call(pkg, request)
    assert workload.check(pkg, request, (code, stdout))
    doc = json.loads(stdout)
    doc["value"] = str(Fraction(doc["value"]) + 2 * Fraction(doc["error_bound"]))
    assert not workload.check(pkg, request, (0, json.dumps(doc)))
    assert not workload.check(pkg, request, (1, stdout))


class HalfFailing(WarmMixed):
    """Four requests: one raises, one returns a wrong value, two are right."""

    name = "half-failing"

    def pass_requests(self):
        return [0, 1, 2, 3]

    def warm_up(self, pkg):
        pass

    def call(self, pkg, request):
        if request == 1:
            raise ValueError("refused")
        return request

    def check(self, pkg, request, output):
        return output != 2

    def composition(self, results):
        return {}


def test_run_reports_failed_frac_over_attempted(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, HalfFailing.name, HalfFailing)
    monkeypatch.setattr(run.Package, "fresh", classmethod(lambda cls: cls()))
    monkeypatch.setattr(run, "RUNS", tmp_path)
    argv = ["--workload", HalfFailing.name, "--seed", "1", "--seconds", "0"]
    assert run.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    attempted = 4 * run.MIN_PASSES
    assert line["attempted"] == attempted
    assert (line["correct"], line["failed"]) == (False, attempted // 2)
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    record = json.loads((tmp_path / "half-failing-seed1-trace0.json").read_text())
    assert record["failed_frac"] == 0.5
    assert record["metrics"]["throughput_rps"] > 0


def test_least_pieces_takes_each_piece_least():
    least = run.LeastPieces()
    step = run.PIECE_S
    # Two pieces; each replay is the slower one in one of them.
    least.add(0, [0.0, 1.0 * step, 2.0 * step])
    least.add(0, [0.0, 0.8 * step, 2.6 * step])
    assert least.latency(0) == pytest.approx(1.8 * step)
    # Readings closer than a piece: one piece, the least whole latency.
    least.add(1, [0.0, 0.1 * step, 0.3 * step])
    least.add(1, [0.0, 0.1 * step, 0.2 * step])
    assert least.latency(1) == pytest.approx(0.2 * step)


def test_least_pieces_falls_back_to_whole_when_calls_differ():
    least = run.LeastPieces()
    step = run.PIECE_S
    least.add(0, [0.0, 1.0 * step, 3.0 * step])
    least.add(0, [0.0, 2.5 * step])
    least.add(0, [0.0, 0.5 * step, 2.8 * step])
    assert least.latency(0) == pytest.approx(2.5 * step)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer = tracer._wrap("outer", lambda: inner() + inner())
    outer()
    calls, total, own = tracer.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert own["inner"] == total["inner"]
    assert tracer.spans[1][1] == 0 and tracer.spans[0][1] is None


def test_install_wraps_import_sites_and_uninstall_restores(pkg):
    original = pkg.arctan_eval.poly_eval_horner
    tracer = Tracer()
    tracer.install(pkg)
    try:
        WarmMixed(1).call(pkg, (Fraction(2), Fraction(1, 10**20)))
    finally:
        tracer.uninstall()
    assert pkg.arctan_eval.poly_eval_horner is original
    calls, _, _ = tracer.totals()
    assert calls["arctan_eval.pi"] == 1
    assert calls["poly_core.eval"] == 2
    assert tracer.coeff_bits_max() > 0


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
