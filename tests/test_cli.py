"""Command-line surface: output documents, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import no_int_str_limit
from medina_arctan.arctan_eval import decimal_str, medina_arctan
from medina_arctan import cli, medina
from medina_arctan.cli import main
from medina_arctan.medina import medina_p_closed, medina_p_recurrence
from medina_arctan.oracle import arctan_enclosure
from medina_arctan.poly_core import rat_parse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_first_member(capsys):
    code, out, _ = run_cli(capsys, "gen", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == ["4", "0", "-4", "0", "5", "-4", "1"]
    assert doc["h"] == ["0", "1", "0", "-1/3", "0", "1/4", "-1/6", "1/28"]
    assert doc["bound"] == "1/1024"


def test_gen_both_forms_agree(capsys):
    code, out, _ = run_cli(capsys, "gen", "--m", "2", "--form", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True


def test_gen_closed_form_matches(capsys):
    _, default, _ = run_cli(capsys, "gen", "--m", "3")
    assert json.loads(default)["p"] == [str(c) for c in medina_p_recurrence(3)]


def test_gen_both_reports_a_differing_reference(capsys, monkeypatch):
    monkeypatch.setattr(cli, "medina_p_recurrence", lambda m: medina_p_closed(m + 1))
    code, out, _ = run_cli(capsys, "gen", "--m", "2", "--form", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is False
    assert doc["p"] == [str(c) for c in medina_p_closed(2)]


def test_gen_has_no_recurrence_form(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["gen", "--m", "3", "--form", "recurrence"])
    assert caught.value.code == 2
    assert "invalid choice: 'recurrence'" in capsys.readouterr().err


def test_gen_defaults_to_the_closed_form(capsys, monkeypatch):
    def no_recurrence(m):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(medina, "medina_p_recurrence", no_recurrence)
    _, default, _ = run_cli(capsys, "gen", "--m", "5")
    _, closed, _ = run_cli(capsys, "gen", "--m", "5", "--form", "closed")
    assert default == closed
    assert json.loads(default)["p"] == [str(c) for c in medina_p_closed(5)]


def test_gen_invalid_index(capsys):
    code, out, err = run_cli(capsys, "gen", "--m", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--m", "11", "--x", "1/2"], "sequence index must be <= 10, got 11"),
        (["verify", "--grid", "2", "--m-max", "11"], "m_max must be <= 10, got 11"),
        (["gen", "--m", "11"], "sequence index must be <= 10, got 11"),
    ],
)
def test_index_past_the_limit_exits_2(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(medina, "MAX_INDEX", 10)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_eval_landmark(capsys):
    code, out, _ = run_cli(capsys, "eval", "--m", "1", "--x", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "11/14"
    assert doc["error_bound"] == "1/1024"
    assert doc["steps"] == []
    assert doc["decimal"] == "0.79"
    assert doc["decimal_digits_guaranteed"] == 2


def test_eval_at_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "--m", "1", "--x", "0")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_eval_decimal_matches_reference_to_three_places(capsys):
    code, out, _ = run_cli(capsys, "eval", "--m", "1", "--x", "0.95", "--full")
    assert code == 0
    doc = json.loads(out)
    # Frozen pre-build value of h_1(19/20); its decimal rounds to 0.760,
    # as does the reference arctangent 0.7597627...
    assert Fraction(doc["value"]) == Fraction(81723680137, 107520000000)
    assert doc["decimal"].startswith("0.760")


def test_full_keeps_every_guaranteed_place(capsys):
    # At m = 17 the bound guarantees 50 places, more than the 30 of --full.
    _, plain, _ = run_cli(capsys, "eval", "--m", "17", "--x", "1/2")
    _, full, _ = run_cli(capsys, "eval", "--m", "17", "--x", "1/2", "--full")
    plain, full = json.loads(plain), json.loads(full)
    assert plain["decimal_digits_guaranteed"] == 50
    assert len(full["decimal"].split(".")[1]) >= 50
    assert full["decimal"].startswith(plain["decimal"])


@pytest.mark.parametrize("bad_x", ["abc", "1/0", "1.2.3"])
def test_eval_parse_failures_exit_2(capsys, bad_x):
    with pytest.raises(SystemExit) as caught:
        main(["eval", "--m", "1", "--x", bad_x])
    assert caught.value.code == 2


def test_arctan_reciprocal_route(capsys):
    code, out, _ = run_cli(capsys, "arctan", "--x", "2", "--eps", "0.001")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == ["Reciprocal"]
    assert doc["m"] == 2


def test_arctan_negative_argument(capsys):
    code, out, _ = run_cli(capsys, "arctan", "--x", "-1", "--eps", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-11/14"
    assert doc["steps"] == ["Negate"]


def test_arctan_tight_accuracy_selects_m3(capsys):
    code, out, _ = run_cli(capsys, "arctan", "--x", "0.5", "--eps", "1e-9")
    assert code == 0
    assert json.loads(out)["m"] == 3


def test_arctan_result_longer_than_the_int_str_limit(capsys):
    x = Fraction(40503, 65536)
    code, out, err = run_cli(capsys, "arctan", "--x", str(x), "--eps", "1e-320")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    with no_int_str_limit():
        assert Fraction(doc["value"]) == medina_arctan(x, doc["m"]).value
    assert Fraction(doc["error_bound"]) <= Fraction("1e-320")


@pytest.mark.parametrize(
    "argv",
    [
        ["arctan", "--x", "-1/7", "--eps", "1e-50"],
        ["eval", "--m", "2", "--x", "-1/7"],
        ["arctan", "--x", "-1e-3", "--eps", "1e-9", "--full"],
    ],
)
def test_negative_fraction_as_a_separate_token(capsys, argv):
    # "--x -1/7" prints exactly what "--x=-1/7" prints.
    spaced = run_cli(capsys, *argv)
    at = argv.index("--x")
    joined = run_cli(capsys, *argv[:at], f"--x={argv[at + 1]}", *argv[at + 2 :])
    assert spaced == joined
    assert spaced[0] == 0
    assert json.loads(spaced[1])["steps"] == ["Negate"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["arctan", "--x", "-1/7", "--eps", "-1/7"], "error: eps must be positive\n"),
        (
            ["compare", "--x", "-1/7", "--eps", "1e-3"],
            "error: x must lie in [0, 1], got -1/7\n",
        ),
    ],
)
def test_negative_fraction_values_reach_validation(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message)


def test_missing_option_value_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["arctan", "--x", "--eps", "1e-3"])
    assert caught.value.code == 2
    assert "argument --x: expected one argument" in capsys.readouterr().err


# SHA-256 of stdout, captured before the bound moved into a per-request
# ledger (the gen rows before gen served only the closed form; the certify
# suite and the oracle-mode compare rows before the oracle's series and the
# powers route moved to integers; the m = 80 rows before h_m was built as
# one integer row; the compare rows at 1/10 and 1/2, the other two certify
# landmarks, before the powers route summed over one common denominator and
# the Taylor certifier decided against cuts; the rows at x = 1 and -1, on
# the main path's b = 1, before the bookkeeping ran on integers and Horner
# summed the numerators at x = 1); no such change alters a printed byte.
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("arctan --x 2 --eps 1e-20", "a7f4b39eb72b3d79a43a0d61301fcc9a211d87d44678fed044e89b25710819e9"),
        ("eval --m 3 --x -5", "28bf39de9bddb5ee2b01e1522d2b5eb7f2624e934902e0ae8f51bcda7b9e2e61"),
        ("eval --m 1 --x 1", "f34f5df30fceba00a7bcb9f76a7391b42789db450d95e9a6e49aa3764d6f42b6"),
        ("arctan --x -1/7 --eps 1e-50 --full", "045f88323e2996ea43acd638df1d7b4af81fc8cd3427d2b728237beea97a8972"),
        ("arctan --x 40503/65536 --eps 1e-100", "648ad512d549a8af09bfd9a254c7ffe7b3ebe90436ff60c54548a46b37fca2d3"),
        ("gen --m 1", "c5941cf642fa16b4bb9f8194a95c1b9fde5eff7fee4403ab92280e2b041b5028"),
        ("gen --m 3", "6e7e1a62cf6d613e9f637a3619bbb3f98db4330e0d29fe68c1aaee9cce9c46de"),
        ("gen --m 40 --form both", "900359a3d12cc5bd00c061421de0eb949032a9abc734ab6f818151b880b32d9d"),
        ("verify --grid 16 --m-max 3", "fdd912f72255f58b51844a8e53a4d0a5441a0cc022d838fe1c78d08475e8c607"),
        ("verify --grid 64 --m-max 4", "8b1e3d12e136db429a25c6d95aad7070e5df0c9ce83ff1127deba895d7d3abfe"),
        ("compare --x 1 --eps 1/1000", "5b5e927b6ce210d7e6b704a9ca35563b8056bcfcdef2ea431111a09a1e97d76b"),
        ("compare --x 0.95 --eps 0.0005", "22dcfa3e494f0e5a279d99bebec2bc33d354bf16364c8fd0aa7f0e4743ea0563"),
        ("compare --x 1/10 --eps 1/1000000000000", "2fb0acb77a5c225d27cde42ebbbdfcc8536a6baf8d381a2143dae13a846a50d5"),
        ("compare --x 1/2 --eps 1/1000", "bfec0a434d8b01b5972aae813604c5383be397c4f22f3c1a92ed54d46d8e2463"),
        ("arctan --x 37/64 --eps 1e-240", "f0b91f87f383bb2f4d40d7e694605495fd1a80e517e93a6301ccb6afdc627b6f"),
        ("arctan --x 64/37 --eps 1e-240", "b6c4523ef5cc69154858ff1403de5f94d938667bb9719f71e77b8e2b68e59e07"),
        ("eval --m 80 --x 40503/65536", "a88c9a182e79b8de98a5d33fa79b19f862764c6c78bf8a815896a5fafcc4af57"),
        ("gen --m 80", "b932cb3aa91078bf6e4e4d83476ee420d0d7bc03446c6686e76ba130e2c94b53"),
        ("arctan --x 1 --eps 1e-100", "d1f4ad53f3d3541b3fcdd830d09e2e8758a268dc2d17dbbec7cbda7dfbe460a4"),
        ("arctan --x -1 --eps 1e-50 --full", "f7cbe83ba5d75009fe28b27bf68a37f36e0d300da68bf2c78a6270df289b1f50"),
        # Captured before L7 kept one oracle walk per grid point, and L4 and
        # L9's powers side formed their integrals on integers.
        ("verify --grid 7 --m-max 40", "0d72c82aff8b088ce1b8a090d8b98ac5966a7244445d59f7a4cba5db7e1bcc0a"),
        ("verify --grid 1024 --m-max 8", "eba52b8d1362e0836f937c556a1db173995189473efd1849ed9d39caf9ea4ee0"),
    ],
)
def test_golden_stdout(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_NO_OUTPUT = hashlib.sha256(b"").hexdigest()


# Exit code, SHA-256 of stdout and stripped stderr of each refusal and of the
# failing verify report, captured before every refusal was mapped to exit 2
# in main alone; that change alters no printed byte.  L5 is compared by
# coefficients, so the failing report's L5 witness is
# {"x": null, "m": 1, "lhs": "8", "rhs": "0"}.
@pytest.mark.parametrize(
    "argv, work_limit, code, digest, message",
    [
        (
            "verify --grid 16 --m-max 3 --inject-fault", None, 1,
            "27342648d3a0aea329a98865ca9ce3d524f13cbe58f4376281b9c54a92853ccb",
            "verification failed: L5, L6, L7",
        ),
        # Captured before the grid claims were decided on integers: the L6
        # and L7 witnesses on a finer grid, built at the first failing point.
        (
            "verify --grid 64 --m-max 4 --inject-fault", None, 1,
            "41dfc0c4898ed6d2e0e981a6325fd88f4dc02e6509a1fd6d8b3d432d9723ca99",
            "verification failed: L5, L6, L7",
        ),
        # Captured before L7 kept one oracle walk per grid point: the L7
        # witness on a grid of 1,025 points.
        (
            "verify --grid 1024 --m-max 8 --inject-fault", None, 1,
            "81bad8ba2e1a696e8e42f29d5ba55099e28c3513d701b0e7f0eb52e8abcf4d6e",
            "verification failed: L5, L6, L7",
        ),
        (
            "verify --grid 64 --m-max 3", "200", 2,
            "ec982f66f57b867e423248da6501318ce06fea01a58ea262033b010ea2588186",
            "error: work limit 200 exhausted during L3 (2 of 9 checks completed)",
        ),
        # A partial report that carries failing witnesses (L5-L7), captured
        # before run_suite's lemmas became a module-level table.
        (
            "verify --grid 64 --m-max 4 --inject-fault", "1000", 2,
            "2bb83abe16fcc276f9fbe75984099e2b88111747a2ac4adc8471be97ad2f1c9b",
            "error: work limit 1000 exhausted during L9 (8 of 9 checks completed)",
        ),
        (
            "verify --grid 64 --m-max 3", "abc", 2, _NO_OUTPUT,
            "error: MEDINA_WORK_LIMIT must be an integer, got 'abc'",
        ),
        (
            "compare --x 1 --eps 1e-6", None, 2, _NO_OUTPUT,
            "error: no degree up to 10001 meets eps=1/1000000 at x=1",
        ),
        (
            "compare --x 0.999 --eps 1e-30 --taylor-mode bound", None, 2, _NO_OUTPUT,
            "error: no degree up to 10001 meets "
            "eps=1/1000000000000000000000000000000 at x=999/1000",
        ),
        (
            "eval --m 2001 --x 1/2", None, 2, _NO_OUTPUT,
            "error: sequence index must be <= 2000, got 2001",
        ),
        # Both need m = 2001, for pi's line at x = 2 and for 4^-10000 alone
        # at 1/2; the plan names eps, not that index.
        (
            "arctan --x 2 --eps 1e-6020", None, 2, _NO_OUTPUT,
            "error: no index meets eps: an index must be <= 2000",
        ),
        (
            "arctan --x 1/2 --eps 1e-6021", None, 2, _NO_OUTPUT,
            "error: no index meets eps: an index must be <= 2000",
        ),
        # Added when refusals began to cut parts past 40 digits; the full
        # message was 6,072 bytes.
        (
            "compare --x 1/2 --eps 1e-6021", None, 2, _NO_OUTPUT,
            "error: no degree up to 10001 meets "
            "eps=1/1000000000…0000000000 (6022 digits) at x=1/2",
        ),
    ],
)
def test_golden_refusals(capsys, monkeypatch, argv, work_limit, code, digest, message):
    if work_limit is None:
        monkeypatch.delenv(cli.WORK_LIMIT_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.WORK_LIMIT_ENV, work_limit)
    got, out, err = run_cli(capsys, *argv.split())
    assert (got, err.strip()) == (code, message)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_giant_exponent_is_refused_before_any_power(capsys):
    # 24 bytes of text for which Fraction would compute 10^(10^18).
    with pytest.raises(SystemExit) as caught:
        main(["arctan", "--x", "1", "--eps", "1e999999999999999999"])
    assert caught.value.code == 2
    assert "exponent out of range" in capsys.readouterr().err


def exit_code(argv):
    """main's exit code, argparse's own exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_LONG = "1" * 4000


# Each route echoes a caller's value of thousands of characters; the one
# rule writes it as its first and last ten around "…", and its length.
@pytest.mark.parametrize(
    "argv, work_limit, count",
    [
        (f"eval --m {_LONG} --x 1/2", None, "(4000 digits)"),
        (f"verify --grid 2 --m-max {_LONG}", None, "(4000 digits)"),
        (f"verify --grid -{_LONG} --m-max 1", None, "(4000 digits)"),
        ("arctan --x 1" + "x" * 5000 + " --eps 1e-3", None, "(5003 characters)"),
        ("arctan --x 1/" + "0" * 5000 + " --eps 1e-3", None, "(5004 characters)"),
        ("compare --x 1e5000 --eps 1e-3", None, "(5001 digits)"),
        ("verify --grid 2 --m-max 1", "z" * 5000, "(5002 characters)"),
        ("verify --grid 2 --m-max 1", f"-{_LONG}", "(4000 digits)"),
        ("eval --m " + "1" * 5000 + " --x 1/2", None, "(5002 characters)"),
    ],
    ids=[
        "eval-m",
        "verify-m-max",
        "verify-grid",
        "arctan-stray-characters",
        "arctan-zero-denominator",
        "compare-x",
        "work-limit-text",
        "work-limit-negative",
        "int-past-the-int-str-limit",
    ],
)
def test_long_values_are_echoed_cut(capsys, monkeypatch, argv, work_limit, count):
    if work_limit is None:
        monkeypatch.delenv(cli.WORK_LIMIT_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.WORK_LIMIT_ENV, work_limit)
    code = exit_code(argv.split())
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.encode()) < 400
    assert "…" in err and err.endswith(f"{count}\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        ("eval --m abc --x 1/2", "--m"),
        ("verify --grid 1.5 --m-max 1", "--grid"),
        ("verify --grid 2 --m-max 0x10", "--m-max"),
    ],
)
def test_bad_int_tokens_keep_argparse_text(capsys, argv, option):
    # The words argparse writes for type=int, the token echoed as its repr.
    argv = argv.split()
    token = argv[argv.index(option) + 1]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {option}: invalid int value: {token!r}\n")


def test_arctan_rejects_nonpositive_eps(capsys):
    code, _, err = run_cli(capsys, "arctan", "--x", "1", "--eps", "0")
    assert code == 2
    assert "error" in err


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_compare_headline(capsys):
    code, out, _ = run_cli(capsys, "compare", "--x", "0.95", "--eps", "0.0005")
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["taylor_min_degree"] == "57"
    assert row["medina_min_m"] == "1"
    assert row["medina_degree"] == "7"
    assert row["taylor_terms_evaluated"] == "29"
    assert row["x"] == "19/20"


def test_compare_trivial_point(capsys):
    code, out, _ = run_cli(capsys, "compare", "--x", "0", "--eps", "0.5")
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["taylor_min_degree"] == "1"
    assert row["medina_min_m"] == "1"
    assert row["medina_degree"] == "7"


def test_compare_bound_mode(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--x", "0.5", "--eps", "0.001", "--taylor-mode", "bound"
    )
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["taylor_min_degree"] == "7"
    assert row["medina_min_m"] == "1"


def test_compare_domain_exit_2(capsys):
    code, _, err = run_cli(capsys, "compare", "--x", "2", "--eps", "0.001")
    assert code == 2
    assert "error" in err


def test_compare_near_tie_is_a_resource_error(capsys):
    # eps agrees with |1/2 - arctan(1/2)|, the degree-1 error, to 70 places,
    # closer than twelve rounds of enclosure tightening can resolve.
    half = Fraction(1, 2)
    eps = decimal_str(half - arctan_enclosure(half, Fraction(1, 10**90)).mid, 70)
    code, out, err = run_cli(capsys, "compare", "--x", "1/2", "--eps", eps)
    assert code == 2
    assert out == ""
    assert err.startswith("error: could not separate")
    assert err.count("\n") == 1


def test_compare_past_the_int_str_limit(capsys):
    code, out, err = run_cli(capsys, "compare", "--x", "1e-5000", "--eps", "1e-3")
    assert (code, err) == (0, "")
    row = _parse_csv(out)[0]
    assert rat_parse(row["x"]) == Fraction(1, 10**5000)
    assert (row["taylor_min_degree"], row["medina_min_m"]) == ("1", "1")
    code, out, err = run_cli(capsys, "compare", "--x", "1", "--eps", "1e-5000")
    assert (code, out) == (2, "")
    assert err == (
        "error: no degree up to 10001 meets "
        "eps=1/1000000000…0000000000 (5001 digits) at x=1\n"
    )


def test_compare_at_a_long_argument_near_a_half(capsys):
    # The floor check brackets x on a 64-bit grid instead of raising its
    # 2,000-digit parts to the cutoff's power.
    text = "0.5" + "0" * 1998 + "1"
    code, out, err = run_cli(capsys, "compare", "--x", text, "--eps", "1e-3")
    assert (code, err) == (0, "")
    row = _parse_csv(out)[0]
    assert rat_parse(row["x"]) == rat_parse(text)
    assert (row["taylor_min_degree"], row["medina_min_m"]) == ("5", "1")


def test_verify_clean_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "16", "--m-max", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert [c["id"] for c in doc["checks"]] == [f"L{i}" for i in range(1, 10)]


def test_verify_small_grid_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--grid", "1", "--m-max", "1")
    assert code == 2
    assert "error" in err


def test_verify_injected_fault_exit_1(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--grid", "8", "--m-max", "1", "--inject-fault"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    broken = next(c for c in doc["checks"] if c["id"] == "L5")
    assert broken["passed"] is False
    assert broken["witness"] is not None
    assert "L5" in err


def test_verify_work_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("MEDINA_WORK_LIMIT", "200")
    code, out, err = run_cli(capsys, "verify", "--grid", "64", "--m-max", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["partial"] is True
    assert [c["id"] for c in doc["checks"]] == ["L1", "L2"]
    assert "work limit" in err


def test_verify_bad_work_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("MEDINA_WORK_LIMIT", "abc")
    code, _, err = run_cli(capsys, "verify", "--grid", "8", "--m-max", "1")
    assert code == 2
    assert "MEDINA_WORK_LIMIT" in err


def test_bench_is_gone(capsys):
    # Timing is perfbench/run.py's job, so "bench" is not a subcommand.
    with pytest.raises(SystemExit) as caught:
        main(["bench", "--m-max", "1"])
    assert caught.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "medina_arctan.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # missing subcommand is a usage error


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as caught:
        main([])
    assert caught.value.code == 2


ONE_CALL_EACH = [
    ["gen", "--m", "1"],
    ["eval", "--m", "1", "--x", "1/2"],
    ["arctan", "--x", "2", "--eps", "1e-3"],
    ["compare", "--x", "1/2", "--eps", "1e-3"],
    ["verify", "--grid", "2", "--m-max", "1"],
]


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in ONE_CALL_EACH:
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []


def test_full_does_not_outlive_its_call(capsys):
    argv = ["arctan", "--x", "1/2", "--eps", "1e-20"]
    run_cli(capsys, *argv, "--full")
    doc = json.loads(run_cli(capsys, *argv)[1])
    assert len(doc["decimal"].split(".")[1]) == doc["decimal_digits_guaranteed"]


def test_form_does_not_outlive_its_call(capsys):
    run_cli(capsys, "gen", "--m", "2", "--form", "both")
    code, out, _ = run_cli(capsys, "gen", "--m", "2")
    assert code == 0
    assert "equal" not in json.loads(out)


@pytest.mark.parametrize("argv", ONE_CALL_EACH)
def test_usage_error_leaves_no_trace(capsys, argv):
    alone = run_cli(capsys, *argv)
    # --x and --full parse before the missing value stops the parse.
    with pytest.raises(SystemExit) as caught:
        main(["arctan", "--x", "1/3", "--full", "--eps"])
    assert caught.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv) == alone


@pytest.mark.parametrize(
    "command, options",
    [
        ("gen", {"--m", "--form"}),
        ("eval", {"--m", "--x", "--full"}),
        ("arctan", {"--x", "--eps", "--full"}),
        ("compare", {"--x", "--eps", "--taylor-mode"}),
        ("verify", {"--grid", "--m-max", "--inject-fault"}),
    ],
)
def test_subcommand_help_names_exactly_its_options(capsys, command, options):
    with pytest.raises(SystemExit) as caught:
        main([command, "--help"])
    assert caught.value.code == 0
    named = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert named == options | {"--help"}
