"""Command-line front end.

Subcommands cover construction (gen), evaluation (eval, arctan), the
degree-comparison table (compare) and the lemma suite (verify).  Timing
is the benchmark harness's job (perfbench/run.py in the repository).
Machine-readable output, JSON or CSV, goes to stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or
resource error.  Each limit raises where it is decided, and main is the
one place that maps a refusal (ValueError, DegreeLimitError, or
WorkLimitExceeded, whose partial report it prints first) to exit 2.

Each shared option (--m, --x, --eps, --full) is declared once, on a parent
parser, and the parser is built once per process (PARSER); every parse
makes a fresh namespace, so no call sees another's options.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction

from .arctan_eval import approx_result_json, arctan_auto, medina_arctan
from .medina import MAX_INDEX, medina_p_recurrence, medina_pair
from .poly_core import _brief, rat_parse
from .taylor_baseline import COMPARISON_COLUMNS, DegreeLimitError, comparison_row
from .verify import WorkLimitExceeded, corrupted_seed, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

WORK_LIMIT_ENV = "MEDINA_WORK_LIMIT"

# A negative rational such as -1/7, -1e-3 or -.5.
_NEGATIVE = re.compile(r"-[\d.]")


def _rat_arg(text: str) -> Fraction:
    # argparse turns the ValueError into a usage error, exit code 2.
    try:
        return rat_parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(text: str) -> int:
    # argparse's own message for type=int, with the token cut like any echo.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    m, x, eps, full = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    m.add_argument("--m", type=_int_arg, required=True, help=f"index, 1..{MAX_INDEX}")
    x.add_argument("--x", type=_rat_arg, required=True, help="rational argument")
    eps.add_argument("--eps", type=_rat_arg, required=True, help="target accuracy, > 0")
    full.add_argument(
        "--full",
        action="store_true",
        help="print at least 30 decimal places, never fewer than the bound guarantees",
    )

    parser = argparse.ArgumentParser(
        prog="medina-arctan",
        description="Exact-arithmetic arctangent via Medina's polynomial sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        cmd = sub.add_parser(name, help=help, parents=parents)
        cmd.set_defaults(func=func)
        return cmd

    command(
        "gen", cmd_gen, "construct (m, p_m, h_m, bound) and print it as JSON", m
    ).add_argument(
        "--form",
        choices=("closed", "both"),
        default="closed",
        help="'both' also builds p_m by the reference recurrence and adds 'equal'",
    )

    command("eval", cmd_eval, "approximate arctan(x) with a fixed index m", m, x, full)
    command(
        "arctan",
        cmd_arctan,
        "approximate arctan(x) to a requested accuracy",
        x,
        eps,
        full,
    )

    command(
        "compare",
        cmd_compare,
        "one CSV row comparing minimal Taylor degree against minimal index m",
        x,
        eps,
    ).add_argument(
        "--taylor-mode",
        choices=("oracle", "bound"),
        default="oracle",
        help="judge Taylor degrees by certified true error or by the remainder bound",
    )

    ver = command("verify", cmd_verify, "run the lemma suite and print the report")
    ver.add_argument("--grid", type=_int_arg, required=True, help="grid denominator, >= 2")
    ver.add_argument(
        "--m-max", type=_int_arg, required=True, help="largest index checked, >= 1"
    )
    ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the seed polynomial first (exercises the failure report)",
    )

    return parser


def cmd_gen(args) -> int:
    pair = medina_pair(args.m)
    doc = pair.to_json()
    if args.form == "both":
        doc["equal"] = medina_p_recurrence(args.m) == pair.p
    print(json.dumps(doc))
    return EXIT_OK


def cmd_eval(args) -> int:
    result = medina_arctan(args.x, args.m)
    print(json.dumps(approx_result_json(result, full=args.full)))
    return EXIT_OK


def cmd_arctan(args) -> int:
    result = arctan_auto(args.x, args.eps)
    print(json.dumps(approx_result_json(result, full=args.full)))
    return EXIT_OK


def cmd_compare(args) -> int:
    row = comparison_row(args.x, args.eps, oracle_mode=(args.taylor_mode == "oracle"))
    writer = csv.DictWriter(sys.stdout, fieldnames=COMPARISON_COLUMNS)
    writer.writeheader()
    writer.writerow(row)
    return EXIT_OK


def _work_limit_from_env():
    raw = os.environ.get(WORK_LIMIT_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{WORK_LIMIT_ENV} must be an integer, got {_brief(raw)}"
        ) from None


def cmd_verify(args) -> int:
    seed = corrupted_seed() if args.inject_fault else None
    report = run_suite(
        args.grid, args.m_max, base_poly=seed, work_limit=_work_limit_from_env()
    )
    print(json.dumps(report.to_json()))
    if not report.all_passed:
        failed = ", ".join(c.id for c in report.checks if not c.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _join_negative_values(argv):
    """Write "--x -1/7" as "--x=-1/7", and likewise for --eps.

    argparse reads a token after an option as its value only when it does
    not look like an option; "-3" and "-0.5" pass, "-1/7" and "-1e-3" do not.
    """
    out = []
    for token in argv:
        if out and out[-1] in ("--x", "--eps") and _NEGATIVE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = PARSER.parse_args(_join_negative_values(argv))
    try:
        return args.func(args)
    except (DegreeLimitError, ValueError, WorkLimitExceeded) as exc:
        if isinstance(exc, WorkLimitExceeded):
            print(json.dumps({**exc.partial.to_json(), "partial": True}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
