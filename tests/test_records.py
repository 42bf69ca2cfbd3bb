"""The package's result records: immutable, hashable named tuples."""

import subprocess
import sys
from fractions import Fraction

import pytest

from medina_arctan.arctan_eval import (
    ApproxResult,
    PiEstimate,
    ReductionTrace,
    arctan_auto,
    pi_estimate,
    reduce,
)
from medina_arctan.medina import MedinaPair, medina_pair
from medina_arctan.oracle import Enclosure, arctan_enclosure
from medina_arctan.verify import LemmaCheck, VerificationReport, Witness, run_suite

RECORDS = [
    (ReductionTrace, lambda: reduce(-2), ("original", "reduced", "steps")),
    (PiEstimate, lambda: pi_estimate(2), ("value", "error_bound", "source_m")),
    (
        ApproxResult,
        lambda: arctan_auto(2, "1e-10"),
        ("value", "error_bound", "m", "trace", "ledger"),
    ),
    (MedinaPair, lambda: medina_pair(2), ("m", "p", "h", "bound")),
    (Enclosure, lambda: arctan_enclosure(Fraction(3, 4), Fraction(1, 10**6)), ("lo", "hi")),
    (
        Witness,
        lambda: Witness(Fraction(1, 2), 3, Fraction(1), Fraction(2)),
        ("x", "m", "lhs", "rhs"),
    ),
    (
        LemmaCheck,
        lambda: LemmaCheck("L1", "peak", True),
        ("id", "description", "passed", "witness"),
    ),
    (VerificationReport, lambda: run_suite(2, 1), ("checks", "grid_size", "m_max")),
]


@pytest.mark.parametrize(
    "cls, make, fields", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_record_fields_repr_immutability_and_hash(cls, make, fields):
    record, again = make(), make()
    assert type(record) is cls and cls._fields == fields
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == again and hash(record) == hash(again)


def test_record_defaults_and_keywords():
    assert LemmaCheck("L1", "peak", True).witness is None
    # A record is a tuple: it equals the plain tuple of its values.
    assert Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2)) == (Fraction(1, 3), Fraction(1, 2))


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each of those costs milliseconds of every cold start; the records are
    # named tuples, so the package and its command line need neither.
    code = (
        "import sys, medina_arctan, medina_arctan.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
