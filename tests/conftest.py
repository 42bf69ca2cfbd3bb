"""Shared frozen reference values for the test suite.

The decimal strings below were produced by an independent high-precision
computation (mpmath at 60 significant digits) run before the package was
built, then truncated to 40 places.  Parsing them with Fraction is exact,
so each constant is a rational within 10**-39 of the true real value; the
REF_SLACK constant accounts for that truncation wherever a test compares
against them.  no_int_str_limit lifts the interpreter's limit on int-to-str
digits for the tests that read very long exact results back, and the
fresh_caches fixture empties the package's memos around a planted fault.
"""

import contextlib
import sys
from fractions import Fraction

import pytest

from medina_arctan import medina, oracle

REF_ARCTAN_1 = Fraction("0.7853981633974483096156608458198757210493")
REF_ARCTAN_HALF = Fraction("0.4636476090008061162142562314612144020285")
REF_ARCTAN_THIRD = Fraction("0.3217505543966421934014046143586613190208")
REF_ARCTAN_95 = Fraction("0.7597627548757708289229611953999818240055")
REF_PI = Fraction("3.141592653589793238462643383279502884197")

REF_SLACK = Fraction(1, 10**39)


@contextlib.contextmanager
def no_int_str_limit():
    """Lift the int-to-str digit limit (Python 3.10.7+) inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty the package's two memos around a planted fault, so no value
    made before it hides it and none made under it outlives it.  Set up
    after monkeypatch, it is torn down first: the memos are emptied while
    the fault is still planted, and nothing runs before it is undone."""
    caches = (medina.medina_h, oracle._pivot_base)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
