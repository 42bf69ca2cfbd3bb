"""Exact rational arithmetic for a fast-converging polynomial route to arctangent.

The public surface re-exported here covers the polynomial calculus, the
approximant family with its guaranteed bounds, full-line evaluation with
range reduction, the slow Taylor baseline it is measured against, the
independent enclosure oracle, and the lemma-suite verifier.
"""

from .arctan_eval import (
    ApproxResult,
    PiEstimate,
    ReductionStep,
    ReductionTrace,
    approx_result_json,
    arctan_auto,
    decimal_str,
    guaranteed_digits,
    medina_arctan,
    pi_estimate,
    reduce,
)
from .medina import (
    MedinaPair,
    medina_error_bound,
    medina_h,
    medina_min_m_for,
    medina_p1,
    medina_p_closed,
    medina_p_recurrence,
    medina_pair,
    medina_scale,
    window_poly,
)
from .oracle import Enclosure, arctan_enclosure, pi_enclosure
from .poly_core import (
    IntPoly,
    Poly,
    degree,
    poly,
    poly_add,
    poly_antiderivative,
    poly_derivative,
    poly_eval_horner,
    poly_eval_powers,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_to_strings,
    rat,
    rat_parse,
    rat_text,
)
from .taylor_baseline import (
    DEGREE_CUTOFF,
    DegreeLimitError,
    comparison_row,
    taylor_min_degree,
)
from .verify import (
    LemmaCheck,
    VerificationReport,
    Witness,
    WorkLimitExceeded,
    run_suite,
)

__version__ = "0.1.0"
