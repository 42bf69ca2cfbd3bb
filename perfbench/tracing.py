"""Spans around the package's layers, recorded from outside the package.

The tracer replaces module attributes with timing wrappers: a function's
name in the module that imports it (its import site), or the name the
benchmark itself calls.  Replacing `arctan_eval.poly_eval_horner` times
every Horner evaluation that arctan_eval makes, and nothing else.  Spans
stay in memory with a request id and a parent; a span's self time is its
duration minus that of its direct children, which never overlap because
the client is one thread.  The splitter wraps the same sites only to
read the clock at each call's entry and exit.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

EVAL = "poly_core.eval"
BUILD = "medina.build"
ENCLOSURE = "oracle.enclosure"

# (module, attribute, span name).  Attributes the package no longer has are
# skipped, so a refactor that drops an import reads as zero, not a crash.
WRAPS = (
    ("arctan_eval", "poly_eval_horner", EVAL),
    ("verify", "poly_eval_horner", EVAL),
    ("verify", "poly_eval_powers", EVAL),
    ("taylor_baseline", "poly_eval_horner", EVAL),
    ("arctan_eval", "medina_h", BUILD),
    ("verify", "medina_h", BUILD),
    ("verify", "medina_p_recurrence", BUILD),
    ("verify", "window_poly", BUILD),
    ("taylor_baseline", "medina_h", BUILD),
    # The polynomial arithmetic inside the h_m construction, which is
    # otherwise one call of up to half a second (see run.LeastPieces).
    ("medina", "poly_mul", BUILD),
    ("medina", "poly_add", BUILD),
    ("medina", "poly_scale", BUILD),
    ("verify", "arctan_enclosure", ENCLOSURE),
    ("taylor_baseline", "arctan_enclosure", ENCLOSURE),
    # arctan_eval's own globals, so its steps show inside arctan_auto.
    ("arctan_eval", "reduce", "arctan_eval.reduce"),
    ("arctan_eval", "medina_arctan", "arctan_eval.medina_arctan"),
    ("arctan_eval", "pi_estimate", "arctan_eval.pi"),
    # Entry points, as the benchmark and the command line call them.
    ("arctan_eval", "arctan_auto", "arctan_eval.arctan_auto"),
    ("cli", "arctan_auto", "arctan_eval.arctan_auto"),
    ("arctan_eval", "approx_result_json", "arctan_eval.render"),
    ("cli", "approx_result_json", "arctan_eval.render"),
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
    ("taylor_baseline", "comparison_row", "taylor_baseline.comparison_row"),
)


class _Patcher:
    """Replaces the functions at WRAPS with wrappers while installed."""

    def __init__(self):
        self._saved: list = []

    def install(self, pkg) -> None:
        for module_name, attr, name in WRAPS:
            module = getattr(pkg, module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        raise NotImplementedError


class Splitter(_Patcher):
    """Clock readings at the entry and exit of every call at WRAPS.

    The readings cut a request's wall time into consecutive pieces.  The
    package is deterministic, so every replay of a request makes the same
    calls in the same order and its pieces line up replay by replay.  A
    wrapped call costs under half a microsecond more.
    """

    def __init__(self):
        super().__init__()
        self.clock: list = []

    def _wrap(self, name: str, fn):
        mark = self.clock.append

        def split(*args, **kwargs):
            mark(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                mark(perf_counter())

        return split


class Tracer(_Patcher):
    """Records one span per wrapped call while installed on a package."""

    def __init__(self):
        super().__init__()
        # (request, parent index, name, start, end), in call order.
        self.spans: list = []
        self.request = None
        self.polys: dict = {}  # every polynomial evaluated, by id
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        polys = self.polys if name == EVAL else None

        def traced(*args, **kwargs):
            if polys is not None:
                polys[id(args[0])] = args[0]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.request, parent, name, start, end)

        return traced

    def totals(self):
        """Per span name: calls, total seconds (outermost spans only), self seconds."""
        children = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for index, (_, parent, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - children[index]
            if parent is None or self.spans[parent][2] != name:
                total[name] += end - start
        return calls, total, own

    def coeff_bits_max(self) -> int:
        bits = [
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for p in self.polys.values()
            for c in p
        ]
        return max(bits, default=0)

    def write(self, stream, traced_pass: int) -> None:
        """One JSON line per span, times in seconds from the pass's first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        for index, (request, parent, name, start, end) in enumerate(self.spans):
            stream.write(
                json.dumps(
                    {
                        "pass": traced_pass,
                        "span": index,
                        "request": request,
                        "parent": parent,
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                    }
                )
                + "\n"
            )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer seconds (names ending in _s) and counts from one traced pass."""
    calls, total, own = tracer.totals()
    return {
        "poly_core.eval_s": total[EVAL],
        "poly_core.eval_calls": calls[EVAL],
        "poly_core.coeff_bits_max": tracer.coeff_bits_max(),
        "medina.build_s": total[BUILD],
        "arctan_eval.select_s": own["arctan_eval.arctan_auto"],
        "arctan_eval.reduce_s": total["arctan_eval.reduce"],
        "arctan_eval.pi_s": total["arctan_eval.pi"],
        "arctan_eval.pi_calls": calls["arctan_eval.pi"],
        "arctan_eval.render_s": total["arctan_eval.render"],
        "cli.self_s": own["cli.main"],
        "oracle.enclosure_s": total[ENCLOSURE],
        "oracle.enclosure_calls": calls[ENCLOSURE],
        "verify.self_s": own["verify.run_suite"],
        "taylor_baseline.compare_s": total["taylor_baseline.comparison_row"],
    }
