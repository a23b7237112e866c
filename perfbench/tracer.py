"""Per-layer tracing of qconvolve from outside the package.

The tracer wraps the public functions of each module in place and records
one span per call: its group, start, end and parent span.  The CLI reaches
several functions through module-level dicts captured at import
(`_RANGE_RUNNERS`, `_SINGLE_INPUT`, `_CLOSED_FORMS`), and modules reach each
other through `from ... import` names, so every module attribute and every
module-level dict entry that holds a traced function is replaced, and put
back when tracing ends.  Functions called once per coefficient or per
weight are counted without a span, so that their cost stays in the caller.

A group's self time is the time its spans take minus the time their child
spans take.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) -> span group
SPANS = {
    ("qconvolve.cli", "main"): "cli",
    ("qconvolve.series", "expand"): "series.expand",
    ("qconvolve.series", "oracle_expand"): "series.oracle_expand",
    ("qconvolve.series", "multiply"): "series.multiply",
    **{("qconvolve.counts", f"{k}_table"): "counts.table" for k in "rtu"},
    **{("qconvolve.counts", f"{k}_oracle"): "counts.oracle" for k in "rtu"},
    ("qconvolve.divisor_sums", "sigma_table"): "divisor_sums.sigma_table",
    **{
        ("qconvolve.divisor_sums", name): "divisor_sums.scalar"
        for name in (
            "divisors",
            "sigma",
            "sigma_scaled",
            "sigma_class",
            "sigma_odd",
            "sigma_even",
            "sigma_star",
            "sigma_star_scaled",
        )
    },
    **{
        ("qconvolve.identities", name): "identities.verify"
        for name in (
            "verify_convolution",
            "verify_prime_r2",
            "verify_prime_r2_range",
            "verify_prime_r4_r8",
            "verify_prime_r4_r8_range",
            "verify_t2_prime",
            "verify_t2_prime_range",
            "verify_t4",
            "verify_t4_range",
            "verify_t6",
            "verify_t6_range",
            "verify_R_positive",
            "verify_positivity",
            "verify_series1_positivity",
            "verify_master_positivity",
            "verify_oracle_equivalence",
        )
    },
    **{
        ("qconvolve.identities", f"{k}_closed"): "identities.closed"
        for k in ("r2", "r4", "r8", "t2", "t4", "t6")
    },
}

# (module, function) -> call counter, no span
COUNTERS = {
    ("qconvolve.errors", "checked_div"): "errors.checked_div.calls",
    ("qconvolve.counts", "squares_weight"): "counts.weight.calls",
    ("qconvolve.counts", "triangular_weight"): "counts.weight.calls",
    ("qconvolve.counts", "mixed_weight"): "counts.weight.calls",
}


class Tracer:
    """Spans and counts of one traced pass; installed() swaps the wrappers in."""

    def __init__(self):
        self.spans: list[tuple] = []  # (group, start, end, parent index, work)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    @contextmanager
    def installed(self):
        """Replace every reference to a traced function for the with-block."""
        wrappers = {}
        for (module, name), group in SPANS.items():
            original = getattr(importlib.import_module(module), name)
            wrappers[id(original)] = (original, self._span(group, original))
        for (module, name), counter in COUNTERS.items():
            original = getattr(importlib.import_module(module), name)
            wrappers[id(original)] = (original, self._counter(counter, original))

        def traced(value):
            original, wrapper = wrappers.get(id(value), (None, None))
            return wrapper if original is value else None

        replaced = []  # (setter, key, original)
        for module_name, module in list(sys.modules.items()):
            if module_name != "qconvolve" and not module_name.startswith("qconvolve."):
                continue
            for key, value in list(vars(module).items()):
                if traced(value):
                    setattr(module, key, traced(value))
                    replaced.append((functools.partial(setattr, module), key, value))
                elif isinstance(value, dict):
                    for entry, fn in list(value.items()):
                        if traced(fn):
                            value[entry] = traced(fn)
                            replaced.append((value.__setitem__, entry, fn))
        try:
            yield self
        finally:
            for setter, key, original in reversed(replaced):
                setter(key, original)

    def _span(self, group, fn):
        spans, stack = self.spans, self._stack
        if group == "series.expand":
            work = lambda args, result: (args[0], len(result))  # spec, coefficients
        elif group == "identities.verify":
            work = lambda args, result: len(result.inputs_checked)
        else:
            work = lambda args, result: None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (group, start, end, parent, work(args, result) if result is not None else None)

        return wrapper

    def _counter(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_metrics(self, pass_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer self times, call counts and work counts of the pass, with units."""
        spans = self.spans
        child = [0.0] * len(spans)
        for group, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top_level_s = 0.0
        coefficients = 0
        inputs_checked = 0
        expand_calls = []
        for index, (group, start, end, parent, work) in enumerate(spans):
            self_s[group] += end - start - child[index]
            calls[group] += 1
            if parent < 0:
                top_level_s += end - start
            if group == "series.expand" and work is not None:
                coefficients += work[1]
                expand_calls.append((work[0], work[1], end - start))
            elif group == "identities.verify" and work is not None:
                if parent < 0 or spans[parent][0] != "identities.verify":
                    inputs_checked += work
        s, count = "s", "count"
        return {
            "cli.self_s": (self_s["cli"], s),
            "series.expand.s": (self_s["series.expand"], s),
            "series.expand.calls": (calls["series.expand"], count),
            "series.expand.coeffs": (coefficients, count),
            "series.expand.scaling_exp": (scaling_exponent(expand_calls), "slope"),
            "series.oracle_expand.s": (self_s["series.oracle_expand"], s),
            "series.oracle_expand.calls": (calls["series.oracle_expand"], count),
            "series.multiply.s": (self_s["series.multiply"], s),
            "counts.table.s": (self_s["counts.table"], s),
            "counts.oracle.s": (self_s["counts.oracle"], s),
            "counts.weight.calls": (self.counts["counts.weight.calls"], count),
            "divisor_sums.sigma_table.s": (self_s["divisor_sums.sigma_table"], s),
            "divisor_sums.scalar.s": (self_s["divisor_sums.scalar"], s),
            "divisor_sums.scalar.calls": (calls["divisor_sums.scalar"], count),
            "errors.checked_div.calls": (self.counts["errors.checked_div.calls"], count),
            "identities.verify.self_s": (self_s["identities.verify"], s),
            "identities.closed.s": (self_s["identities.closed"], s),
            "identities.inputs_checked": (inputs_checked, count),
            "trace.coverage": (top_level_s / pass_seconds, "ratio"),
        }


def scaling_exponent(expand_calls) -> float:
    """Log-log slope of expand time against coefficient count.

    The fit uses the spec expanded at the most distinct orders, when there
    are at least three of them (the series-1 ladder); otherwise it is 0.
    """
    by_spec: defaultdict = defaultdict(lambda: defaultdict(list))
    for spec, coefficients, seconds in expand_calls:
        by_spec[spec][coefficients].append(seconds)
    ladder = max(by_spec.values(), key=len, default={})
    if len(ladder) < 3:
        return 0.0
    xs = [math.log(n) for n in ladder]
    ys = [math.log(statistics.median(times)) for times in ladder.values()]
    return statistics.linear_regression(xs, ys).slope
