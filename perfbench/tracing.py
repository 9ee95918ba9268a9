"""Span recorder for the traced benchmark run.

Spans are recorded at layer boundaries by replacing, for the duration of
one pass, the module attributes that callers look up at call time.  The
package itself is not modified.  Each span is ``[name, parent, start, end,
attrs]`` with ``parent`` the index of the enclosing span (-1 at top level);
spans stay in memory and are written out when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time


def _xi_t(args, kwargs, result):
    return [float(args[0]), float(args[1])]


def _sum_detail(args, kwargs, result):
    return [result.n_terms, result.truncation_bound]


# (module, attribute callers look up, span name, attrs taken from the call).
# The cli module binds tc_jump and local_exponent by name, so those are
# wrapped there as well.
BOUNDARIES = [
    ("sccasimir.permittivity", "bcs_g", "permittivity.bcs_g", _xi_t),
    ("sccasimir.lifshitz", "permittivity_iw", "permittivity.permittivity_iw", None),
    ("sccasimir.lifshitz", "effective_plasma_frequency",
     "permittivity.static_weight", None),
    ("sccasimir.lifshitz", "casimir_pressure_detail", "lifshitz.sum", _sum_detail),
    ("sccasimir.lifshitz", "casimir_pressure_gradient_detail", "lifshitz.sum",
     _sum_detail),
    ("sccasimir.lifshitz", "tc_jump", "lifshitz.tc_jump", None),
    ("sccasimir.cli", "tc_jump", "lifshitz.tc_jump", None),
    ("sccasimir.lifshitz", "local_exponent", "lifshitz.local_exponent", None),
    ("sccasimir.cli", "local_exponent", "lifshitz.local_exponent", None),
    ("sccasimir.analysis", "generate_sweep", "analysis.generate_sweep", None),
    ("sccasimir.analysis", "sweep_pipeline", "analysis.sweep_pipeline", None),
    ("sccasimir.analysis", "dynes_fit", "analysis.dynes_fit", None),
    ("sccasimir.analysis", "dynes_conductance", "analysis.dynes_conductance", None),
    ("sccasimir.membrane", "lcpd_fit", "membrane.lcpd_fit", None),
]

# Spans the benchmark records around its own calls rather than by wrapping.
CLI_SPAN = "cli"

# Every per-layer metric: name -> (unit, span it is computed from).
LAYER_METRICS = {
    "permittivity.bcs_g.calls": ("count", "permittivity.bcs_g"),
    "permittivity.bcs_g.distinct": ("count", "permittivity.bcs_g"),
    "permittivity.bcs_g.hit_ratio": ("ratio", "permittivity.bcs_g"),
    "permittivity.bcs_g.self_s": ("s", "permittivity.bcs_g"),
    "permittivity.bcs_g.ms_per_distinct": ("ms", "permittivity.bcs_g"),
    "permittivity.static_weight.calls": ("count", "permittivity.static_weight"),
    "permittivity.static_weight.self_s": ("s", "permittivity.static_weight"),
    "permittivity.permittivity_iw.calls": ("count", "permittivity.permittivity_iw"),
    "permittivity.permittivity_iw.self_s": ("s", "permittivity.permittivity_iw"),
    "lifshitz.sum.calls": ("count", "lifshitz.sum"),
    "lifshitz.sum.terms": ("count", "lifshitz.sum"),
    "lifshitz.sum.self_s": ("s", "lifshitz.sum"),
    "lifshitz.sum.us_per_term": ("us", "lifshitz.sum"),
    "lifshitz.sum.max_truncation_bound": ("ratio", "lifshitz.sum"),
    "lifshitz.tc_jump.calls": ("count", "lifshitz.tc_jump"),
    "lifshitz.tc_jump.wall_s": ("s", "lifshitz.tc_jump"),
    "lifshitz.local_exponent.calls": ("count", "lifshitz.local_exponent"),
    "lifshitz.local_exponent.wall_s": ("s", "lifshitz.local_exponent"),
    "analysis.generate_sweep.self_s": ("s", "analysis.generate_sweep"),
    "analysis.sweep_pipeline.self_s": ("s", "analysis.sweep_pipeline"),
    "analysis.dynes_fit.self_s": ("s", "analysis.dynes_fit"),
    "analysis.dynes_conductance.calls": ("count", "analysis.dynes_conductance"),
    "analysis.dynes_conductance.self_s": ("s", "analysis.dynes_conductance"),
    "membrane.lcpd_fit.self_s": ("s", "membrane.lcpd_fit"),
    "cli.commands": ("count", CLI_SPAN),
    "cli.self_s": ("s", CLI_SPAN),
    "cli.failures": ("count", CLI_SPAN),
}

# Measured by the run, from a traced and an untraced pass.
OVERHEAD_METRIC = ("trace.overhead_s", "s")


class Recorder:
    """Records spans at the wrapped boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.present: set[str] = {CLI_SPAN}
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _begin(self, name: str) -> list:
        span = [name, self._open[-1] if self._open else -1,
                time.perf_counter(), None, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around the caller's own block; yields the span so the
        caller can attach attrs."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every boundary that still exists.  A boundary a refactor
        removed is skipped, and its metrics are reported missing."""
        for module_name, attr, name, attrs_of in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs_of))
            self.present.add(name)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"],
                       "spans": self.spans}, fh)

    def metrics(self, clock=lambda t: t) -> dict[str, float]:
        """Per-layer metrics; those of a missing boundary are left out.

        ``clock`` maps the recorded ``perf_counter`` readings to the time
        scale the metrics are reported in.  A span's self time is its
        duration minus that of its direct children.  Ratios over zero calls
        read 0.
        """
        duration = [clock(end) - clock(start) for _, _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, parent, _, _, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        calls: dict[str, int] = {}
        wall: dict[str, float] = {}
        self_s: dict[str, float] = {}
        attrs: dict[str, list] = {}
        for i, (name, _, _, _, attr) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            wall[name] = wall.get(name, 0.0) + duration[i]
            self_s[name] = self_s.get(name, 0.0) + duration[i] - child_time[i]
            attrs.setdefault(name, []).append(attr)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        g = "permittivity.bcs_g"
        g_calls = calls.get(g, 0)
        # a call that raised has no attrs
        g_distinct = len({tuple(a) for a in attrs.get(g, []) if a is not None})
        sums = [a for a in attrs.get("lifshitz.sum", []) if a is not None]
        terms = sum(a[0] for a in sums)
        values = {
            "permittivity.bcs_g.calls": g_calls,
            "permittivity.bcs_g.distinct": g_distinct,
            "permittivity.bcs_g.hit_ratio": ratio(g_calls - g_distinct, g_calls),
            "permittivity.bcs_g.self_s": self_s.get(g, 0.0),
            "permittivity.bcs_g.ms_per_distinct": ratio(self_s.get(g, 0.0),
                                                        g_distinct, 1e3),
            "lifshitz.sum.terms": terms,
            "lifshitz.sum.us_per_term": ratio(self_s.get("lifshitz.sum", 0.0),
                                              terms, 1e6),
            "lifshitz.sum.max_truncation_bound": max((a[1] for a in sums),
                                                     default=0.0),
            "cli.failures": sum(1 for a in attrs.get(CLI_SPAN, []) if a),
            "cli.commands": calls.get(CLI_SPAN, 0),
        }
        out = {}
        for metric, (_, span_name) in LAYER_METRICS.items():
            if span_name not in self.present:
                continue
            if metric in values:
                out[metric] = values[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls.get(span_name, 0)
            elif metric.endswith(".wall_s"):
                out[metric] = wall.get(span_name, 0.0)
            else:
                out[metric] = self_s.get(span_name, 0.0)
        return out
