"""Spans around fpmom's layers, recorded from the bench's own files.

Each fpmom module is a layer: laurent, ring, recurrence, oracle, series
and cli.  ``install`` wraps every public function of those modules and
rebinds the wrapper wherever a module looks the name up (the modules
import names directly, e.g. ``fpmom.oracle.iter_powers`` and
``fpmom.cli.power``, so patching only the defining module would miss
calls).  A few methods get spans too, and two hot methods only counters.

The words layer is not wrapped: its functions run once per word, so
spans there would swamp the trace.  It is measured by the hash quality
of each job's largest ring element instead.

A span records its id, its parent's id, the job id, layer, name, start,
end and busy time.  A generator's span runs from its first resume until
it is exhausted or closed; its busy time counts only the time spent
inside it, and spans opened while it runs are its children.  Self time
is busy time minus the children's busy time.  Spans stay in memory and
are handed back when the job ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

__all__ = ["install", "Tracer", "layer_metrics"]

LAYERS = ("laurent", "ring", "recurrence", "oracle", "series", "cli")
SPAN_METHODS = {
    ("laurent", "LaurentPolynomial"): ("to_pairs", "to_csv_cell", "to_tex"),
    ("ring", "RingElement"): ("to_json_dict",),
}
COUNTED_METHODS = {
    ("recurrence", "RadialDecomposition"): ("step",),
    ("laurent", "LaurentPolynomial"): ("__init__",),
}

_now = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "busy", "resumed", "attrs")

    def __init__(self, span_id, parent, layer, name, start):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0
        self.resumed = start
        self.attrs = None

    def as_list(self, job_id):
        return [self.id, self.parent, job_id, self.layer, self.name,
                self.start, self.end, self.busy, self.attrs]


class Tracer:
    """Span stack, finished spans and counters of one job."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.top_decomposition = None
        self.largest_element = None
        self._last_id = 0

    def open(self, layer: str, name: str) -> Span:
        self._last_id += 1
        parent = self.stack[-1].id if self.stack else 0
        span = Span(self._last_id, parent, layer, name, _now())
        self.stack.append(span)
        return span

    def resume(self, span: Span) -> None:
        span.resumed = _now()
        self.stack.append(span)

    def suspend(self, span: Span) -> None:
        span.end = _now()
        span.busy += span.end - span.resumed
        self.stack.pop()

    def close(self, span: Span) -> None:
        self.spans.append(span)

    def note_decomposition(self, dec) -> None:
        top = self.top_decomposition
        if top is None or dec.power > top.power:
            self.top_decomposition = dec

    def note_element(self, element) -> None:
        top = self.largest_element
        if top is None or element.support_size > top.support_size:
            self.largest_element = element

    def finish(self) -> dict:
        """Everything recorded for the job, as plain JSON-ready data."""
        bits = 0
        if self.top_decomposition is not None:
            bits = max(c.bit_length() for c in self.top_decomposition.coeffs.values())
        words = None
        if self.largest_element is not None:
            buckets = Counter(hash(w) for w in self.largest_element.terms)
            words = {
                "terms": self.largest_element.support_size,
                "distinct_hashes": len(buckets),
                "max_bucket": max(buckets.values()),
            }
        return {
            "spans": [s.as_list(self.job_id) for s in self.spans],
            "counts": dict(self.counts),
            "coeff_bits_max": bits,
            "words": words,
        }

    # --- wrappers ---

    def wrap(self, fn, layer: str, name: str):
        hook = _HOOKS.get(name)
        if fn.__code__.co_flags & 0x20:  # CO_GENERATOR
            return self._wrap_generator(fn, layer, name, hook)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.suspend(span)
                tracer.close(span)
            if hook is not None:
                hook(tracer, span, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, fn, layer, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(layer, name)  # runs at the first resume
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.suspend(span)
                    if hook is not None:
                        hook(tracer, span, args, item)
                    yield item
                    tracer.resume(span)
            finally:
                inner.close()
                tracer.close(span)

        return functools.wraps(fn)(traced)

    def count(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)


def _multiply_hook(tracer, span, args, result):
    x, y = args[0], args[1]
    span.attrs = {"products": x.support_size * y.support_size, "support": result.support_size}
    tracer.note_element(result)


def _iter_powers_hook(tracer, span, args, item):
    span.attrs = {"n": item[0]}


def _decomposition_hook(tracer, span, args, dec):
    tracer.note_decomposition(dec)


def _walk_hook(tracer, span, args, table):
    span.attrs = {"cells": sum(len(row) for row in table.counts)}


def _emit_hook(tracer, span, args, data):
    span.attrs = {"bytes": len(data)}


_HOOKS = {
    "multiply": _multiply_hook,
    "iter_powers": _iter_powers_hook,
    "iter_decompositions": _decomposition_hook,
    "decomposition_of": _decomposition_hook,
    "walk_counts": _walk_hook,
    "emit": _emit_hook,
}


def install(job_id: int) -> Tracer:
    """Wrap fpmom's layers in this process; return the tracer that records them."""
    import fpmom.cli  # noqa: F401  (loads every layer)

    tracer = Tracer(job_id)
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"fpmom.{layer}"]
        for name, fn in vars(module).items():
            if (
                isinstance(fn, types.FunctionType)
                and not name.startswith("_")
                and fn.__module__ == module.__name__
            ):
                wrappers[fn] = tracer.wrap(fn, layer, name)
    for module_name, module in list(sys.modules.items()):
        if module_name == "fpmom" or module_name.startswith("fpmom."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
    for (layer, cls_name), methods in SPAN_METHODS.items():
        cls = getattr(sys.modules[f"fpmom.{layer}"], cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(getattr(cls, method), layer, f"{cls_name}.{method}"))
    for (layer, cls_name), methods in COUNTED_METHODS.items():
        cls = getattr(sys.modules[f"fpmom.{layer}"], cls_name)
        for method in methods:
            setattr(cls, method, tracer.count(getattr(cls, method), f"{cls_name}.{method}"))
    return tracer


# --- per-layer metrics, computed by the bench from the spans of a batch ---

PER_LAYER_UNITS = {
    "cli.self_s": "s/job",
    "series.build_s": "s/job",
    "series.emit_s": "s/job",
    "series.bytes_out": "bytes/job",
    "laurent.polys": "count/job",
    "laurent.render_s": "s/job",
    "recurrence.self_s": "s/job",
    "recurrence.steps": "count/job",
    "recurrence.steps_per_moment": "ratio",
    "recurrence.coeff_bits_max": "bits",
    "oracle.walk_s": "s/job",
    "oracle.walk_cells": "count/job",
    "oracle.verify_s": "s/job",
    "oracle.expansions_per_order": "ratio",
    "oracle.ring_orders_covered": "orders",
    "ring.multiply_s": "s/job",
    "ring.multiply_calls": "count/job",
    "ring.word_products": "count/job",
    "ring.products_per_s": "1/s",
    "ring.peak_support": "count",
    "ring.condexp_s": "s/job",
    "ring.serialize_s": "s/job",
    "words.hash_distinct_ratio": "ratio",
    "words.max_bucket": "count",
    "trace.overhead_ratio": "ratio",
}

VERIFY_SPANS = ("verify_scalar", "verify_amalgamated", "verify_radiality")
LAURENT_RENDER = tuple(
    f"LaurentPolynomial.{m}" for m in SPAN_METHODS[("laurent", "LaurentPolynomial")]
)


def layer_metrics(jobs, traces, overhead_ratio: float) -> dict:
    """Per-layer metrics of a traced batch.

    ``jobs`` and ``traces`` are parallel lists: the benchmark Job and the
    ``finish()`` payload of its traced process.  Times and counts are per
    job; maxima and ratios are over the whole batch.
    """
    total = Counter()
    bits_max = peak_support = max_bucket = 0
    hash_ratios = []
    verify_jobs = 0
    for job, trace in zip(jobs, traces):
        spans = {s[0]: s for s in trace["spans"]}
        child_busy = Counter()
        for s in spans.values():
            child_busy[s[1]] += s[7]

        def under_verify(s):
            while s[1]:
                s = spans[s[1]]
                if s[4] in VERIFY_SPANS:
                    return True
            return False

        ring_order = 0
        for s in spans.values():
            _, _, _, layer, name, _, _, busy, attrs = s
            self_s = busy - child_busy[s[0]]
            total[f"self:{layer}"] += self_s
            if name in ("scalar_series", "amalgamated_series"):
                total["series.build_s"] += self_s
            elif name == "emit":
                total["series.emit_s"] += self_s
                total["series.bytes_out"] += attrs["bytes"]
            elif name in LAURENT_RENDER:
                total["laurent.render_s"] += busy
            elif name == "walk_counts":
                total["oracle.walk_s"] += busy
                total["oracle.walk_cells"] += attrs["cells"]
            elif name in VERIFY_SPANS:
                total["oracle.verify_s"] += self_s
            elif name == "multiply":
                total["ring.multiply_s"] += busy
                total["ring.multiply_calls"] += 1
                total["ring.word_products"] += attrs["products"]
                peak_support = max(peak_support, attrs["support"])
                if under_verify(s):
                    total["verify_multiplies"] += 1
            elif name == "iter_powers" and attrs and under_verify(s):
                ring_order = max(ring_order, attrs["n"])
            elif name == "conditional_expectation":
                total["ring.condexp_s"] += busy
            elif name == "RingElement.to_json_dict":
                total["ring.serialize_s"] += busy
        if job.kind == "verify":
            verify_jobs += 1
            total["ring_orders"] += ring_order
        total["recurrence.steps"] += trace["counts"].get("RadialDecomposition.step", 0)
        total["laurent.polys"] += trace["counts"].get("LaurentPolynomial.__init__", 0)
        total["orders_emitted"] += job.order
        bits_max = max(bits_max, trace["coeff_bits_max"])
        words = trace["words"]
        if words:
            hash_ratios.append(words["distinct_hashes"] / words["terms"])
            max_bucket = max(max_bucket, words["max_bucket"])

    n_jobs = len(traces)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "cli.self_s": total["self:cli"] / n_jobs,
        "recurrence.self_s": total["self:recurrence"] / n_jobs,
        "recurrence.steps_per_moment": ratio(total["recurrence.steps"], total["orders_emitted"]),
        "recurrence.coeff_bits_max": bits_max,
        "oracle.expansions_per_order": ratio(total["verify_multiplies"], total["ring_orders"]),
        "oracle.ring_orders_covered": ratio(total["ring_orders"], verify_jobs),
        "ring.products_per_s": ratio(total["ring.word_products"], total["ring.multiply_s"]),
        "ring.peak_support": peak_support,
        "words.hash_distinct_ratio": ratio(sum(hash_ratios), len(hash_ratios)),
        "words.max_bucket": max_bucket,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in PER_LAYER_UNITS:
        if name not in values:
            values[name] = total[name] / n_jobs
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
