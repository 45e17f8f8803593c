"""Per-layer tracing from outside the program.

The tracer wraps public functions of the tensorflat modules in every module
namespace that holds a reference to them (tensors.flatten is also
spectra.flatten and cli.flatten; group_algebra.multiply is reached through
AlgebraElement.__mul__), and restores every patched attribute on exit.

Coarse calls get spans, whose self time is their duration minus the time of
the spans nested inside them.  Per-partition and per-pair calls get counts
only, so that the tracing overhead stays small enough to measure.
"""

from __future__ import annotations

import copy
import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "tensorflat"

SPANS = (
    "tensors.sample_tensor",
    "tensors.flatten",
    "tensors.word_eval",
    "tensors.cond_expect_N",
    "spectra.build_target",
    "spectra.trace_power_moments",
    "spectra.empirical_spectrum",
    "traffic.full_trace_expect_detailed",
    "traffic.word_cond_expect_exact",
    "moments.word_expectation",
    "moments.word_expectation_enumerated",
    "moments.mixture_covariance",
    "characters.character_value",
    "cli.main",
)
COUNTS = (
    "traffic.inj_trace_expect",
    "moments.covariance",
    "group_algebra.multiply",
    "perms.compose",
)


def _flatten_bytes(stat, args, out):
    # one read and one write of every complex128 entry, computed, not measured
    t = args[0]
    stat["bytes_computed"] += 2 * 16 * t.N ** (2 * t.k)


def _side(stat, args, out):
    stat["side_max"] = max(stat["side_max"], out.data.shape[0])


def _nonzero_float(stat, args, out):
    stat["nonzero"] += out != 0


def _nonzero_element(stat, args, out):
    stat["nonzero"] += not out.is_zero()


def _term_products(stat, args, out):
    stat["term_products"] += len(args[0].coeffs) * len(args[1].coeffs)


# layer -> (extra field, unit of its metric, hook run on each return to
# update it); a "nonzero" count is reported as nonzero_frac of the calls
EXTRAS = {
    "tensors.flatten": ("bytes_computed", "B", _flatten_bytes),
    "spectra.build_target": ("side_max", "count", _side),
    "traffic.inj_trace_expect": ("nonzero", "frac", _nonzero_float),
    "moments.covariance": ("nonzero", "frac", _nonzero_element),
    "group_algebra.multiply": ("term_products", "count", _term_products),
}

# The workload on which each layer's metrics should move (and so must show
# calls); see README.md for which end-to-end metric each should move.
MAPPED_WORKLOADS = {
    "tensors.sample_tensor": ("montecarlo", "spectral"),
    "tensors.flatten": ("spectral",),
    "tensors.word_eval": ("montecarlo",),
    "tensors.cond_expect_N": ("montecarlo",),
    "spectra.build_target": ("spectral",),
    "spectra.trace_power_moments": ("spectral",),
    "spectra.empirical_spectrum": ("spectral",),
    "traffic.full_trace_expect_detailed": ("oracle",),
    "traffic.word_cond_expect_exact": ("oracle",),
    "traffic.inj_trace_expect": ("oracle",),
    "moments.word_expectation": ("limit",),
    "moments.word_expectation_enumerated": ("limit",),
    "moments.mixture_covariance": ("limit",),
    "moments.covariance": ("limit",),
    "group_algebra.multiply": ("limit",),
    "perms.compose": ("limit", "montecarlo"),
    "characters.character_value": ("limit",),
    "cli.main": ("montecarlo",),
}


def _units():
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in SPANS + COUNTS:
        out.append((f"{layer}.calls", "count"))
        if layer in SPANS:
            out.append((f"{layer}.self_s", "s"))
        if layer in EXTRAS:
            field, unit, _ = EXTRAS[layer]
            out.append((f"{layer}.{'nonzero_frac' if field == 'nonzero' else field}", unit))
    out.append(("trace.overhead_frac", "frac"))
    return out


METRICS = _units()


class Tracer:
    """Context manager: wraps the traced functions on entry, restores them
    on exit, and accumulates per-layer statistics in self.stats."""

    def __init__(self):
        self.stats = {}
        for layer in SPANS + COUNTS:
            self.stats[layer] = {"calls": 0, "self_s": 0.0} if layer in SPANS else {"calls": 0}
            if layer in EXTRAS:
                self.stats[layer][EXTRAS[layer][0]] = 0
        self._stack = []  # child-span time of each open span
        self._patched = []  # (namespace, attribute, original)

    def _span(self, layer, fn):
        stat, stack = self.stats[layer], self._stack
        hook = EXTRAS.get(layer, (None, None, None))[2]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat["calls"] += 1
                stat["self_s"] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(stat, args, out)
            return out

        return wrapper

    def _count(self, layer, fn):
        stat = self.stats[layer]
        hook = EXTRAS.get(layer, (None, None, None))[2]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(stat, args, out)
            return out

        return wrapper

    def __enter__(self):
        for layer in SPANS + COUNTS:
            importlib.import_module(f"{PACKAGE}.{layer.rsplit('.', 1)[0]}")
        namespaces = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for layer in SPANS + COUNTS:
                module_name, attr = layer.rsplit(".", 1)
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                make = self._span if layer in SPANS else self._count
                wrapper = make(layer, original)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, name, wrapper)
                            self._patched.append((namespace, name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def snapshot(self):
        return copy.deepcopy(self.stats)


def per_pass(setup, end, passes):
    """Statistics of set-up plus one pass: additive fields keep the set-up
    part and average the rest over the passes; side_max is a maximum."""
    out = {}
    for layer, fields in end.items():
        out[layer] = {
            field: value if field == "side_max"
            else setup[layer][field] + (value - setup[layer][field]) / passes
            for field, value in fields.items()
        }
    return out


def layer_metrics(stats, overhead_frac):
    """{metric name: (value, unit)} for every name in METRICS."""
    values = {}
    for layer, fields in stats.items():
        values[f"{layer}.calls"] = fields["calls"]
        if layer in SPANS:
            values[f"{layer}.self_s"] = fields["self_s"]
        for field, value in fields.items():
            if field == "nonzero":
                values[f"{layer}.nonzero_frac"] = value / fields["calls"] if fields["calls"] else 0.0
            elif field not in ("calls", "self_s"):
                values[f"{layer}.{field}"] = value
    values["trace.overhead_frac"] = overhead_frac
    return {name: (values[name], unit) for name, unit in METRICS}
