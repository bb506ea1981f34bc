"""Span tracing of sieveboot's layers from outside the package.

``Tracer.installed()`` rebinds the public functions of each layer in every
``sieveboot`` module namespace that holds them (``from x import f`` copies
included) and rebinds the ``evaluate`` method of every statistic class. Each
call records a span -- name, start, end, parent -- into flat arrays kept in
memory; ``layer_metrics`` turns them into per-layer self times and call
counts when the run ends. Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the durations of its direct
child spans, so the self times of all spans under one ``run_experiment`` span
sum to that span's duration.

``experiment.companion_spec_for`` is traced as a leaf: spans opened inside it
are not recorded, so the 10^6-sample innovation record it builds counts as its
own time and not as ``dgp.simulate``. ``lfilter`` calls made from ``dgp``,
``sieve`` and ``companion`` open no span; they add the samples filtered and the
multiply-accumulates implied by their arguments (output length times
``len(b) + len(a) - 1``) to two counters. Those two are computed from the
arguments, not measured.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter

import numpy as np
from scipy.signal import lfilter as _scipy_lfilter

ROOT_SPAN = "experiment.run_experiment"

# (module, attribute, span name); the functions are looked up on the module
# when tracing starts, then replaced wherever a sieveboot module holds them.
FUNCTION_SPANS = (
    ("sieveboot.experiment", "run_experiment", ROOT_SPAN),
    ("sieveboot.experiment", "companion_spec_for", "experiment.companion_spec_for"),
    ("sieveboot.experiment", "compute_targets", "experiment.compute_targets"),
    ("sieveboot.experiment", "write_report", "experiment.write_report"),
    ("sieveboot.dgp", "simulate_linear", "dgp.simulate"),
    ("sieveboot.dgp", "simulate_ar", "dgp.simulate"),
    ("sieveboot.dgp", "simulate_arch1", "dgp.simulate"),
    ("sieveboot.dgp", "ma1_example", "dgp.simulate"),
    ("sieveboot.dgp", "derive_seed", "dgp.derive_seed"),
    ("sieveboot.sieve", "bootstrap_distribution", "sieve.bootstrap_distribution"),
    ("sieveboot.sieve", "fit_sieve", "sieve.fit_sieve"),
    ("sieveboot.sieve", "generate_bootstrap_series", "sieve.generate_bootstrap_series"),
    ("sieveboot.companion", "companion_distribution", "companion.companion_distribution"),
    ("sieveboot.companion", "build_companion", "companion.build_companion"),
    ("sieveboot.series", "kolmogorov_distance", "series.kolmogorov_distance"),
)
LEAF_SPANS = frozenset({"experiment.companion_spec_for"})
EVALUATE_SPAN = "statistics.evaluate"
FILTER_MODULES = ("sieveboot.dgp", "sieveboot.sieve", "sieveboot.companion")

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in FUNCTION_SPANS] + [EVALUATE_SPAN]))
# Per-layer self-time metrics; they partition experiment.run_experiment_s.
SELF_TIME_METRICS = ("experiment.self_s",) + tuple(
    f"{name}_s" for name in SPAN_NAMES if name != ROOT_SPAN)
CALL_COUNT_METRICS = (
    "dgp.simulate_calls",
    "dgp.derive_seed_calls",
    "sieve.generate_bootstrap_series_calls",
    "companion.build_companion_calls",
    "statistics.evaluate_calls",
)
FILTER_METRICS = ("filter.samples", "filter.mac")


class Tracer:
    """Spans of one traced stretch of work, kept in flat in-memory arrays."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.muted = 0
        self.filter_samples = 0
        self.filter_mac = 0

    def _span(self, fn, name):
        name_id = self.name_ids[name]
        leaf = name in LEAF_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(i)
            self.muted += leaf
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.muted -= leaf
                self.stack.pop()

        return traced

    def _counted_lfilter(self, b, a, x, *args, **kwargs):
        x = np.asarray(x)
        self.filter_samples += x.size
        self.filter_mac += x.size * (np.size(b) + np.size(a) - 1)
        return _scipy_lfilter(b, a, x, *args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions for the duration of the block."""
        import sieveboot.experiment  # noqa: F401  (loads every layer module)
        from sieveboot import statistics

        modules = [m for key, m in list(sys.modules.items())
                   if key == "sieveboot" or key.startswith("sieveboot.")]
        replacements = {}
        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], attr)
            replacements[id(original)] = (original, self._span(original, span))
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])
            if module.__name__ in FILTER_MODULES and getattr(module, "lfilter", None) is _scipy_lfilter:
                undo.append((module, "lfilter", _scipy_lfilter))
                module.lfilter = self._counted_lfilter
        for cls in vars(statistics).values():
            if isinstance(cls, type) and "evaluate" in vars(cls):
                original = vars(cls)["evaluate"]
                undo.append((cls, "evaluate", original))
                cls.evaluate = self._span(original, EVALUATE_SPAN)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def layer_metrics(self) -> dict:
        """Per-layer self times (s), call counts and filter work of all spans.

        Raises ValueError if the self times of the spans under any
        run_experiment span fail to add up to that span's duration.
        """
        if self.stack:
            raise ValueError("spans still open")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        roots = np.flatnonzero(~nested)
        for lo, hi in zip(roots, list(roots[1:]) + [dur.size]):
            if abs(self_time[lo:hi].sum() - dur[lo]) > 1e-9 * max(1.0, dur[lo]):
                raise ValueError("self times do not partition the experiment span")
        root_id = self.name_ids[ROOT_SPAN]
        if np.any(name[roots] != root_id):
            raise ValueError("a traced span ran outside run_experiment")
        self_by_name = np.bincount(name, weights=self_time, minlength=len(SPAN_NAMES))
        calls_by_name = np.bincount(name, minlength=len(SPAN_NAMES))
        out = {f"{ROOT_SPAN}_s": float(dur[roots].sum()),
               "experiment.self_s": float(self_by_name[root_id])}
        for span, i in self.name_ids.items():
            if span != ROOT_SPAN:
                out[f"{span}_s"] = float(self_by_name[i])
        for metric in CALL_COUNT_METRICS:
            out[metric] = int(calls_by_name[self.name_ids[metric[: -len("_calls")]]])
        out["filter.samples"] = int(self.filter_samples)
        out["filter.mac"] = int(self.filter_mac)
        return out
