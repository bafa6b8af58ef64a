"""Call tracing of the ``wml`` library from outside it.

``Tracer.install`` replaces every public function of every ``wml.*`` module
with a timing wrapper, in every namespace that binds it (``wml.invariants``
imports ``fringe`` by name; ``_integrate_letter`` looks ``wg`` up as a
module global), plus a few operator methods.  ``uninstall`` puts every
original binding back.  The library itself is never edited.

Coarse boundaries (``SPANS``) are recorded as spans ``(name, start, end,
parent)`` kept in memory and written out at the end of a run.  Every other
wrapped function is hot: it records only its call count and time.  Each
frame also accumulates its children's time, so self time is a call's
duration minus the time spent in wrapped calls it made.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# Functions that get a span; all other wrapped functions only count.
SPANS = frozenset({
    "words.parse", "words.parse_word",
    "invariants.analyze", "invariants.primitivity_rank",
    "invariants.commutator_length", "invariants.comm_crit",
    "invariants.critical_subgroups", "invariants.is_algebraic_extension",
    "stallings.fringe",
    "whitehead.minimize", "whitehead.is_primitive",
    "whitehead.in_proper_free_factor", "whitehead.orbit_equivalent",
    "surfaces.genus_spectrum", "surfaces.spectrum_map",
    "surfaces.minimal_single_boundary_genus",
    "weingarten.moment", "weingarten.word_moment",
    "weingarten.expansion_prediction",
    "ratfunc.laurent", "montecarlo.estimate_moment",
    "cli.main", "cli.verify_word",
})

# Methods wrapped besides module-level functions: (module, class, names).
METHODS = (
    ("wml.ratfunc", "RationalFunction",
     ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__")),
    ("wml.surfaces", "SurfaceComplex", ("image_subgroup",)),
)

# Extra aggregation keys: several functions timed as one layer.  Nested
# calls within one key count once (outermost call only).
GROUPS = {
    "words.parse": "words.parse_any",
    "words.parse_word": "words.parse_any",
    "whitehead.in_proper_free_factor": "whitehead.orbit",
    "whitehead.orbit_equivalent": "whitehead.orbit",
    "weingarten.moment": "weingarten.moment_any",
    "weingarten.word_moment": "weingarten.moment_any",
    "ratfunc.RationalFunction.__add__": "ratfunc.ops",
    "ratfunc.RationalFunction.__mul__": "ratfunc.ops",
    "ratfunc.RationalFunction.__truediv__": "ratfunc.ops",
}


def _record_fringe(tracer, result):
    tracer.counters["stallings.fringe_distinct"] += len(result)


def _record_estimate(tracer, result):
    tracer.counters["montecarlo.samples"] += result.samples
    tracer.maxima["montecarlo.unitarity_max"] = max(
        tracer.maxima["montecarlo.unitarity_max"], result.unitarity_max)


RESULT_HOOKS = {
    "stallings.fringe": _record_fringe,
    "montecarlo.estimate_moment": _record_estimate,
}


def _traceable(obj):
    if isinstance(obj, type):
        return False
    if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", "").startswith("wml")


def _qualified(obj):
    module = obj.__module__.split(".", 1)[1] if "." in obj.__module__ \
        else obj.__module__
    return f"{module}.{obj.__qualname__}"


def wml_namespaces():
    """Every loaded ``wml`` module, sorted by name."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == "wml" or name.startswith("wml.")]


def bindings():
    """``(namespace, attribute, object)`` for every binding the tracer wraps."""
    out = []
    for module in wml_namespaces():
        for attr, obj in list(vars(module).items()):
            if not attr.startswith("_") and _traceable(obj):
                out.append((module, attr, obj))
    for module_name, class_name, names in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        for attr in names:
            out.append((cls, attr, cls.__dict__[attr]))
    return out


class Tracer:
    """Counts, times and spans of wrapped ``wml`` calls in one process."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)  # outermost calls per key
        self.self_time = defaultdict(float)  # per function
        self.counters = Counter()
        self.maxima = defaultdict(float)
        self.spans = []  # [name, start, end, parent span index]
        self._depth = Counter()
        self._frames = []  # child time of each active wrapped call
        self._open_spans = []
        self._saved = []

    def _wrap(self, name, fn):
        keys = (name, name.split(".", 1)[0]) + \
            ((GROUPS[name],) if name in GROUPS else ())
        spanned = name in SPANS
        hook = RESULT_HOOKS.get(name)
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        depth, frames = self._depth, self._frames
        spans, open_spans = self.spans, self._open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in keys:
                depth[key] += 1
            if spanned:
                index = len(spans)
                spans.append([name, 0.0, 0.0,
                              open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                self_time[name] += duration - frame[0]
                for key in keys:
                    calls[key] += 1
                    depth[key] -= 1
                    if not depth[key]:
                        inclusive[key] += duration
                if spanned:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for namespace, attr, obj in bindings():
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(_qualified(obj), obj)
            setattr(namespace, attr, wrappers[id(obj)])
            self._saved.append((namespace, attr, obj))

    def uninstall(self):
        for namespace, attr, obj in reversed(self._saved):
            setattr(namespace, attr, obj)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Raw per-key aggregates, JSON-serializable."""
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def work_counts(summary):
    """The work counters that must repeat exactly between traced runs."""
    calls, counters = summary["calls"], summary["counters"]
    return {
        "weingarten.pair_terms": calls.get("weingarten.wg", 0),
        "stallings.quotients_folded": calls.get("stallings.quotient", 0),
        "whitehead.orbit_states": calls.get("whitehead.type_i_canonical", 0),
        "surfaces.surfaces_built": calls.get("surfaces.build_surface", 0),
        "stallings.fringe_distinct": counters.get("stallings.fringe_distinct", 0),
    }


def layer_metrics(summary):
    """Per-layer metrics of one traced pass, from ``Tracer.summary()``."""
    calls, incl = summary["calls"], summary["inclusive"]
    self_time, counters = summary["self_time"], summary["counters"]

    def module_self(module):
        prefix = module + "."
        return sum(t for name, t in self_time.items() if name.startswith(prefix))

    counts = work_counts(summary)
    quotients = counts["stallings.quotients_folded"]
    distinct = counts["stallings.fringe_distinct"]
    analyses = calls.get("invariants.analyze", 0)
    estimate_s = incl.get("montecarlo.estimate_moment", 0.0)
    samples = counters.get("montecarlo.samples", 0)
    return {
        "words.parse_s": incl.get("words.parse_any", 0.0),
        "stallings.fringe_s": incl.get("stallings.fringe", 0.0),
        "stallings.fold_s": incl.get("stallings.fold", 0.0),
        "stallings.quotients_folded": quotients,
        "stallings.fringe_distinct": distinct,
        "stallings.fold_yield": distinct / quotients if quotients else 0.0,
        "whitehead.minimize_s": incl.get("whitehead.minimize", 0.0),
        "whitehead.minimize_calls": calls.get("whitehead.minimize", 0),
        "whitehead.orbit_s": incl.get("whitehead.orbit", 0.0),
        "whitehead.orbit_states": counts["whitehead.orbit_states"],
        "surfaces.spectrum_s": incl.get("surfaces.genus_spectrum", 0.0),
        "surfaces.surfaces_built": counts["surfaces.surfaces_built"],
        "surfaces.build_s": incl.get("surfaces.build_surface", 0.0),
        "surfaces.image_s": incl.get("surfaces.SurfaceComplex.image_subgroup", 0.0),
        "invariants.self_s": module_self("invariants"),
        "invariants.fringe_passes":
            calls.get("stallings.fringe", 0) / analyses if analyses else 0.0,
        "weingarten.moment_s": incl.get("weingarten.moment_any", 0.0),
        "weingarten.pair_terms": counts["weingarten.pair_terms"],
        "weingarten.pair_sum_self_s": self_time.get("weingarten.word_moment", 0.0),
        "ratfunc.ops": calls.get("ratfunc.ops", 0),
        "ratfunc.gcd_calls": calls.get("ratfunc.poly_gcd", 0),
        "ratfunc.gcd_s": incl.get("ratfunc.poly_gcd", 0.0),
        "ratfunc.laurent_s": incl.get("ratfunc.laurent", 0.0),
        "partitions.calls": calls.get("partitions", 0),
        "partitions.s": incl.get("partitions", 0.0),
        "montecarlo.estimate_s": estimate_s,
        "montecarlo.samples_per_s": samples / estimate_s if estimate_s else 0.0,
        "montecarlo.unitarity_max":
            summary["maxima"].get("montecarlo.unitarity_max", 0.0),
    }
