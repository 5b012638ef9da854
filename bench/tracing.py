"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps each layer's public functions from outside, under the name
through which the calling module looks them up (``holostark.holonomy.
transport_exponents`` is what ``wilson_loop`` calls), so no source file is
edited.  Each span carries name, start, end, parent span, call id and an
optional work figure; spans stay in memory until the run writes them out.

Only calls made inside a ``cli.main`` span are recorded: the benchmark's own
checks call the same functions and must not count.  Private helpers
(``_linalg.*``, ``dynamics._propagate``) are not wrapped; their cost is the
self time of their public caller.  A name missing from a later version of the
package is skipped and reported, so the benchmark survives refactors.
"""

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _points(args, kwargs, result):
    return int(args[0].shape[0]) if getattr(args[0], "ndim", 1) > 1 else 1


# (module, attribute path, span name, work figure from (args, kwargs, result))
WRAPPED = [
    ("holostark.cli", "main", "cli.main", None),
    ("holostark.cli", "wilson_loop", "holonomy.wilson_loop", None),
    ("holostark.synth", "wilson_loop", "holonomy.wilson_loop", None),
    ("holostark.dynamics", "wilson_loop", "holonomy.wilson_loop", None),
    ("holostark.holonomy", "FieldPath.points", "holonomy.points", None),
    ("holostark.holonomy", "basepoint_frames", "holonomy.basepoint_frames", None),
    ("holostark.dynamics", "basepoint_frames", "holonomy.basepoint_frames", None),
    ("holostark.cli", "eigenphases", "holonomy.eigenphases", None),
    ("holostark.synth", "zee_holonomy", "holonomy.zee_holonomy", None),
    ("holostark.synth", "linear_triangle_holonomy",
     "holonomy.linear_triangle_holonomy", None),
    ("holostark.holonomy", "transport_exponents", "connection.transport_exponents",
     lambda a, k, r: int(r.shape[0])),
    ("holostark.connection", "d_components", "stark.d_components", _points),
    ("holostark.holonomy", "d_components", "stark.d_components", _points),
    ("holostark.dynamics", "d_components", "stark.d_components", _points),
    ("holostark.connection", "d_jacobian", "stark.d_jacobian", None),
    ("holostark.holonomy", "default_basis", "algebra.default_basis", None),
    ("holostark.connection", "default_basis", "algebra.default_basis", None),
    ("holostark.dynamics", "default_basis", "algebra.default_basis", None),
    ("holostark.cli", "adiabatic_fidelity", "dynamics.adiabatic_fidelity", None),
    ("holostark.cli", "synthesize", "synth.synthesize",
     lambda a, k, r: r.evaluations),
    ("holostark.synth", "minimize", "synth.nelder_mead", lambda a, k, r: float(r.fun)),
    ("holostark.synth", "loop_product", "synth.loop_product", None),
]
_SPAN_NAMES = {name for _, _, name, _ in WRAPPED}

# per-layer metric -> (unit, better); the traced run emits exactly these
LAYER_METRICS = {
    "cli.main.count": ("count", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "holonomy.wilson_loop.count": ("count", "lower"),
    "holonomy.wilson_loop.busy_s": ("s", "lower"),
    "holonomy.wilson_loop.self_s": ("s", "lower"),
    "holonomy.points.count": ("count", "lower"),
    "holonomy.points.busy_s": ("s", "lower"),
    "holonomy.basepoint_frames.busy_s": ("s", "lower"),
    "holonomy.eigenphases.busy_s": ("s", "lower"),
    "holonomy.steps": ("count", "lower"),
    "holonomy.ns_per_step": ("ns", "lower"),
    "holonomy.zee_holonomy.count": ("count", "lower"),
    "holonomy.zee_holonomy.busy_s": ("s", "lower"),
    "holonomy.linear_triangle_holonomy.count": ("count", "lower"),
    "holonomy.linear_triangle_holonomy.busy_s": ("s", "lower"),
    "connection.transport_exponents.count": ("count", "lower"),
    "connection.transport_exponents.busy_s": ("s", "lower"),
    "connection.transport_exponents.self_s": ("s", "lower"),
    "stark.d_components.count": ("count", "lower"),
    "stark.d_components.busy_s": ("s", "lower"),
    "stark.d_jacobian.count": ("count", "lower"),
    "stark.d_jacobian.busy_s": ("s", "lower"),
    "algebra.default_basis.count": ("count", "lower"),
    "dynamics.adiabatic_fidelity.count": ("count", "lower"),
    "dynamics.adiabatic_fidelity.busy_s": ("s", "lower"),
    "dynamics.adiabatic_fidelity.self_s": ("s", "lower"),
    "dynamics.time_steps": ("count", "lower"),
    "dynamics.ns_per_step": ("ns", "lower"),
    "synth.synthesize.count": ("count", "lower"),
    "synth.synthesize.busy_s": ("s", "lower"),
    "synth.synthesize.self_s": ("s", "lower"),
    "synth.nelder_mead.busy_s": ("s", "lower"),
    "synth.loop_product.count": ("count", "lower"),
    "synth.loop_product.busy_s": ("s", "lower"),
    "synth.evaluations": ("count", "lower"),
    "synth.grid_evaluations": ("count", "lower"),
    "synth.nm_evaluations": ("count", "lower"),
    "synth.restarts": ("count", "lower"),
    "synth.restarts_improving": ("count", "higher"),
    "synth.hit_frac": ("ratio", "higher"),
    "cli.self_share": ("ratio", "lower"),
    "holonomy.self_share": ("ratio", "lower"),
    "connection.self_share": ("ratio", "lower"),
    "stark.self_share": ("ratio", "lower"),
    "dynamics.self_share": ("ratio", "lower"),
    "synth.self_share": ("ratio", "lower"),
    "trace.calls_per_s": ("1/s", "higher"),
    "trace.untraced_calls_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

MODULES = ("cli", "holonomy", "connection", "stark", "dynamics", "synth")

# which end-to-end metric, on which workload, each layer metric should move;
# <module>.self_share = f bounds the calls_per_s gain of that module at 1/(1-f)
MOVES = {
    "cli": "calls_per_s on every workload; stays small unless records grow",
    "holonomy.wilson_loop": "calls_per_s on wilson-fine (most), adiabatic and "
                            "synth-numeric; not synth-analytic",
    "holonomy.points": "calls_per_s on wilson-fine and adiabatic",
    "holonomy.basepoint_frames": "calls_per_s on wilson-fine and adiabatic",
    "holonomy.eigenphases": "calls_per_s on wilson-fine",
    "holonomy.steps": "calls_per_s on wilson-fine: fewer refinement passes "
                      "per call (wilson_loop.count 3 -> 2)",
    "holonomy.ns_per_step": "calls_per_s on wilson-fine, adiabatic, synth-numeric",
    "holonomy.zee_holonomy": "calls_per_s on synth-analytic",
    "holonomy.linear_triangle_holonomy": "calls_per_s of synth on the linear model",
    "holonomy": "calls_per_s on wilson-fine, adiabatic, synth-numeric",
    "connection": "calls_per_s on wilson-fine and synth-numeric (and adiabatic)",
    "stark": "calls_per_s on wilson-fine and synth-numeric; small today",
    "algebra": "setup_s: default_basis is lru_cached",
    "dynamics": "calls_per_s on adiabatic only",
    "synth": "calls_per_s on synth-analytic (closed form) and synth-numeric "
             "(through wilson_loop)",
    "trace": "nothing: the cost of tracing itself",
}


NAME, START, END, PARENT, CALL, WORK = range(6)


class Recorder:
    """In-memory spans: [name, start, end, parent index, call id, work]."""

    def __init__(self):
        self.spans = []
        self.skipped = []
        self._stack = []
        self._call = -1

    def wrap(self, fn, name, work=None):
        root = name == "cli.main"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not root and not self._stack:
                return fn(*args, **kwargs)
            if root:
                self._call += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self._call, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return wrapped

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        undo = []
        try:
            for module_name, attr_path, name, work in WRAPPED:
                *owner_path, attr = attr_path.split(".")
                owner = importlib.import_module(module_name)
                try:
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    self.skipped.append(f"{module_name}.{attr_path}")
                    continue
                setattr(owner, attr, self.wrap(original, name, work))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def layer_metrics(spans, records, scales):
    """Per-layer counts, busy and self time from the spans of the traced
    calls.  ``records`` are those calls' parsed CLI records (None if absent)
    and ``scales`` their host-speed factors, by call id, applied to every
    span time as to the end-to-end times."""
    count = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)  # span index -> time covered by its children
    durations = [(s[END] - s[START]) * scales[s[CALL]] for s in spans]
    for s, dur in zip(spans, durations):
        count[s[NAME]] += 1
        busy[s[NAME]] += dur
        if s[PARENT] is not None:
            child[s[PARENT]] += dur
    self_time = defaultdict(float)
    for i, (s, dur) in enumerate(zip(spans, durations)):
        self_time[s[NAME]] += dur - child[i]

    steps = sum(s[WORK] for s in spans if s[NAME] == "connection.transport_exponents")
    time_steps = sum(s[WORK] for s in spans if s[NAME] == "stark.d_components"
                     and s[PARENT] is not None
                     and spans[s[PARENT]][NAME] == "dynamics.adiabatic_fidelity")
    evaluations = sum(s[WORK] for s in spans if s[NAME] == "synth.synthesize")
    nm_evaluations = sum(1 for s in spans if s[NAME] == "synth.loop_product"
                         and s[PARENT] is not None
                         and spans[s[PARENT]][NAME] == "synth.nelder_mead")

    restarts = improving = 0
    best = {}
    for s in spans:
        if s[NAME] == "synth.nelder_mead":
            restarts += 1
            prev = best.get(s[PARENT], float("inf"))
            if s[WORK] < prev:
                improving += 1
                best[s[PARENT]] = s[WORK]

    synth_records = [r["results"] for r in records
                     if r is not None and "evaluations" in r.get("results", {})]
    hits = sum(1 for r in synth_records if r["converged"] is True)

    out = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "count" and layer in _SPAN_NAMES:
            out[name] = count[layer]
        elif stat == "busy_s" and layer in _SPAN_NAMES:
            out[name] = busy[layer]
        elif stat == "self_s" and layer in _SPAN_NAMES:
            out[name] = self_time[layer]
    out["holonomy.steps"] = int(steps)
    out["holonomy.ns_per_step"] = (
        1e9 * busy["holonomy.wilson_loop"] / steps if steps else 0.0)
    out["dynamics.time_steps"] = int(time_steps)
    out["dynamics.ns_per_step"] = (
        1e9 * self_time["dynamics.adiabatic_fidelity"] / time_steps
        if time_steps else 0.0)
    out["synth.evaluations"] = evaluations
    out["synth.nm_evaluations"] = nm_evaluations
    out["synth.grid_evaluations"] = evaluations - nm_evaluations
    out["synth.restarts"] = restarts
    out["synth.restarts_improving"] = improving
    out["synth.hit_frac"] = hits / len(synth_records) if synth_records else 0.0
    total = busy["cli.main"]
    for module in MODULES:
        module_self = sum(t for name, t in self_time.items()
                          if name.startswith(module + "."))
        out[f"{module}.self_share"] = module_self / total if total else 0.0
    return out

